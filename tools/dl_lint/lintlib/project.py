"""Source discovery and a position-preserving C++ lexer.

dl-lint's structural checks run on `code()` — the file text with comments
and string/char literal *contents* blanked to spaces (delimiters and
newlines kept), so every regex match reports the true line number and
nothing inside a comment or a log message can fake a match. Checks that
need literal strings (failpoint names, mutex names) use `code_keep_strings()`;
checks that need comments (the lock-rank doc tags) read `raw`.
"""

import bisect
import functools
import json
import pathlib
import re
import shlex

_SOURCE_SUFFIXES = (".h", ".cc", ".cpp")


def strip_comments_and_strings(text: str, keep_strings: bool = False) -> str:
    """Returns text of identical length/line structure with comment bodies
    (and, unless keep_strings, string/char literal bodies) replaced by
    spaces. Quote and comment delimiters themselves are preserved so the
    output still lexes sanely."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            for k in range(i, j + 2):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 2
        elif c == "'" and i > 0 and re.match(r"[0-9a-fA-F]'[0-9a-fA-F]",
                                              text[i - 1:i + 2]) \
                and text[i - 2:i] != "u8":
            i += 1  # A digit separator (60'000), not a char literal.
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            if not keep_strings:
                for k in range(i + 1, min(j, n)):
                    if out[k] != "\n":
                        out[k] = " "
            i = min(j, n - 1) + 1
        else:
            i += 1
    return "".join(out)


class SourceFile:
    def __init__(self, path: pathlib.Path):
        self.path = path
        self.raw = path.read_text(encoding="utf-8", errors="replace")
        self._line_starts = [0] + [
            m.end() for m in re.finditer("\n", self.raw)
        ]

    @functools.cached_property
    def code(self) -> str:
        """Comments and string contents blanked."""
        return strip_comments_and_strings(self.raw)

    @functools.cached_property
    def code_keep_strings(self) -> str:
        """Comments blanked, string contents kept."""
        return strip_comments_and_strings(self.raw, keep_strings=True)

    def line_of(self, offset: int) -> int:
        """1-based line number containing byte `offset`."""
        return bisect.bisect_right(self._line_starts, offset)

    def raw_line(self, line: int) -> str:
        """The raw text of 1-based `line` (no trailing newline)."""
        start = self._line_starts[line - 1]
        end = self.raw.find("\n", start)
        return self.raw[start:] if end == -1 else self.raw[start:end]

    def suppressed(self, line: int, check: str) -> bool:
        """True when the raw line carries a `dl-lint: ignore(<check>)`
        suppression comment."""
        return f"dl-lint: ignore({check})" in self.raw_line(line)


class Project:
    """A source root plus (optionally) its compile database."""

    def __init__(self, root: pathlib.Path, build_dir: pathlib.Path = None):
        self.root = root.resolve()
        self.build_dir = build_dir.resolve() if build_dir else None
        self._files = {}

    def file(self, path: pathlib.Path) -> SourceFile:
        path = path.resolve()
        if path not in self._files:
            self._files[path] = SourceFile(path)
        return self._files[path]

    def invalidate(self, path: pathlib.Path):
        """Drop the cached SourceFile after rewriting `path` on disk."""
        self._files.pop(path.resolve(), None)

    def files_under(self, *subdirs: str):
        """All .h/.cc/.cpp files under the named root-relative subdirs,
        sorted."""
        out = []
        for sub in subdirs:
            base = self.root / sub
            if not base.is_dir():
                continue
            for p in sorted(base.rglob("*")):
                if p.suffix in _SOURCE_SUFFIXES and p.is_file():
                    out.append(self.file(p))
        return out

    def compile_commands(self):
        """Parsed compile_commands.json entries whose file lies under the
        project root, as (path, argv) pairs. Empty when there is no build
        dir or no database (checks that need it report that themselves)."""
        if self.build_dir is None:
            return []
        db = self.build_dir / "compile_commands.json"
        if not db.is_file():
            return []
        entries = []
        for entry in json.loads(db.read_text()):
            path = pathlib.Path(entry["file"])
            if not path.is_absolute():
                path = pathlib.Path(entry["directory"]) / path
            path = path.resolve()
            if self.root not in path.parents:
                continue
            if "arguments" in entry:
                argv = list(entry["arguments"])
            else:
                argv = shlex.split(entry["command"])
            entries.append((path, argv))
        return entries
