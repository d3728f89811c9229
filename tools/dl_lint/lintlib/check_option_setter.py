"""option-setter: every option field has a caller outside its own module.

Each independently settable option doubles the configurations tests and
benchmarks must cover, so an option earns its place only when some caller
sets it. This check collects the fields of every `struct *Options` under
src/ (nested `struct Options` included) and flags each field that no file
outside the field's own directory assigns. Setters are searched in src/,
tests/, bench/, examples/ and perfbench/: an assignment is `.field =`,
`->field =` (compound assignments too) or `&x.field` handed to a parser.

The match is by field name, not by type: an assignment to a same-named
field of another struct counts as a setter. That errs towards silence,
never towards a false finding. A field that stays configurable for
deployment (a listen address, say) carries
`// dl-lint: ignore(option-setter)` on its declaration line.
"""

import re

from .findings import Finding

NAME = "option-setter"

_SETTER_DIRS = ("src", "tests", "bench", "examples", "perfbench")

_STRUCT_RE = re.compile(r"\bstruct\s+(\w*Options)\s*\{")
# The declarator of a data member (`type name`), once its initializer
# (`= init` or `{init}`) is cut off.
_DECL_RE = re.compile(r"^[\w:<>,*&\s]+?\s*[\s*&](\w+)$")

# A member chain (`.a.b`, `->a`) that is assigned (`=`, `+=`, designated
# `{`), or whose address follows `&` (handed to a flag parser).
_CHAIN = r"((?:\s*(?:\.|->)\s*\w+)+)"
_SETTER_RE = re.compile(_CHAIN + r"\s*(?:[-+*/|&^]?=(?!=)|\{)"
                        r"|&\s*\w+" + _CHAIN)


def _matching_brace(code, open_idx):
    depth, j = 0, open_idx
    while j < len(code):
        depth += {"{": 1, "}": -1}.get(code[j], 0)
        if depth == 0:
            return j
        j += 1
    return len(code)


def _fields(sf):
    """(struct, field, line) for each data member of each Options struct."""
    code = sf.code
    for m in _STRUCT_RE.finditer(code):
        open_idx = m.end() - 1
        close = _matching_brace(code, open_idx)
        # Split the body into top-level statements; nested braces (lambda
        # initializers, member functions) stay inside their statement.
        depth, start, brace = 0, open_idx + 1, 0
        for j in range(open_idx + 1, close):
            c = code[j]
            if c in "{(":
                if depth == 0 and c == "{":
                    brace = j
                depth += 1
            elif c in "})":
                depth -= 1
                # A member function body ends its statement without `;`;
                # a lambda initializer (`= [] {...}()`) does not.
                head = code[start:brace]
                if (depth == 0 and c == "}" and "(" in head
                        and "=" not in head):
                    start = j + 1
            elif c == ";" and depth == 0:
                stmt_start, start = start, j + 1
                stmt = code[stmt_start:j]
                decl = re.split(r"[={]", stmt, maxsplit=1)[0].rstrip()
                if decl.lstrip().startswith(("using ", "static ", "friend ")):
                    continue  # An alias or a static constant.
                fm = _DECL_RE.match(decl.lstrip())
                if fm is None:
                    continue  # A member function declaration.
                offset = stmt_start + len(decl) - len(fm.group(1))
                yield m.group(1), fm.group(1), sf.line_of(offset)


def run(ctx):
    fields = []
    for sf in ctx.project.files_under("src"):
        for struct, field, line in _fields(sf):
            if not sf.suppressed(line, NAME):
                fields.append((sf, struct, field, line))

    set_in = {}  # field -> set of directories assigning it
    for sf in ctx.project.files_under(*_SETTER_DIRS):
        for m in _SETTER_RE.finditer(sf.code):
            # Every member of an assigned chain counts as set:
            # `o.mint.engine.cache_bytes = n` sets mint and engine too.
            for name in re.findall(r"\w+", m.group(1) or m.group(2)):
                set_in.setdefault(name, set()).add(sf.path.parent)

    findings = []
    for sf, struct, field, line in fields:
        outside = set_in.get(field, set()) - {sf.path.parent}
        if outside:
            continue
        findings.append(Finding(
            NAME, sf.path, line,
            f"{struct}::{field} is assigned by no file outside "
            f"{sf.path.parent.relative_to(ctx.project.root)}/",
            "replace the field with a named constant next to the code that "
            "reads it (deleting any branch only its other values reach), or "
            "mark a deployment setting `// dl-lint: ignore(option-setter)`"))
    return findings
