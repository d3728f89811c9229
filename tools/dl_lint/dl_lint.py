#!/usr/bin/env python3
"""dl-lint: DirectLoad's repo-specific static analysis suite.

Machine-checks the conventions that generic tooling cannot see:

    must-use-status         every Status/Result return is inspected
    lock-rank-sync          lock_rank.h, its construction sites and the
                            docs table agree
    guarded-by-coverage     lock-protected fields carry GUARDED_BY
    decode-bounds           wire-decoded integers are bounds-checked
                            before they size anything (src/rpc/)
    failpoint-registry-sync code failpoints == docs/fault_injection.md
    option-setter           every Options field is set outside its module

Usage:
    tools/dl_lint/dl_lint.py [-p BUILD_DIR] [--root DIR]
                             [--checks a,b,...] [--no-compile]
                             [--write-docs] [--list-checks]

Dependency-free by necessity and by design: it runs on the Python stdlib
plus the project's own compiler (via compile_commands.json) — see
docs/static_analysis.md for why there is no libclang here and what that
costs. Exit status: 0 clean, 1 findings, 2 infrastructure error.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from lintlib import findings as findings_mod  # noqa: E402
from lintlib import project  # noqa: E402
from lintlib import (  # noqa: E402
    check_decode_bounds,
    check_failpoint_sync,
    check_guarded_by,
    check_lock_rank_sync,
    check_must_use_status,
    check_option_setter,
)

CHECKS = {
    check_must_use_status.NAME: check_must_use_status,
    check_lock_rank_sync.NAME: check_lock_rank_sync,
    check_guarded_by.NAME: check_guarded_by,
    check_decode_bounds.NAME: check_decode_bounds,
    check_failpoint_sync.NAME: check_failpoint_sync,
    check_option_setter.NAME: check_option_setter,
}


class Context:
    """What a check gets to see: the project plus run options."""

    def __init__(self, proj, no_compile=False, require_compile_db=True):
        self.project = proj
        self.no_compile = no_compile
        self.require_compile_db = require_compile_db


def main(argv=None):
    repo_root = pathlib.Path(__file__).resolve().parents[2]
    ap = argparse.ArgumentParser(prog="dl-lint", description=__doc__)
    ap.add_argument("-p", "--build-dir", type=pathlib.Path, default=None,
                    help="build dir containing compile_commands.json "
                         "(default: <root>/build)")
    ap.add_argument("--root", type=pathlib.Path, default=repo_root,
                    help="source root to lint (default: the repo)")
    ap.add_argument("--checks", default=None,
                    help="comma-separated subset of checks to run")
    ap.add_argument("--no-compile", action="store_true",
                    help="skip the compiler half of must-use-status")
    ap.add_argument("--write-docs", action="store_true",
                    help="regenerate the lock-rank table in "
                         "docs/qindb_internals.md, then lint")
    ap.add_argument("--list-checks", action="store_true")
    args = ap.parse_args(argv)

    if args.list_checks:
        for name, mod in CHECKS.items():
            first = (mod.__doc__ or "").strip().splitlines()[0]
            print(f"{name:24} {first}")
        return 0

    selected = list(CHECKS)
    if args.checks:
        selected = [c.strip() for c in args.checks.split(",") if c.strip()]
        unknown = [c for c in selected if c not in CHECKS]
        if unknown:
            print(f"dl-lint: unknown check(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2

    root = args.root.resolve()
    build_dir = args.build_dir or (root / "build")
    proj = project.Project(root, build_dir)
    ctx = Context(proj, no_compile=args.no_compile)

    if args.write_docs:
        if check_lock_rank_sync.write_docs(ctx):
            print(f"dl-lint: regenerated lock-rank table in "
                  f"{check_lock_rank_sync.DOC_FILE}")

    all_findings = []
    try:
        for name in selected:
            all_findings += CHECKS[name].run(ctx)
    except OSError as e:
        print(f"dl-lint: {e}", file=sys.stderr)
        return 2

    all_findings.sort(key=findings_mod.sort_key)
    for f in all_findings:
        print(f.render(root))
    n = len(all_findings)
    print(f"dl-lint: {n} finding{'s' if n != 1 else ''} "
          f"({', '.join(selected)})")
    return 1 if all_findings else 0


if __name__ == "__main__":
    sys.exit(main())
