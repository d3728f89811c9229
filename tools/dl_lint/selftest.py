#!/usr/bin/env python3
"""dl-lint self-test (ctest: dl_lint_selftest).

Two halves:
  1. Each check flags its known-bad fixture tree (and does NOT flag the
     deliberately-clean lines sitting next to the bad ones).
  2. The full suite runs clean on the real tree — the same invocation CI
     gates on.

Usage: selftest.py [--build-dir BUILD] [--no-compile]
"""

import argparse
import json
import pathlib
import shutil
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parents[1]
FIXTURES = HERE / "fixtures"
DL_LINT = HERE / "dl_lint.py"

_failures = []


def run_lint(args):
    proc = subprocess.run(
        [sys.executable, str(DL_LINT)] + args,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    return proc.returncode, proc.stdout


def expect(cond, what, output=""):
    tag = "ok" if cond else "FAIL"
    print(f"[{tag}] {what}")
    if not cond:
        _failures.append(what)
        if output:
            print(output)


def check_fixture(name, check, extra_args, must_flag, must_not_flag=()):
    """Runs one check over its fixture; asserts exit 1, that every
    `must_flag` (file-suffix, substring) pair appears, and that no
    `must_not_flag` substring does."""
    root = FIXTURES / name
    code, out = run_lint(["--root", str(root), "--checks", check]
                         + extra_args)
    expect(code == 1, f"{name}: exits 1 on findings (got {code})", out)
    for suffix, needle in must_flag:
        hit = any(suffix in line and needle in line
                  for line in out.splitlines())
        expect(hit, f"{name}: flags {needle!r} in {suffix}", out)
    for needle in must_not_flag:
        expect(needle not in out,
               f"{name}: does not flag the clean {needle!r}", out)


def test_must_use_status():
    root = FIXTURES / "must_use_status"
    src = root / "src" / "bad_ignored_status.cc"
    cxx = shutil.which("c++") or shutil.which("g++")
    if cxx is None:
        expect(False, "must_use_status: no C++ compiler on PATH")
        return
    with tempfile.TemporaryDirectory() as build:
        (pathlib.Path(build) / "compile_commands.json").write_text(
            json.dumps([{
                "directory": build,
                "file": str(src),
                "arguments": [cxx, "-std=c++17", f"-I{root / 'src'}",
                              "-Wall", "-c", str(src), "-o", "bad.o"],
            }]))
        check_fixture(
            "must_use_status", "must-use-status", ["-p", build],
            must_flag=[
                ("bad_ignored_status.cc:7", "is ignored"),
                ("bad_ignored_status.cc:8", "bare (void) cast"),
            ])


def test_lock_rank_sync():
    check_fixture(
        "lock_rank_sync", "lock-rank-sync", [],
        must_flag=[
            ("lock_rank.h:9", "no `Lock:` doc tag"),
            ("lock_rank.h:11", "assigned to multiple enumerators"),
            ("lock_rank.h:13", "never used to construct"),
            ("lock_rank.h:16", "no `Sibling instances:` doc tag"),
            ("widget.cc:16", "raw std::mutex"),
            ("qindb_internals.md:3", "drifted"),
        ],
        must_not_flag=["kAlpha has"])


def test_guarded_by():
    check_fixture(
        "guarded_by", "guarded-by-coverage", [],
        must_flag=[("widget.h:18", "count_ is touched under a held lock")],
        must_not_flag=["guarded_", "immutable_"])


def test_decode_bounds():
    check_fixture(
        "decode_bounds", "decode-bounds", [],
        must_flag=[
            ("bad_decode.cc:26", "no preceding bounds check"),
            ("bad_slice_decode.cc:27", "no preceding bounds check"),
        ],
        must_not_flag=["bad_decode.cc:42", "bad_slice_decode.cc:39"])


def test_failpoint_sync():
    check_fixture(
        "failpoint_sync", "failpoint-registry-sync", [],
        must_flag=[
            ("points.cc:6", "not documented"),
            ("points.cc:7", "defined more than once"),
            ("fault_injection.md:8", "has no DIRECTLOAD_FAILPOINT_DEFINE"),
        ],
        must_not_flag=['"site_a" is not documented'])


def test_option_setter():
    check_fixture(
        "option_setter", "option-setter", [],
        must_flag=[("widget.h:12", "WidgetOptions::spare_knob is assigned "
                                   "by no file outside"),
                   ("widget.h:14", "WidgetOptions::seed is assigned by no "
                                   "file outside")],
        must_not_flag=["::host", "::size", "::depth", "::gadget",
                       "GadgetOptions::"])


def test_clean_tree(build_dir, no_compile):
    args = ["--root", str(REPO)]
    if build_dir:
        args += ["-p", str(build_dir)]
    if no_compile:
        args += ["--no-compile"]
    code, out = run_lint(args)
    expect(code == 0, f"clean tree: full suite passes (exit {code})", out)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--build-dir", default=None,
                    help="build dir with compile_commands.json for the "
                         "clean-tree run")
    ap.add_argument("--no-compile", action="store_true",
                    help="skip the compiler half on the clean-tree run")
    args = ap.parse_args()

    test_must_use_status()
    test_lock_rank_sync()
    test_guarded_by()
    test_decode_bounds()
    test_failpoint_sync()
    test_option_setter()
    test_clean_tree(args.build_dir, args.no_compile)

    if _failures:
        print(f"\ndl-lint selftest: {len(_failures)} failure(s)")
        return 1
    print("\ndl-lint selftest: all passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
