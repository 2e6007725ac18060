"""A mechanical mutation sweep over one package module.

    python tests/mutation_sweep.py src/weylhh/forms.py \
        --tests tests/test_forms.py tests/test_golden.py \
        --then tests/test_mutants.py

Each mutant is one token edit of the module, found with the standard
library's tokenize (so no edit lands in a string or a comment):

  * an int literal plus one;
  * a comparison swapped: < and <=, > and >=, == and !=;
  * + and - swapped;
  * a `not` dropped.

The sweep copies the checkout into the work directory (which must lie
outside it) once and edits the copy only.  For each mutant it runs the `--tests` files
in a fresh pytest process (stopping at the first failure), and for a mutant
that survives them the `--then` files: a mutant is killed by the first set,
by the second, or survives both.  A run past `--timeout` seconds is counted
apart.  The survivors are then sorted by hand: a gap in a value path gets a
test, an equivalent mutant is listed, and code that nothing reaches is
deleted.  This file's name does not start with `test_`, so pytest does not
collect it.
"""

from __future__ import annotations

import argparse
import io
import os
import shutil
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWAPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
         "+": "-", "-": "+"}


def mutants(source: str):
    """(line, col, old, new) for every mutation site of the source; line is
    1-based, col 0-based, and old is the text the edit replaces there."""
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        (line, col), text = tok.start, tok.string
        if tok.type == tokenize.NUMBER and text.isdigit():
            yield line, col, text, str(int(text) + 1)
        elif tok.type == tokenize.OP and text in SWAPS:
            yield line, col, text, SWAPS[text]
        elif tok.type == tokenize.NAME and text == "not":
            yield line, col, tok.line[col:col + 4].rstrip("(["), ""


def apply(source: str, line: int, col: int, old: str, new: str) -> str:
    lines = source.splitlines(keepends=True)
    text = lines[line - 1]
    assert text[col:col + len(old)] == old, (line, col, old)
    lines[line - 1] = text[:col] + new + text[col + len(old):]
    return "".join(lines)


def run(tests, workdir: Path, timeout: float) -> str:
    """'pass', 'fail' or 'timeout' for one pytest process over the files."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q",
                               "-p", "no:cacheprovider", *tests],
                              cwd=workdir, env=env, capture_output=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "pass" if proc.returncode == 0 else "fail"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="the module to mutate, relative to the checkout")
    parser.add_argument("--tests", nargs="+", required=True)
    parser.add_argument("--then", nargs="*", default=[])
    parser.add_argument("--timeout", type=float, default=90)
    parser.add_argument("--workdir", help="where the copy goes (a new temporary "
                                          "directory by default)")
    ns = parser.parse_args(argv)

    workdir = Path(ns.workdir or tempfile.mkdtemp(prefix="mutation-sweep-"))
    shutil.copytree(ROOT, workdir, dirs_exist_ok=True, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
    target = workdir / ns.module
    source = target.read_text()
    if run(ns.tests, workdir, ns.timeout) != "pass" or (
            ns.then and run(ns.then, workdir, ns.timeout) != "pass"):
        print("the unmutated copy does not pass its tests", file=sys.stderr)
        return 2

    counts = {}
    try:
        for line, col, old, new in mutants(source):
            target.write_text(apply(source, line, col, old, new))
            outcome = run(ns.tests, workdir, ns.timeout)
            if outcome == "pass":
                outcome = "survived"
                if ns.then:
                    later = run(ns.then, workdir, ns.timeout)
                    outcome = {"fail": "killed by --then", "timeout": "timeout"}.get(
                        later, "survived")
            elif outcome == "fail":
                outcome = "killed"
            counts[outcome] = counts.get(outcome, 0) + 1
            if outcome != "killed":
                print(f"{ns.module}:{line}:{col}  {old.strip()!r} -> {new!r}  {outcome}",
                      flush=True)
    finally:
        target.write_text(source)
    print(f"{sum(counts.values())} sites: " + ", ".join(
        f"{k} {v}" for k, v in sorted(counts.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
