"""The package is what a command runs: every function in src/weylhh is
entered by some golden command line, or is listed in UNREACHED with the
reason no golden command needs it.  A function only tests call belongs in
tests/, as tests/oracles.py does.
"""

import ast
import sys
from pathlib import Path

from weylhh import ffs
from test_golden import CASES, run_case
from test_memos import package_memos

SRC = Path(ffs.__file__).resolve().parent

# reason -> functions no golden command line enters, each listed by its own
# name or as module.qualname.
UNREACHED = {
    "failure-path formatting: runs when a check fails and names its residual":
        {"__str__", "__repr__", "lowest_term", "_unordered"},
    "pickling, which no command does": {"scalars.Scalar.__reduce__"},
    "the mutation harness empties the value memos with it": {"ffs.clear_memos"},
    "the sweep-n2 benchmark workload's oracle": {"ffs.monomial_table"},
    "small constructors": {"groups.GroupElement.identity", "forms.FormElement.dz"},
    "fixed_projector's kernel basis, for a g that fixes a vector: the one "
    "twisted cycle a command builds is g = -1's": {"linalg.mat_transpose"},
    "value equality; a command tests a difference by is_zero":
        {"forms.FormElement.__eq__", "groups.SmashElement.__eq__"},
    "group elements are canonical: a command's dict lookups find the key "
    "object itself, so they match by identity": {"groups.GroupElement.__eq__"},
}


def functions():
    """{(path, first line): module.qualname} of every def in the package;
    the first line is the first decorator's, as in the code object."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lines = [child.lineno] + [d.lineno for d in child.decorator_list]
                out[str(path), min(lines)] = name
            visit(child, path, name)

    for path in SRC.glob("*.py"):
        visit(ast.parse(path.read_text()), path, path.stem)
    return out


def test_every_package_function_is_run_by_a_command(tmp_path):
    # Cold memos, so that a memoized function is entered as a first run's is.
    ffs.clear_memos()
    for cache in package_memos().values():
        cache.cache_clear()
    # Code objects are kept by file and first line, not as objects: two
    # functions with equal bodies at one line number in two files compare
    # equal as code objects, and a set of them would keep only one.
    seen = set()
    sys.setprofile(lambda frame, event, arg: event == "call" and seen.add(
        (frame.f_code.co_filename, frame.f_code.co_firstlineno)))
    try:
        for name in CASES:
            (tmp_path / name).mkdir()
            run_case(name, tmp_path / name)
    finally:
        sys.setprofile(None)
    entered = {(str(Path(path).resolve()), line) for path, line in seen}
    listed = set().union(*UNREACHED.values())
    # Each function missed, with the entries of UNREACHED that list it.
    missed = {name: {name, name.rsplit(".", 1)[1]} & listed
              for key, name in functions().items() if key not in entered}
    unlisted = sorted(name for name, entries in missed.items() if not entries)
    assert not unlisted, f"reached only by tests: {unlisted}"
    stale = listed - set().union(*missed.values())
    assert not stale, f"listed, but a command runs it: {sorted(stale)}"
