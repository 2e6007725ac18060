"""The package's modules form layers: no import cycle, no import hidden in a
function to get round one.

Read from the source with `ast`, so nothing is imported.  The module-level
graph of package imports must be acyclic.  A function may import a package
module only where the one listed exception says why.  A fresh interpreter
that imports the package loads none of the standard-library modules in
UNNEEDED.
"""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "weylhh"
MODULES = {p.stem for p in SRC.glob("*.py")}

# (module, function, imported module).  sampling.random_smash builds smash
# elements, but groups imports hochschild, whose verify_cocycle samples
# through sampling: at module top this import would close a cycle.
ALLOWED = {("sampling", "random_smash", "groups")}

# Modules no run computes with: dataclasses loads inspect (and with it ast,
# dis and tokenize), an internal error's traceback is printed by the
# interpreter's own hook, and a Scalar is its own integer triple, so fractions
# (which loads decimal and numbers) has no reader.
UNNEEDED = {"dataclasses", "inspect", "traceback", "fractions", "decimal", "numbers"}


def _targets(node):
    """The package modules one import statement reads."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif node.module and (node.level or node.module != "weylhh"):
        names = [f"weylhh.{node.module}" if node.level else node.module]
    else:  # from . import x, from weylhh import x
        names = [f"weylhh.{a.name}" for a in node.names]
    return {n.split(".")[1] for n in names if n.startswith("weylhh.")} & MODULES


def _imports():
    """The module-level import graph, and every import inside a function as
    (module, function, imported module)."""
    graph, nested = {}, set()
    for name in MODULES:
        tree = ast.parse((SRC / f"{name}.py").read_text())
        graph[name] = set()
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                graph[name] |= _targets(node)
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        nested |= {(name, fn.name, t) for t in _targets(node)}
    return graph, nested


def _cycle(graph):
    """One import cycle as a list of modules, or None."""
    state = {}

    def visit(m, path):
        state[m] = "open"
        for t in sorted(graph.get(m, ())):
            if state.get(t) == "open":
                return path[path.index(t):] + [t]
            if t not in state:
                found = visit(t, path + [t])
                if found:
                    return found
        state[m] = "done"
        return None

    for m in sorted(graph):
        if m not in state:
            found = visit(m, [m])
            if found:
                return found
    return None


def test_module_imports_are_acyclic():
    graph, _ = _imports()
    assert graph["weyl"] and "groups" not in graph["descent"]
    assert _cycle(graph) is None


def test_no_function_imports_a_package_module_but_the_named_one():
    graph, nested = _imports()
    assert nested <= ALLOWED, sorted(nested - ALLOWED)
    # Each exception is still needed: at module top it would close a cycle.
    for module, _, target in ALLOWED:
        hoisted = {m: set(ts) for m, ts in graph.items()}
        hoisted[module].add(target)
        assert _cycle(hoisted) is not None


def test_import_loads_no_unneeded_module():
    # The sweep-n2 benchmark's modules first, then the command line's; -S
    # keeps site-packages' start-up hooks out of sys.modules.
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r})\n"
            f"import weylhh.descent, weylhh.ffs; print(sorted({UNNEEDED!r} & set(sys.modules)))\n"
            f"import weylhh.cli; print(sorted({UNNEEDED!r} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, check=True)
    assert run.stdout == "[]\n[]\n", run.stdout
