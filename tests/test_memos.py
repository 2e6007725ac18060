"""Every lru_cache in the package is either a value memo that ffs.clear_memos
empties or a named constant memo.

A value memo outside clear_memos survives a mutant's install and makes its
verdict depend on which tests ran before it; this registry refuses a new one.
"""

import importlib
import pkgutil

import weylhh
from weylhh import ffs
from weylhh.poly import Poly, Y
from weylhh.weyl import SymplecticData, WeylElement

# Memos whose values no code change under test can alter.
CONSTANT_MEMOS = {"weylhh.weyl.SymplecticData.canonical"}


def package_memos():
    """(qualified name, cache) for each lru_cache defined at module level or
    on a class in a package module; imported names are skipped."""
    out = {}
    for info in pkgutil.iter_modules(weylhh.__path__):
        module = importlib.import_module(f"weylhh.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [(name, obj)]
            if isinstance(obj, type):
                members += [(f"{name}.{attr}", value) for attr, value in vars(obj).items()]
            for qualname, value in members:
                value = getattr(value, "__func__", value)  # staticmethod
                if hasattr(value, "cache_clear"):
                    out[f"{module.__name__}.{qualname}"] = value
    return out


def test_every_lru_cache_is_registered():
    memos = package_memos()
    assert CONSTANT_MEMOS <= set(memos)
    unregistered = [name for name, memo in memos.items()
                    if name not in CONSTANT_MEMOS and memo not in ffs.MEMOIZED]
    assert unregistered == []
    assert all(memo in memos.values() for memo in ffs.MEMOIZED)


def test_clear_memos_empties_every_value_memo():
    sym = SymplecticData.canonical(1)
    args = [WeylElement(Poly.monomial([(Y, j, 2)]), sym) for j in (1, 2)]
    ffs.ffs_apply(ffs.cached_symbol(1, 4), args)
    assert ffs._op_cache and all(memo.cache_info().currsize for memo in ffs.MEMOIZED)
    ffs.clear_memos()
    assert not ffs._op_cache
    assert [memo.cache_info().currsize for memo in ffs.MEMOIZED] == [0] * len(ffs.MEMOIZED)
