"""Known-wrong variants of the kernels, each caught by its oracle.

Every case installs one mutant with monkeypatch: the real function's source
with one known-wrong edit, compiled in a copy of its module's namespace.  It
then runs the oracle that guards that kernel at the smallest size that
catches the mutant, and checks that the oracle holds on the real code and
reports the mismatch on the mutant.  A refactor of a kernel that makes one of
these edits miss (the source no longer contains it) fails here too, so the
list is kept in step with the code it mutates.
"""

import __future__
import inspect
import textwrap

from weylhh import descent, ffs, forms, poly, weyl
from weylhh.descent import descend, make_zeta
from weylhh.ffs import cached_symbol, ffs_apply
from weylhh.forms import FormElement, ext_d, proj_p
from weylhh.poly import Poly, Y
from weylhh.weyl import WeylElement, star


def install(monkeypatch, module, name, old, new, owner=None, also=()):
    """Replace owner.name (owner defaults to module) by its source with old
    replaced by new; `also` lists further modules that imported it by name."""
    owner = owner or module
    src = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    assert src.count(old) == 1, f"{name} no longer contains {old!r}"
    namespace = dict(vars(module))
    code = compile(src.replace(old, new), module.__file__, "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    exec(code, namespace)
    for target in (owner,) + tuple(also):
        monkeypatch.setattr(target, name, namespace[name])


def y(sym, *exps):
    return WeylElement(Poly.monomial([(Y, i, e) for i, e in enumerate(exps, 1) if e]),
                       sym)


def homotopy_identity_holds(a: FormElement) -> bool:
    """s d + d s = id - p."""
    s = forms.homotopy_s
    return s(ext_d(a)) + ext_d(s(a)) == a - proj_p(a)


def routes_agree(sym, a, b) -> bool:
    """The descent value against the simplex-symbol value."""
    d = descend(make_zeta(sym), [a, b], check_stability=False)
    f = ffs_apply(cached_symbol(sym.n, a.degree() + b.degree()), [a, b])
    return f.restrict(d.truncation) == d


def associative(a, b, c) -> bool:
    return star(star(a, b), c) == star(a, star(b, c))


def refuses_overflow() -> bool:
    """A product whose y1 field would reach 256 raises."""
    try:
        Poly.monomial([(Y, 1, 255)]) * Poly.monomial([(Y, 1, 1)])
    except ValueError:
        return True
    return False


def test_homotopy_weight_off_by_one(monkeypatch, sym1):
    # 1/(k+q+1) for 1/(k+q): s(dz1) = z1 / 2, so s d + d s gives dz1 / 2.
    a = FormElement.dz([1], sym1)
    assert homotopy_identity_holds(a)
    install(monkeypatch, forms, "homotopy_s",
            "q + mono_z_degree(m)", "q + mono_z_degree(m) + 1")
    assert not homotopy_identity_holds(a)


def test_dropped_alpha_factorial(monkeypatch, sym1):
    # Without alpha! a slot term y^alpha contracts with the wrong weight once
    # some exponent reaches 2: total degree 3 is the least that shows it.
    a, b = y(sym1, 2), y(sym1, 0, 1)
    assert routes_agree(sym1, a, b)
    install(monkeypatch, ffs, "_slot_terms",
            "c.scale_fraction(mono_factorial(mono))", "c")
    assert not routes_agree(sym1, a, b)


def test_pair_factor_without_power(monkeypatch, sym1):
    # One W factor for its count-th power: wrong from the first squared
    # factor on, W01^2 on (y1^3, y2) at total degree 4.  The mutant builds
    # into its own operator cache, so no correct operator is read back.
    a, b = y(sym1, 3), y(sym1, 0, 1)
    assert routes_agree(sym1, a, b)
    monkeypatch.setattr(ffs, "_op_cache", {})
    install(monkeypatch, ffs, "_operator_for", " ** count", "")
    assert not routes_agree(sym1, a, b)


def test_diff_without_exponent(monkeypatch, sym1):
    # d/dy2 y2^2 = y2 instead of 2 y2, reached through y2 * y2 (no triple
    # of lower total degree catches it).
    a, b, c = y(sym1, 0, 1), y(sym1, 0, 1), y(sym1, 1)
    assert associative(a, b, c)
    install(monkeypatch, poly, "diff",
            "c if e == 1 else c.scale_fraction(e)", "c", owner=Poly)
    assert not associative(a, b, c)


def test_star_coefficient_without_factorial(monkeypatch, sym1):
    # i^k for i^k / k!: wrong from the first order-two term on, which needs
    # total degree 4.
    a, b, c = y(sym1, 2), y(sym1, 0, 1), y(sym1, 0, 1)
    assert associative(a, b, c)
    install(monkeypatch, weyl, "_star_kernel",
            "(cc * I).scale_fraction(1, order)", "cc * I",
            also=(forms, descent))
    assert not associative(a, b, c)


def test_overflow_guard_removed(monkeypatch):
    assert refuses_overflow()
    install(monkeypatch, poly, "__mul__",
            "if check and (m ^ m1 ^ m2) & _CARRIES:", "if False:", owner=Poly)
    assert not refuses_overflow()
