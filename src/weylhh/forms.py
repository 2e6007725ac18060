"""Exterior forms in the Z bank with the shifted star product.

A form is a map from strictly increasing dz-index tuples to polynomial
coefficients in Y and Z.  The product combines the wedge of dz factors with
a one-sided star: left derivatives act on y only, right derivatives on both
y and z, so a polynomial left factor always terminates the expansion.

The contraction homotopy s is the radial one, computed in closed form: the
integral over t in [0, 1] of z -> t z weighted by t^(q-1) sends a term of
z-degree k in a q-form to 1/(k+q) times itself, and one dz index is stripped
and re-enters as a z factor with the alternating sign.  No integration
variable is ever introduced.  Together with the exterior differential d, s
satisfies s d + d s = id - p, where p projects a form onto the z-constant
part of its 0-form component.  s also squares to zero.  The Hochschild-degree sign of the cochain-level differential lives in
the hochschild module; everything here is degree-agnostic.

Truncation bookkeeping: a form with truncation D stores exactly the terms of
total (y,z)-degree <= D and certifies them; operations propagate the bound
(star with a degree-d polynomial costs d, the differential costs 1, s gains
1) and eagerly drop anything above it.
"""

from __future__ import annotations

from bisect import bisect
from typing import Dict, Iterable, Optional, Sequence, Tuple, TypeVar

from .poly import Poly, Z, mono_z_degree
from .scalars import ONE, Scalar
from .weyl import (SymplecticData, WeylElement, _check_ambient, _min_trunc,
                   _star_kernel, _star_truncation)

DzIndex = Tuple[int, ...]
Ring = TypeVar("Ring", Scalar, Poly)


def wedge_merge(i1: DzIndex, i2: DzIndex) -> Optional[Tuple[int, DzIndex]]:
    """Merge two increasing index tuples; None when they share an index.

    Returns (sign, merged) with the sign of the permutation sorting the
    concatenation: both parts are sorted, so its inversions are the pairs
    of an index of i1 above an index of i2, counted by bisection.
    """
    if not set(i1).isdisjoint(i2):
        return None
    odd = sum(len(i1) - bisect(i1, b) for b in i2) % 2
    return -1 if odd else 1, tuple(sorted(i1 + i2))


def wedge_expand(factors: Sequence[Dict[DzIndex, Ring]], degree: int) -> Dict[DzIndex, Ring]:
    """The degree-`degree` part of the wedge product of one or more forms
    whose coefficients commute (Scalar or Poly), each given as a map from dz
    index tuples to coefficients.  The product starts from the first factor,
    so it needs no unit.  A partial product that the factors still to come
    cannot raise to that degree is dropped."""
    tops = [max(map(len, factor), default=0) for factor in factors]
    pieces = {idx: c for idx, c in factors[0].items()
              if degree - sum(tops[1:]) <= len(idx) <= degree}
    for i, factor in enumerate(factors[1:], start=1):
        rest = sum(tops[i + 1:])
        nxt: Dict[DzIndex, Ring] = {}
        for part, coeff in pieces.items():
            for idx, c in factor.items():
                if not degree - rest <= len(part) + len(idx) <= degree:
                    continue
                merged = wedge_merge(part, idx)
                if merged is None:
                    continue
                sign, nidx = merged
                add = coeff * c
                if sign < 0:
                    add = -add
                prev = nxt.get(nidx)
                add = add if prev is None else prev + add
                if add.is_zero():
                    nxt.pop(nidx, None)
                else:
                    nxt[nidx] = add
        pieces = nxt
    return pieces


def sector_volume(ones: Sequence[Dict[DzIndex, Scalar]], k: int) -> Dict[DzIndex, Scalar]:
    """The k-th wedge power, over k!, of sum_{i<j} omega_ij r^i r^j for the
    canonical omega and the one-forms r^i = ones[i]: omega pairs each row only
    with its partner, so that is sum_l tau_l, tau_l = -r^(2l-1) r^(2l).  The
    tau_l commute and square to zero, so the power over k! is the degree-2k
    part of prod_l (1 + tau_l)."""
    factors = [{(): ONE, **wedge_expand([{i: -c for i, c in first.items()}, second], 2)}
               for first, second in zip(ones[::2], ones[1::2])]
    return wedge_expand(factors, 2 * k)


class FormElement:
    __slots__ = ("components", "ambient", "truncation")

    def __init__(self, components: Dict[DzIndex, Poly], ambient: SymplecticData,
                 truncation: Optional[int] = None):
        clean: Dict[DzIndex, Poly] = {}
        for idx, poly in components.items():
            if list(idx) != sorted(set(idx)):
                raise ValueError("dz indices must be strictly increasing")
            if idx and (idx[0] < 1 or idx[-1] > 2 * ambient.n):
                raise ValueError(f"dz indices must lie in 1..2n, got {idx}")
            if truncation is not None:
                poly = poly.truncate(truncation)
            if not poly.is_zero():
                clean[idx] = poly
        self.components = clean
        self.ambient = ambient
        self.truncation = truncation

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_poly(poly: Poly, ambient: SymplecticData,
                  truncation: Optional[int] = None) -> "FormElement":
        return FormElement({(): poly}, ambient, truncation)

    @staticmethod
    def from_weyl(a: WeylElement) -> "FormElement":
        return FormElement({(): a.poly}, a.ambient, a.truncation)

    @staticmethod
    def dz(indices: Iterable[int], ambient: SymplecticData) -> "FormElement":
        return FormElement({tuple(indices): Poly.one()}, ambient)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.components

    def component(self, idx: DzIndex) -> Poly:
        return self.components.get(tuple(idx), Poly.zero())

    def degree(self) -> int:
        if not self.components:
            return 0
        return max(p.degree() for p in self.components.values())

    def __add__(self, other: "FormElement") -> "FormElement":
        _check_ambient(self, other)
        t = _min_trunc(self.truncation, other.truncation)
        out = dict(self.components)
        for idx, poly in other.components.items():
            out[idx] = out.get(idx, Poly.zero()) + poly
        return FormElement(out, self.ambient, t)

    def __sub__(self, other: "FormElement") -> "FormElement":
        return self + (-other)

    def __neg__(self) -> "FormElement":
        return FormElement({i: -p for i, p in self.components.items()},
                           self.ambient, self.truncation)

    def scale(self, c: Scalar) -> "FormElement":
        return FormElement({i: p.scale(c) for i, p in self.components.items()},
                           self.ambient, self.truncation)

    def __mul__(self, other) -> "FormElement":
        return form_star(self, other)

    def __rmul__(self, other) -> "FormElement":
        return form_star(other, self)

    def restrict(self, truncation: Optional[int]) -> "FormElement":
        t = _min_trunc(self.truncation, truncation)
        return FormElement(self.components, self.ambient, t)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FormElement)
                and self.ambient == other.ambient
                and self.truncation == other.truncation
                and self.components == other.components)

    def lowest_term(self) -> Tuple[int, "FormElement"]:
        """The lowest-degree term of a nonzero self, on its dz index."""
        degree, term, idx = min(((*p.lowest_term(), idx)
                                 for idx, p in self.components.items()),
                                key=lambda t: t[0])
        return degree, FormElement({idx: term}, self.ambient)

    def __str__(self) -> str:
        if not self.components:
            return "0"
        parts = []
        for idx in sorted(self.components):
            dz = "^".join(f"dz{i}" for i in idx) or "1"
            parts.append(f"[{self.components[idx]}] {dz}")
        tail = f" (trunc<={self.truncation})" if self.truncation is not None else ""
        return " + ".join(parts) + tail

    __repr__ = __str__


def _as_form(x) -> FormElement:
    return x if isinstance(x, FormElement) else FormElement.from_weyl(x)


def form_star(a, b, caps: Optional[Tuple[int, int]] = None) -> FormElement:
    """Star-exterior product; at most one factor may carry a truncation.

    caps = (z_cap, total_cap), for a left factor without Z, keeps only the
    terms of Z-degree <= z_cap and total degree <= total_cap (see
    weyl._walk)."""
    a, b = _as_form(a), _as_form(b)
    _check_ambient(a, b)
    out_trunc = _star_truncation(a, b)
    out: Dict[DzIndex, Poly] = {}
    for i1, p1 in a.components.items():
        for i2, p2 in b.components.items():
            merged = wedge_merge(i1, i2)
            if merged is None:
                continue
            sign, idx = merged
            prod = _star_kernel(p1, p2, a.ambient, caps)
            if sign < 0:
                prod = -prod
            out[idx] = out.get(idx, Poly.zero()) + prod
    return FormElement(out, a.ambient, out_trunc)


def ext_d(a: FormElement) -> FormElement:
    """Exterior differential dz^i ^ d/dz^i (no Hochschild-degree sign here)."""
    out: Dict[DzIndex, Poly] = {}
    size = 2 * a.ambient.n
    for idx, poly in a.components.items():
        for i in range(1, size + 1):
            if i in idx:
                continue
            dp = poly.diff(Z, i)
            if dp.is_zero():
                continue
            merged = wedge_merge((i,), idx)
            assert merged is not None
            sign, nidx = merged
            if sign < 0:
                dp = -dp
            out[nidx] = out.get(nidx, Poly.zero()) + dp
    t = None if a.truncation is None else a.truncation - 1
    return FormElement(out, a.ambient, t)


def homotopy_s(a: FormElement) -> FormElement:
    """Radial contraction homotopy in closed form; zero on 0-forms.

    A term of z-degree k in a q-form gets the weight 1/(k+q), the value of
    the unit-interval integral of t^(k+q-1).  Stripping the r-th dz index
    (counted from 0) multiplies it by that z variable with sign (-1)^r.
    """
    out: Dict[DzIndex, Poly] = {}
    for idx, poly in a.components.items():
        q = len(idx)
        if q == 0:
            continue
        weighted = Poly({m: c.scale_fraction(1, q + mono_z_degree(m))
                         for m, c in poly.terms.items()})
        for r, i in enumerate(idx):
            part = (-weighted if r % 2 else weighted).times_variable(Z, i)
            rest = idx[:r] + idx[r + 1:]
            out[rest] = out.get(rest, Poly.zero()) + part
    t = None if a.truncation is None else a.truncation + 1
    return FormElement(out, a.ambient, t)


def proj_p(a: FormElement) -> FormElement:
    """The z-constant part of the 0-form component (complement of sd + ds)."""
    zero_part = a.components.get((), Poly.zero()).set_bank_zero(Z)
    return FormElement({(): zero_part}, a.ambient, a.truncation)
