"""The Weyl algebra: its ambient, the star product, involution, supertrace
and the bilinear form built from it.

The ambient (SymplecticData) is one datum per n: the canonical bivector pi,
with pi^{2k-1,2k} = 1 = -pi^{2k,2k-1}, and the two-form omega = pi^-1 = -pi.
Every other symplectic form is a linear change of generators (apply_matrix),
so it adds no cocycle, class or pairing.  Elements are polynomials in the Y
bank under the exponential-bidifferential star product

    a * b = a exp( i <-d_j  pi^{jk} ->d_k ) b ,

which terminates because a is polynomial.  The generators then satisfy
y^j y^k - y^k y^j = 2 i pi^{jk}.

A dual-space element (a formal power series paired against polynomials) is a
WeylElement carrying a truncation marker: every stored term of total degree
<= truncation is exact, everything above is unknown and never stored.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import or_
from typing import List, Optional, Tuple

from .errors import AmbientMismatchError, BudgetError
from .poly import (DEGREES, MAX_EXPONENT, MAX_INDEX, Poly, Y, _offset, index_mask,
                   mono_degree, mono_z_degree, variable_key)
from .scalars import I, ONE, ZERO, Scalar

Matrix = Tuple[Tuple[Scalar, ...], ...]


class SymplecticData:
    """The canonical ambient of rank n: pi, omega = -pi, the key of y_j and
    its exponent field at index j of ykeys and yfields (0 at index 0), and
    the bits foreign to it, all but those of y_1 .. y_2n and the degree
    fields.  Equality and hashing read n."""

    __slots__ = ("n", "pi", "omega", "ykeys", "yfields", "foreign")

    def __init__(self, n: int):
        size = 2 * n
        self.n = n
        self.ykeys = (0,) + tuple(variable_key(Y, j) for j in range(1, size + 1))
        self.yfields = (0,) + tuple(MAX_EXPONENT << _offset(Y, j) for j in range(1, size + 1))
        self.foreign = ~(index_mask(size, Y) | DEGREES)
        # Row j's one entry sits at its partner j ^ 1 (0-based): in pi, + for
        # the first of a pair and - for the second; omega's is its negative.
        pi, omega = [], []
        for j in range(size):
            row = [ZERO] * size
            row[j ^ 1] = -ONE if j % 2 else ONE
            pi.append(tuple(row))
            row[j ^ 1] = -row[j ^ 1]
            omega.append(tuple(row))
        self.pi, self.omega = tuple(pi), tuple(omega)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self.n == other.n

    def __hash__(self):
        return hash(self.n)

    @staticmethod
    @lru_cache(maxsize=None)
    def canonical(n: int) -> "SymplecticData":
        """The ambient of rank n; a constant per n."""
        return SymplecticData(n)


class WeylElement:
    """A polynomial (or truncated series) in the Y bank over a fixed ambient.

    Elements are immutable: `key()` and `degree()` are computed on first use
    and kept.
    """

    __slots__ = ("poly", "ambient", "truncation", "_key", "_degree")

    def __init__(self, poly: Poly, ambient: SymplecticData,
                 truncation: Optional[int] = None):
        foreign = ambient.foreign
        if any(m & foreign for m in poly.terms):
            if any(map(mono_z_degree, poly.terms)):
                raise ValueError("WeylElement must involve only Y-bank variables")
            raise ValueError("variable index exceeds 2n")
        if truncation is not None:
            poly = poly.truncate(truncation)
        self.poly = poly
        self.ambient = ambient
        self.truncation = truncation
        self._key = self._degree = None

    # -- constructors --------------------------------------------------

    @staticmethod
    def one(ambient: SymplecticData) -> "WeylElement":
        return WeylElement(Poly.one(), ambient)

    @staticmethod
    def generator(j: int, ambient: SymplecticData) -> "WeylElement":
        return WeylElement(Poly.variable(Y, j), ambient)

    # -- structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def degree(self) -> int:
        if self._degree is None:
            self._degree = self.poly.degree()
        return self._degree

    def restrict(self, truncation: Optional[int]) -> "WeylElement":
        if truncation is None:
            return self
        t = truncation if self.truncation is None else min(self.truncation, truncation)
        return WeylElement(self.poly, self.ambient, t)

    def apply_matrix(self, matrix) -> "WeylElement":
        """Linear substitution y_j -> sum_k matrix[j][k] y_k."""
        return WeylElement(self.poly.linear_subst(Y, matrix), self.ambient,
                           self.truncation)

    def __add__(self, other: "WeylElement") -> "WeylElement":
        _check_ambient(self, other)
        t = _min_trunc(self.truncation, other.truncation)
        return WeylElement(self.poly + other.poly, self.ambient, t)

    def __sub__(self, other: "WeylElement") -> "WeylElement":
        return self + (-other)

    def __neg__(self) -> "WeylElement":
        return WeylElement(-self.poly, self.ambient, self.truncation)

    def scale(self, c: Scalar) -> "WeylElement":
        return WeylElement(self.poly.scale(c), self.ambient, self.truncation)

    def __mul__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return star(self, other)

    def __eq__(self, other) -> bool:
        return (isinstance(other, WeylElement)
                and self.ambient == other.ambient
                and self.truncation == other.truncation
                and self.poly == other.poly)

    def key(self) -> tuple:
        """Hashable canonical view of the value, for memoization."""
        if self._key is None:
            self._key = (self.ambient.n, self.truncation, self.poly.key())
        return self._key

    def lowest_term(self) -> Tuple[int, "WeylElement"]:
        degree, term = self.poly.lowest_term()
        return degree, WeylElement(term, self.ambient)

    def __str__(self) -> str:
        tail = f" (trunc<={self.truncation})" if self.truncation is not None else ""
        return f"{self.poly}{tail}"

    __repr__ = __str__

    def to_json(self) -> dict:
        obj = {"n": self.ambient.n}
        obj.update(self.poly.to_json())
        if self.truncation is not None:
            obj["truncation"] = self.truncation
        return obj


def ambient_from_json(obj) -> SymplecticData:
    """The canonical ambient named by a payload's "n"; ValueError unless an int
    in 1..MAX_INDEX // 2, the n whose y_1 .. y_2n all have a key field."""
    n = obj.get("n") if isinstance(obj, dict) else None
    if type(n) is not int or not 1 <= n <= MAX_INDEX // 2:
        raise ValueError(f"n must be an integer in 1..{MAX_INDEX // 2}, got {n!r}")
    return SymplecticData.canonical(n)


def _check_ambient(a, b) -> None:
    if a.ambient != b.ambient:
        raise AmbientMismatchError("elements live over different symplectic data")


def _min_trunc(t1: Optional[int], t2: Optional[int]) -> Optional[int]:
    if t1 is None:
        return t2
    if t2 is None:
        return t1
    return min(t1, t2)


def _star_truncation(a, b) -> Optional[int]:
    """Truncation of a * b (Weyl elements or forms): one factor's, less the
    other's degree; at most one factor may carry a truncation."""
    if a.truncation is not None and b.truncation is not None:
        raise BudgetError("star of two truncated factors is not exact")
    if a.truncation is not None:
        out = a.truncation - b.degree()
    elif b.truncation is not None:
        out = b.truncation - a.degree()
    else:
        return None
    if out < 0:
        raise BudgetError("truncation too small for this star product")
    return out


def star(a: WeylElement, b: WeylElement) -> WeylElement:
    """Exact star product; at most one factor may carry a truncation."""
    _check_ambient(a, b)
    t = _star_truncation(a, b)
    return WeylElement(_star_kernel(a.poly, b.poly, a.ambient), a.ambient, t)


def _walk(p: Poly, q: Poly, sym: SymplecticData,
          caps: Optional[Tuple[int, int]] = None):
    """The star expansion of p against q, one multi-index gamma at a time:
    yields the key of y^gamma, d_y^gamma p, the unsigned right derivative
    and the coefficient whose product is i^|gamma| / gamma! (pi D)^gamma q,
    the products summing to p * q, and whether d_y^gamma p mixes degrees
    under a cut (below).  D = d_y + d_z, which is d_y on a q without Z.  The
    gammas form a tree, pruned as soon as either side dies: a node takes
    the derivatives only of the variables its left factor holds (the OR of
    its keys).

    With caps = (z_cap, total_cap) and p without Z, only what can make a
    term of Z-degree <= z_cap and total degree <= total_cap is kept.  Below
    a node whose left factor has degree D at most D derivatives act, each
    lowering a right term's degree by one and its Z-degree by at most one,
    so each right derivative is made to the caps plus D.  A product term
    adds at least the left factor's lowest degree to its right term's, so
    the yielded right factor is cut to (z_cap, total_cap less that degree):
    the root's q is cut, a derived leaf (D = 0) is made inside the caps.
    Where the left factor has several degrees, the products of its higher
    ones may pass the total cap, and the flag says so: the caller cuts those
    products to total_cap as it sums them (Poly.mul_into).  They never pass
    z_cap, since p has no Z and the right factor is cut to it.
    """
    if p.is_zero() or q.is_zero():
        return
    ykeys, yfields = sym.ykeys, sym.yfields
    # Per node: the degrees of its left factor, or None for no cut.
    degrees = None if caps is None else set(map(mono_degree, p.terms))
    stack = [(1, 0, p, q, ONE, degrees)]
    while stack:
        j0, key, dp, dq, coeff, degrees = stack.pop()
        cut = dq if degrees is None else dq.capped(caps[0], caps[1] - min(degrees))
        if cut:
            yield key, dp, cut, coeff, degrees is not None and len(degrees) > 1
        support = reduce(or_, dp.terms)
        for j in range(j0, len(ykeys)):
            if not support & yfields[j]:
                continue
            # Row j of pi D is +-D at j's partner in its pair (2k - 1, 2k),
            # + for odd j; the sign goes into the node coefficient.
            partner = j + 1 if j % 2 else j - 1
            ck, cp, cq, cc = key, dp, dq, coeff
            order = 0
            while True:
                cp = cp.diff(Y, j)
                if cp.is_zero():
                    break
                if caps is None:
                    cq = cq.directional_diff(partner)
                else:
                    degrees = set(map(mono_degree, cp.terms))
                    slack = max(degrees)
                    cq = cq.directional_diff(partner, (caps[0] + slack, caps[1] + slack))
                    degrees = degrees if slack else None
                if cq.is_zero():
                    break
                order += 1
                ck += ykeys[j]
                cc = (cc * (I if j % 2 else -I)).scale_fraction(1, order)
                stack.append((j + 1, ck, cp, cq, cc, degrees))


def _star_kernel(p: Poly, q: Poly, sym: SymplecticData,
                 caps: Optional[Tuple[int, int]] = None) -> Poly:
    """Shared expansion for the Weyl and form star products: `_walk`'s
    products, summed into one term map; with caps = (z_cap, total_cap),
    only the terms of Z-degree <= z_cap and total degree <= total_cap."""
    acc: dict = {}
    for _, dp, dq, coeff, mixed in _walk(p, q, sym, caps):
        # Scale the shorter factor, so each product term costs one multiply.
        if coeff != ONE:
            if len(dp.terms) <= len(dq.terms):
                dp = dp.scale(coeff)
            else:
                dq = dq.scale(coeff)
        # The right factor is cut for the left's lowest degree: the products
        # of its higher ones are cut to the total cap as they are summed.
        dp.mul_into(dq, acc, caps[1] if mixed else None)
    return Poly(acc)


def involution(a: WeylElement) -> WeylElement:
    """The automorphism a(y) -> a(-y): the terms of odd degree change sign."""
    return WeylElement(Poly({m: -c if mono_degree(m) % 2 else c
                             for m, c in a.poly.terms.items()}), a.ambient, a.truncation)


def supertrace(a: WeylElement) -> Scalar:
    """Evaluation at y = 0."""
    return a.poly.constant_term()


def bform(a: WeylElement, b: WeylElement) -> Scalar:
    """B(a, b) = str(a * b); exact when the truncations cover the degrees."""
    _check_ambient(a, b)
    return supertrace(star(a, b))


def _exponent_vectors(nvars: int, total: int):
    if nvars == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _exponent_vectors(nvars - 1, total - head):
            yield (head,) + rest


def monomials_upto(sym: SymplecticData, max_degree: int) -> List[WeylElement]:
    """All Y-bank monomials of total degree <= max_degree (coefficient 1)."""
    size = 2 * sym.n
    out = []
    for total in range(max_degree + 1):
        for exps in _exponent_vectors(size, total):
            out.append(WeylElement(
                Poly.monomial([(Y, i + 1, e) for i, e in enumerate(exps) if e]),
                sym))
    return out

