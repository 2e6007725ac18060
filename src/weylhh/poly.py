"""Sparse multivariate polynomials over Gaussian rationals, in banked variables.

Two variable banks exist:

  Y  -- generators of the noncommutative algebra (index 1..2n),
  Z  -- the auxiliary commuting variables carried by differential forms.

Every integral the package needs has a closed form (the homotopy weight
1/(k+q), the simplex and unit-square moments), so no integration variable is
ever introduced.

A monomial is a sorted tuple of (bank, index, exponent) triples; a polynomial
is a map from monomials to nonzero Scalar coefficients.  Values are treated
as immutable after construction, so one value may be read from several
threads; the package's memo caches (ffs `_symbol_cache` and `_op_cache`,
`GaussianGenerator._expansions`, each `SuffixCache`) are unsynchronised.

Serialization uses a graded-lex term order over (bank, index) so that equal
polynomials always produce byte-identical JSON.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from .scalars import ONE, ZERO, Scalar

Y = "Y"
Z = "Z"

_BANK_ORDER = {Y: 0, Z: 1}

Mono = Tuple[Tuple[str, int, int], ...]


def _mono_sorted(triples: Iterable[Tuple[str, int, int]]) -> Mono:
    exps: Dict[Tuple[str, int], int] = {}
    for bank, idx, exp in triples:
        if exp:
            exps[(bank, idx)] = exps.get((bank, idx), 0) + exp
    return tuple(sorted(
        ((b, i, e) for (b, i), e in exps.items() if e),
        key=lambda t: (_BANK_ORDER[t[0]], t[1]),
    ))


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    """Merge two canonical monomials (linear merge of sorted triples)."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        b1, x1, e1 = m1[i]
        b2, x2, e2 = m2[j]
        k1 = (_BANK_ORDER[b1], x1)
        k2 = (_BANK_ORDER[b2], x2)
        if k1 == k2:
            out.append((b1, x1, e1 + e2))
            i += 1
            j += 1
        elif k1 < k2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def _mono_degree(m: Mono) -> int:
    return sum(e for _, _, e in m)


def _mono_key(m: Mono) -> tuple:
    return (_mono_degree(m), tuple((_BANK_ORDER[b], i, e) for b, i, e in m))


def _exp_from_json(e) -> Tuple[str, int, int]:
    if (isinstance(e, list) and len(e) == 3 and isinstance(e[0], str)
            and e[0] in _BANK_ORDER
            and all(type(x) is int and x >= 1 for x in e[1:])):
        return e[0], e[1], e[2]
    raise ValueError(
        f"exponent entry must be [bank, index >= 1, exponent >= 1], got {e!r}")


class Poly:
    """A sparse polynomial; zero coefficients are never stored."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[Mono, Scalar]] = None):
        self.terms: Dict[Mono, Scalar] = terms if terms is not None else {}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def const(c: Scalar) -> "Poly":
        if c.is_zero():
            return Poly()
        return Poly({(): c})

    @staticmethod
    def one() -> "Poly":
        return Poly({(): ONE})

    @staticmethod
    def variable(bank: str, index: int, coeff: Scalar = ONE) -> "Poly":
        if coeff.is_zero():
            return Poly()
        return Poly({((bank, index, 1),): coeff})

    @staticmethod
    def monomial(triples: Iterable[Tuple[str, int, int]], coeff: Scalar = ONE) -> "Poly":
        if coeff.is_zero():
            return Poly()
        return Poly({_mono_sorted(triples): coeff})

    # -- predicates and measures ------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self) -> int:
        """Total degree across all banks; zero polynomial reports 0."""
        if not self.terms:
            return 0
        return max(_mono_degree(m) for m in self.terms)

    def has_bank(self, bank: str) -> bool:
        return any(b == bank for m in self.terms for b, _, _ in m)

    def max_index(self, bank: str) -> int:
        idxs = [i for m in self.terms for b, i, _ in m if b == bank]
        return max(idxs) if idxs else 0

    def constant_term(self) -> Scalar:
        return self.terms.get((), ZERO)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s.is_zero():
                    del out[m]
                else:
                    out[m] = s
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def scale(self, c: Scalar) -> "Poly":
        if c.is_zero():
            return Poly()
        return Poly({m: cc * c for m, cc in self.terms.items()})

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Scalar):
            return self.scale(other)
        out: Dict[Mono, Scalar] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                c = c1 * c2
                s = out.get(m)
                if s is None:
                    out[m] = c
                else:
                    s = s + c
                    if s.is_zero():
                        del out[m]
                    else:
                        out[m] = s
        return Poly(out)

    def __pow__(self, k: int) -> "Poly":
        out = Poly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def key(self) -> tuple:
        """Hashable canonical view, for memoization."""
        return tuple(sorted(self.terms.items(), key=lambda kv: _mono_key(kv[0])))

    # -- calculus ----------------------------------------------------------

    def diff(self, bank: str, index: int) -> "Poly":
        """Partial derivative; lowering one exponent keeps the monomial canonical."""
        out: Dict[Mono, Scalar] = {}
        for m, c in self.terms.items():
            for pos, (b, i, e) in enumerate(m):
                if i == index and b == bank:
                    if e == 1:
                        out[m[:pos] + m[pos + 1:]] = c
                    else:
                        out[m[:pos] + ((b, i, e - 1),) + m[pos + 1:]] = c.scale_fraction(e)
                    break
        return Poly(out)

    def set_bank_zero(self, bank: str) -> "Poly":
        """Evaluate all variables of the bank at 0."""
        return Poly({m: c for m, c in self.terms.items()
                     if not any(b == bank for b, _, _ in m)})

    def flip_signs(self, banks: Sequence[str]) -> "Poly":
        """Substitute v -> -v for every variable of the given banks."""
        bankset = set(banks)
        out = {}
        for m, c in self.terms.items():
            d = sum(e for b, _, e in m if b in bankset)
            out[m] = -c if d % 2 else c
        return Poly(out)

    def linear_subst(self, bank: str, matrix: Sequence[Sequence[Scalar]]) -> "Poly":
        """Substitute v_j -> sum_k matrix[j][k] * v_k within one bank.

        Indices are 1-based against the matrix rows/columns.
        """
        images: Dict[int, Poly] = {}

        def image(j: int) -> Poly:
            if j not in images:
                row = matrix[j - 1]
                p = Poly()
                for k, c in enumerate(row, start=1):
                    if not c.is_zero():
                        p = p + Poly.variable(bank, k, c)
                images[j] = p
            return images[j]

        pow_cache: Dict[Tuple[int, int], Poly] = {}

        def image_pow(j: int, e: int) -> Poly:
            key = (j, e)
            if key not in pow_cache:
                pow_cache[key] = image(j) ** e
            return pow_cache[key]

        out = Poly()
        for m, c in self.terms.items():
            factor = Poly.const(c)
            for b, i, e in m:
                if b == bank:
                    factor = factor * image_pow(i, e)
                else:
                    factor = factor * Poly.monomial([(b, i, e)])
            out = out + factor
        return out

    def truncate(self, max_degree: Optional[int]) -> "Poly":
        """Drop every term of total degree above max_degree."""
        if max_degree is None:
            return self
        return Poly({m: c for m, c in self.terms.items()
                     if _mono_degree(m) <= max_degree})

    def homogeneous_part(self, degree: int) -> "Poly":
        return Poly({m: c for m, c in self.terms.items()
                     if _mono_degree(m) == degree})

    def exp_quadratic(self, degree: int) -> "Poly":
        """exp(self) through total degree `degree`, for self homogeneous of
        degree 2: the sum of self^k / k! over 2k <= degree."""
        acc = term = Poly.one()
        for k in range(1, degree // 2 + 1):
            term = (term * self).scale(Scalar.rational(1, k))
            acc = acc + term
        return acc

    # -- serialization -----------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _mono_key(kv[0]))

    def to_json(self) -> dict:
        return {"terms": [
            {"coeff": c.to_json(), "exps": [[b, i, e] for b, i, e in m]}
            for m, c in self.sorted_terms()
        ]}

    @staticmethod
    def from_json(obj) -> "Poly":
        """Parse the JSON form, summing repeated monomials; ValueError if malformed."""
        if not isinstance(obj, dict) or not isinstance(obj.get("terms"), list):
            raise ValueError(f"polynomial must be {{'terms': [...]}}, got {obj!r}")
        out: Dict[Mono, Scalar] = {}
        for t in obj["terms"]:
            if not isinstance(t, dict) or not isinstance(t.get("exps"), list):
                raise ValueError(f"term must be {{'coeff': ..., 'exps': [...]}}, got {t!r}")
            coeff = Scalar.from_json(t.get("coeff"))
            m = _mono_sorted(_exp_from_json(e) for e in t["exps"])
            s = out.get(m)
            out[m] = coeff if s is None else s + coeff
        return Poly({m: c for m, c in out.items() if not c.is_zero()})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            factors = "".join(
                f"{b.lower()}{i}" + (f"^{e}" if e > 1 else "")
                for b, i, e in m
            )
            parts.append(f"({c}){factors}" if factors else f"({c})")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"
