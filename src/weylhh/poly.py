"""Sparse multivariate polynomials over Gaussian rationals, in banked variables.

Two variable banks exist:

  Y  -- generators of the noncommutative algebra (index 1..2n),
  Z  -- the auxiliary commuting variables carried by differential forms.

Every integral the package needs has a closed form (the homotopy weight
1/(k+q), the simplex and unit-square moments), so no integration variable is
ever introduced.

A monomial is one int key.  Its two low 18-bit fields hold the total
degree (bits [0, 18)) and the Z-degree (bits [18, 36)); above them each
variable has an 8-bit exponent field: y_i owns field 2(i-1) and z_i field
2(i-1)+1, field f being bits [36 + 8f, 36 + 8f + 8).  With 8-bit exponents
a degree is at most 2 * 512 * 255 < 2^18, so a degree field never carries.

Who keeps the degrees: a variable's key (variable_key) is a unit in its
exponent field and in its degrees, so the sum of two keys is the key of
their product, both degrees summed, and a difference is a quotient
(Monagan-Pearce packing).  Every key sum of a product is made in
Poly.mul_into (behind Poly.__mul__) or Poly.times_variable, whose guards
refuse an exponent field that would reach 256 with a ValueError instead of
letting it carry into its neighbour; mul_into also cuts a product to a
total degree.  Poly.diff and directional_diff subtract the variable's key.
So mono_degree, mono_z_degree and every cap test (mul_into's cut, truncate,
capped, directional_diff's caps) are a mask and a compare.  A product is
cut in z only through its right factor (capped and directional_diff's
caps, in weyl._walk), since every cut left factor is free of z.

Who strips and recomputes them: index_mask and the bank masks keep
exponent fields and no degree (DEGREES is both degree fields), so a key
split by a mask has lost its degrees.  _key, mono_lcm, rename and
linear_subst rebuild them from the exponent fields; ffs's split of an
operator key puts back its known output degree.  No other module reads the
layout: they use mono_degree, mono_z_degree, mono_factorial, mono_divides,
mono_lcm, rename, variable_key, index_mask, DEGREES and _offset (a field's
lowest bit).

A polynomial is a map from keys to nonzero Scalar coefficients.  Values are
treated as immutable after construction, so one value may be read from
several threads; the package's memo caches (the ffs value memos that
ffs.clear_memos empties, `GaussianGenerator._expansions` and
`_suffix_caches`, each `SuffixCache`) are unsynchronised.

Constructors and serialization speak (bank, index, exponent) triples;
serialization unpacks the keys and sorts them in a graded-lex order over
(bank, index), so equal polynomials always produce byte-identical JSON.
"""

from __future__ import annotations

from itertools import zip_longest
from math import factorial, prod
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .scalars import ONE, ZERO, Scalar

Y = "Y"
Z = "Z"

Mono = Tuple[Tuple[str, int, int], ...]

_BITS = 8
MAX_EXPONENT = (1 << _BITS) - 1
MAX_INDEX = 512
# The width of each degree field: no degree passes 2 * MAX_INDEX * 255 < 2^18.
_DEG_BITS = 18
_DEGREE = (1 << _DEG_BITS) - 1
# The lowest bit of the first exponent field; the two degree fields below it.
_LOW = 2 * _DEG_BITS
DEGREES = (1 << _LOW) - 1
_FIELD_BITS = 2 * _BITS * MAX_INDEX
# The lowest bit of every exponent field but the first: a key sum that sets
# one of these bits beyond what its operands had there carried out of a field.
_CARRIES = sum(1 << (_LOW + _BITS * f) for f in range(1, 2 * MAX_INDEX + 1))
# The highest bit of every exponent field: two fields below 128 cannot carry.
_HIGH = _CARRIES >> 1
_BANK_MASK = {Y: sum(MAX_EXPONENT << (_LOW + 2 * _BITS * i) for i in range(MAX_INDEX))}
_BANK_MASK[Z] = _BANK_MASK[Y] << _BITS


def _offset(bank: str, index: int) -> int:
    """The lowest bit of the variable's exponent field."""
    if bank not in _BANK_MASK or not 1 <= index <= MAX_INDEX:
        raise ValueError(f"no variable {bank!r}{index!r}: banks are Y and Z, "
                         f"indices 1..{MAX_INDEX}")
    return _LOW + _BITS * (2 * (index - 1) + (bank == Z))


def variable_key(bank: str, index: int) -> int:
    """The key of one variable: a unit in its field and in its degrees."""
    return (1 << _offset(bank, index)) + ((bank == Z) << _DEG_BITS) + 1


def _bytes(key: int) -> bytes:
    """The exponent fields of a key, field 0 first."""
    key >>= _LOW
    return key.to_bytes((key.bit_length() + 7) >> 3, "little")


def _with_degrees(fields: int) -> int:
    """The key whose exponent fields are `fields` (field 0 at bit 0)."""
    b = fields.to_bytes((fields.bit_length() + 7) >> 3, "little")
    return fields << _LOW | sum(b[1::2]) << _DEG_BITS | sum(b)


def mono_degree(key: int) -> int:
    """Total degree of a monomial key."""
    return key & _DEGREE


def mono_z_degree(key: int) -> int:
    """Degree of a monomial key in the Z bank."""
    return key >> _DEG_BITS & _DEGREE


def mono_factorial(key: int) -> int:
    """The product of the factorials of a monomial key's exponents."""
    return prod(map(factorial, _bytes(key)))


def mono_divides(a: int, b: int) -> bool:
    """Whether monomial key a divides b: every field of a is at most b's."""
    # b - a borrows out of an exponent field wherever a's field is the
    # larger, and nowhere when every field of a (and so each of its degrees)
    # is at most b's; a borrow shows as a carry of d + a = b (out of the top
    # field, as a negative d).
    d = b - a
    return d >= 0 and not (d ^ a ^ b) & _CARRIES


def mono_lcm(a: int, b: int) -> int:
    """The least common multiple of two monomial keys: their fieldwise maximum."""
    return _with_degrees(int.from_bytes(
        bytes(map(max, zip_longest(_bytes(a), _bytes(b), fillvalue=0))), "little"))


def rename(key: int, src: str, dst: str, offset: int) -> int:
    """The src-bank part of a monomial key with each variable v_i renamed to
    the dst-bank variable of index i + offset; those renamed below index 1
    are dropped."""
    bits = 2 * _BITS * offset + _BITS * ((dst == Z) - (src == Z))
    fields = (key & _BANK_MASK[src]) >> _LOW
    if bits < 0:
        return _with_degrees(fields >> -bits)
    fields <<= bits
    if fields.bit_length() > _FIELD_BITS:
        raise ValueError(f"variable index renamed past {MAX_INDEX}")
    return _with_degrees(fields)


def index_mask(count: int, bank: str) -> int:
    """The exponent fields of the bank's variables of index 1..count (no
    degree field)."""
    return _BANK_MASK[bank] & ((1 << (_LOW + 2 * _BITS * count)) - 1)


def _key(triples: Iterable[Tuple[str, int, int]]) -> int:
    exps: Dict[int, int] = {}
    degree = z_degree = 0
    for bank, index, exp in triples:
        off = _offset(bank, index)
        exps[off] = exps.get(off, 0) + exp
        degree += exp
        if bank == Z:
            z_degree += exp
    for e in exps.values():
        if not 0 <= e <= MAX_EXPONENT:
            raise ValueError(f"exponent {e} does not fit an {_BITS}-bit field")
    return sum(e << off for off, e in exps.items()) + (z_degree << _DEG_BITS) + degree


def _triples(key: int) -> Mono:
    """The (bank, index, exponent) triples of a key, Y before Z, by index."""
    b = _bytes(key)
    return (tuple((Y, i, e) for i, e in enumerate(b[0::2], start=1) if e)
            + tuple((Z, i, e) for i, e in enumerate(b[1::2], start=1) if e))


def linear_images(bank: str, matrix: Sequence[Sequence[Scalar]]) -> List["Poly"]:
    """The image sum_k matrix[j][k] * v_k of each variable v_j of the bank,
    in row order (indices 1-based against the rows and columns)."""
    return [Poly({variable_key(bank, k): c for k, c in enumerate(row, start=1)
                  if not c.is_zero()}) for row in matrix]


def _graded_lex(triples: Mono) -> tuple:
    return (sum(e for _, _, e in triples),
            tuple((b == Z, i, e) for b, i, e in triples))


def _exp_from_json(e) -> Tuple[str, int, int]:
    if (isinstance(e, list) and len(e) == 3 and isinstance(e[0], str)
            and e[0] in _BANK_MASK
            and all(type(x) is int and x >= 1 for x in e[1:])):
        return e[0], e[1], e[2]
    raise ValueError(
        f"exponent entry must be [bank, index >= 1, exponent >= 1], got {e!r}")


class Poly:
    """A sparse polynomial; zero coefficients are never stored."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[int, Scalar]] = None):
        if terms is None:
            terms = {}
        elif () in terms:
            # (), the constant monomial of the earlier triple-tuple keys, is
            # still how code outside the package may write a constant term.
            rest = dict(terms)
            const = Poly.const(rest.pop(()))
            terms = (const + Poly(rest)).terms
        self.terms: Dict[int, Scalar] = terms

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def const(c: Scalar) -> "Poly":
        if c.is_zero():
            return Poly()
        return Poly({0: c})

    @staticmethod
    def one() -> "Poly":
        return Poly({0: ONE})

    @staticmethod
    def variable(bank: str, index: int, coeff: Scalar = ONE) -> "Poly":
        if coeff.is_zero():
            return Poly()
        return Poly({variable_key(bank, index): coeff})

    @staticmethod
    def monomial(triples: Iterable[Tuple[str, int, int]], coeff: Scalar = ONE) -> "Poly":
        if coeff.is_zero():
            return Poly()
        return Poly({_key(triples): coeff})

    # -- predicates and measures ------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self) -> int:
        """Total degree across all banks; zero polynomial reports 0."""
        if not self.terms:
            return 0
        return max(map(mono_degree, self.terms))

    def constant_term(self) -> Scalar:
        return self.terms.get(0, ZERO)

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

    def __mul__(self, other: "Poly") -> "Poly":
        return Poly(self.mul_into(other, {}))

    def mul_into(self, other: "Poly", out: Dict[int, Scalar],
                 max_degree: Optional[int] = None) -> Dict[int, Scalar]:
        """Add the terms of self * other to the term map out, and return it;
        with max_degree, only those of total degree up to it, each cut before
        its coefficient is made."""
        # Only a factor with a field of 128 or more can make a sum carry, so
        # the exact test runs just for the terms where one does.
        high = any(m & _HIGH for m in other.terms)
        for m1, c1 in self.terms.items():
            check = high or m1 & _HIGH
            for m2, c2 in other.terms.items():
                m = m1 + m2
                if check and (m ^ m1 ^ m2) & _CARRIES:
                    raise ValueError(
                        f"{Poly({m1: c1})} times {Poly({m2: c2})} overflows "
                        f"the {_BITS}-bit exponent field")
                if max_degree is not None and m & _DEGREE > max_degree:
                    continue
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
        return out

    def pooled(self, pool: Dict[object, object]) -> "Poly":
        """self, term for term, with each key int and coefficient the pool's
        one object equal to it (pool.setdefault(x, x)): what a cache keeps
        holds each distinct value once."""
        get = pool.setdefault
        return Poly({get(m, m): get(c, c) for m, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def key(self) -> tuple:
        """Hashable canonical view, for memoization."""
        return tuple(sorted(self.terms.items()))

    # -- calculus ----------------------------------------------------------

    def diff(self, bank: str, index: int) -> "Poly":
        """Partial derivative: lower the variable's field and its degrees by one."""
        unit = variable_key(bank, index)
        off = unit.bit_length() - 1  # its field's unit is the key's top bit
        out: Dict[int, Scalar] = {}
        for m, c in self.terms.items():
            e = (m >> off) & MAX_EXPONENT
            if e:
                out[m - unit] = c if e == 1 else c.scale_fraction(e)
        return Poly(out)

    def directional_diff(self, index: int,
                         caps: Optional[Tuple[int, int]] = None) -> "Poly":
        """d/dy_index self + d/dz_index self, in one pass.

        With caps = (z_cap, total_cap) only the output terms of Z-degree
        <= z_cap and total degree <= total_cap are made: a derivative lowers
        a term's total degree by one, and its Z-degree by one exactly when it
        is the z derivative.
        """
        ky, kz = variable_key(Y, index), variable_key(Z, index)
        # The unit of a variable's field is its key's top bit.
        parts = ((ky.bit_length() - 1, ky, False), (kz.bit_length() - 1, kz, True))
        out: Dict[int, Scalar] = {}
        for m, cm in self.terms.items():
            # need: how many Z's this term's derivative must drop to fit z_cap.
            need = 0
            if caps is not None:
                need = (m >> _DEG_BITS & _DEGREE) - caps[0]
                if need > 1 or m & _DEGREE > caps[1] + 1:
                    continue
            for off, unit, in_z in parts:
                e = (m >> off) & MAX_EXPONENT
                if not e or in_z < need:
                    continue
                d = cm if e == 1 else cm.scale_fraction(e)
                k = m - unit
                s = out.get(k)
                if s is None:
                    out[k] = d
                else:
                    s = s + d
                    if s:
                        out[k] = s
                    else:
                        del out[k]
        return Poly(out)

    def set_bank_zero(self, bank: str) -> "Poly":
        """Evaluate all variables of the bank at 0."""
        mask = _BANK_MASK[bank]
        return Poly({m: c for m, c in self.terms.items() if not m & mask})

    def linear_subst(self, bank: str, matrix: Sequence[Sequence[Scalar]]) -> "Poly":
        """Substitute v_j -> sum_k matrix[j][k] * v_k within one bank.

        Indices are 1-based against the matrix rows/columns.
        """
        images = linear_images(bank, matrix)
        out = Poly()
        for m, c in self.terms.items():
            moved = rename(m, bank, bank, 0)  # the bank's part, with its degrees
            factor = Poly({m - moved: c})
            for _, i, e in _triples(moved):
                for _ in range(e):
                    factor = factor * images[i - 1]
            out = out + factor
        return out

    def truncate(self, max_degree: Optional[int]) -> "Poly":
        """Drop every term of total degree above max_degree; self when none is."""
        if max_degree is None or all(m & _DEGREE <= max_degree for m in self.terms):
            return self
        return Poly({m: c for m, c in self.terms.items() if m & _DEGREE <= max_degree})

    def capped(self, z_cap: int, total_cap: int) -> "Poly":
        """The terms of Z-degree <= z_cap and total degree <= total_cap."""
        return Poly({m: c for m, c in self.terms.items()
                     if m & _DEGREE <= total_cap and m >> _DEG_BITS & _DEGREE <= z_cap})

    def times_variable(self, bank: str, index: int) -> "Poly":
        """self times one variable, a key sum per term; ValueError, as in
        mul_into, where its exponent field would reach 256."""
        unit = variable_key(bank, index)
        off = unit.bit_length() - 1
        if any(m >> off & MAX_EXPONENT == MAX_EXPONENT for m in self.terms):
            raise ValueError(f"{self} times {bank.lower()}{index} overflows "
                             f"the {_BITS}-bit exponent field")
        return Poly({m + unit: c for m, c in self.terms.items()})

    def lowest_term(self) -> Tuple[int, "Poly"]:
        """The first term of a nonzero self in graded-lex order, and its degree."""
        m = min(self.terms, key=lambda k: _graded_lex(_triples(k)))
        return mono_degree(m), Poly({m: self.terms[m]})

    def exp_quadratic(self, degree: int) -> "Poly":
        """exp(self) through total degree `degree`, for self homogeneous of
        degree 2: the sum of self^k / k! over 2k <= degree."""
        acc = term = Poly.one()
        for k in range(1, degree // 2 + 1):
            term = (term * self).scale(Scalar.rational(1, k))
            acc = acc + term
        return acc

    # -- serialization -----------------------------------------------------

    def triple_terms(self) -> Dict[Mono, Scalar]:
        """The terms keyed by (bank, index, exponent) triples, in graded-lex order."""
        items = [(_triples(m), c) for m, c in self.terms.items()]
        return dict(sorted(items, key=lambda kv: _graded_lex(kv[0])))

    def to_json(self) -> dict:
        return {"terms": [
            {"coeff": c.to_json(), "exps": [[b, i, e] for b, i, e in m]}
            for m, c in self.triple_terms().items()
        ]}

    @staticmethod
    def from_json(obj) -> "Poly":
        """Parse the JSON form, summing repeated monomials; ValueError if malformed."""
        if not isinstance(obj, dict) or not isinstance(obj.get("terms"), list):
            raise ValueError(f"polynomial must be {{'terms': [...]}}, got {obj!r}")
        out: Dict[int, Scalar] = {}
        for t in obj["terms"]:
            if not isinstance(t, dict) or not isinstance(t.get("exps"), list):
                raise ValueError(f"term must be {{'coeff': ..., 'exps': [...]}}, got {t!r}")
            coeff = Scalar.from_json(t.get("coeff"))
            m = _key(_exp_from_json(e) for e in t["exps"])
            s = out.get(m)
            out[m] = coeff if s is None else s + coeff
        return Poly({m: c for m, c in out.items() if not c.is_zero()})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.triple_terms().items():
            factors = "".join(
                f"{b.lower()}{i}" + (f"^{e}" if e > 1 else "")
                for b, i, e in m
            )
            parts.append(f"({c}){factors}" if factors else f"({c})")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"
