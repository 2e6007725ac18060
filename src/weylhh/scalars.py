"""Exact Gaussian-rational scalars.

A scalar is (re_num + im_num*i) / den, stored as the integer triple
(re_num, im_num, den) in canonical form:

    den > 0  and  gcd(re_num, im_num, den) == 1.

Every value has exactly one such triple (zero is (0, 0, 1)), so equality and
hashing are those of the triple: structural, with no normalisation at compare
time.  Each operation does plain integer arithmetic and restores the form with
one three-way gcd.  The JSON form and the text reduce each part on its own.

This is the coefficient field for every other module; nothing downstream
touches floating point.  Values are immutable tuples.
"""

from __future__ import annotations

from math import gcd

_new = tuple.__new__


def _reduced(re: int, im: int, den: int) -> "Scalar":
    """The canonical triple of (re + im*i)/den, for den > 0."""
    if den == 1:
        return _new(Scalar, (re, im, 1))
    g = gcd(re, im, den)
    if g == 1:
        return _new(Scalar, (re, im, den))
    return _new(Scalar, (re // g, im // g, den // g))


def _canonical(re: int, im: int, den: int) -> "Scalar":
    if den == 0:
        raise ValueError("zero denominator")
    if den < 0:
        re, im, den = -re, -im, -den
    return _reduced(re, im, den)


def _rational_parts(x) -> tuple:
    num, den = getattr(x, "numerator", None), getattr(x, "denominator", None)
    if isinstance(num, int) and isinstance(den, int):
        return num, den
    raise ValueError(f"scalar part must be an int or a Fraction, got {x!r}")


def fraction_text(num: int, den: int) -> str:
    """num/den for den > 0, in lowest terms: "n/d", or "n" for a whole number."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _json_integer(x) -> int:
    if isinstance(x, str) or type(x) is int:
        try:
            return int(x)
        except ValueError:
            pass
    raise ValueError(f"scalar part {x!r} is not an integer")


def _json_fraction(part) -> tuple:
    if not isinstance(part, list) or len(part) != 2:
        raise ValueError(f"scalar part must be [numerator, denominator], got {part!r}")
    num, den = _json_integer(part[0]), _json_integer(part[1])
    if den == 0:
        raise ValueError(f"zero denominator in scalar part {part!r}")
    return num, den


def _unordered(self, other):
    return NotImplemented


class Scalar(tuple):
    """(re_num + im_num*i) / den as its canonical integer triple.  Scalar(re, im)
    takes each part as an int or a value with int numerator and denominator."""

    __slots__ = ()

    def __new__(cls, re=0, im=0) -> "Scalar":
        rn, rd = _rational_parts(re)
        in_, id_ = _rational_parts(im)
        return _reduced(rn * id_, in_ * rd, rd * id_)

    @staticmethod
    def of(re=0, im=0) -> "Scalar":
        return Scalar(re, im)

    @staticmethod
    def rational(num: int, den: int = 1) -> "Scalar":
        if not isinstance(num, int) or not isinstance(den, int):
            raise ValueError(f"rational({num!r}, {den!r}) needs integers")
        return _canonical(num, 0, den)

    def __add__(self, other: "Scalar") -> "Scalar":
        a1, b1, d1 = self
        a2, b2, d2 = other
        if d1 == d2:
            return _reduced(a1 + a2, b1 + b2, d1)
        return _reduced(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)

    def __sub__(self, other: "Scalar") -> "Scalar":
        a1, b1, d1 = self
        a2, b2, d2 = other
        if d1 == d2:
            return _reduced(a1 - a2, b1 - b2, d1)
        return _reduced(a1 * d2 - a2 * d1, b1 * d2 - b2 * d1, d1 * d2)

    def __neg__(self) -> "Scalar":
        a, b, d = self
        return _new(Scalar, (-a, -b, d))

    def __mul__(self, other: "Scalar") -> "Scalar":
        a1, b1, d1 = self
        a2, b2, d2 = other
        # Purely real/imaginary factors dominate in practice; skip the dead
        # products for them.
        if b1:
            if b2:
                re, im = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
            else:
                re, im = a1 * a2, b1 * a2
        else:
            re, im = a1 * a2, a1 * b2
        # _reduced, inlined: this is the hottest call in the package.
        d = d1 * d2
        if d == 1:
            return _new(Scalar, (re, im, 1))
        g = gcd(re, im, d)
        if g == 1:
            return _new(Scalar, (re, im, d))
        return _new(Scalar, (re // g, im // g, d // g))

    def __truediv__(self, other: "Scalar") -> "Scalar":
        a1, b1, d1 = self
        a2, b2, d2 = other
        norm = a2 * a2 + b2 * b2
        if norm == 0:
            raise ZeroDivisionError("division by zero Scalar")
        return _reduced((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2,
                        d1 * norm)

    def __pow__(self, k: int) -> "Scalar":
        if k < 0:
            return ONE / (self ** (-k))
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # Tuple repetition and ordering mean nothing for a field element.
    __rmul__ = __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def scale_fraction(self, num: int, den: int = 1) -> "Scalar":
        """self * num / den for ints num and den: the one rational scaling
        path (callers scale by k or 1/k!)."""
        a, b, d = self
        if den > 0:
            return _reduced(a * num, b * num, d * den)
        if den == 0:
            raise ZeroDivisionError("scaling by 1/0")
        return _reduced(-a * num, -b * num, -d * den)

    def is_zero(self) -> bool:
        return self[0] == 0 and self[1] == 0

    def __bool__(self) -> bool:
        return self[0] != 0 or self[1] != 0

    def __str__(self) -> str:
        a, b, d = self
        if not b:
            return fraction_text(a, d)
        if not a:
            return f"{fraction_text(b, d)}i"
        sign = "+" if b > 0 else "-"
        return f"{fraction_text(a, d)}{sign}{fraction_text(abs(b), d)}i"

    def __repr__(self) -> str:
        return f"Scalar({self})"

    def __reduce__(self):
        return (_reduced, tuple(self))

    def to_json(self) -> dict:
        a, b, d = self
        g, h = gcd(a, d), gcd(b, d)
        return {"re": [str(a // g), str(d // g)],
                "im": [str(b // h), str(d // h)]}

    @staticmethod
    def from_json(obj) -> "Scalar":
        if not isinstance(obj, dict) or "re" not in obj or "im" not in obj:
            raise ValueError(f"scalar must be {{'re': [n, d], 'im': [n, d]}}, got {obj!r}")
        rn, rd = _json_fraction(obj["re"])
        in_, id_ = _json_fraction(obj["im"])
        return _canonical(rn * id_, in_ * rd, rd * id_)


ZERO = Scalar.of(0)
ONE = Scalar.of(1)
I = Scalar.of(0, 1)
