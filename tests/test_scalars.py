import json
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from weylhh.scalars import I, ONE, ZERO, Scalar

from oracles import parts


def test_basic_products():
    assert (ONE + I) * (ONE - I) == Scalar.of(2)
    assert I * I == -ONE


def test_division_verified_by_remultiplication():
    # (1/2 + i) / i, checked by multiplying back rather than trusting a value.
    q = (Scalar.of(Fraction(1, 2)) + I) / I
    assert q * I == Scalar.of(Fraction(1, 2)) + I
    assert q == Scalar(Fraction(1), Fraction(-1, 2))


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_field_axioms_sampled():
    rng = random.Random(1)

    def pick():
        return Scalar.of(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                         Fraction(rng.randint(-9, 9), rng.randint(1, 5)))

    for _ in range(100):
        a, b, c = pick(), pick(), pick()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not b.is_zero():
            assert (a / b) * b == a


def test_lowest_terms_invariant():
    s = Scalar.of(Fraction(2, 4), Fraction(-6, 8))
    re, im = parts(s)
    assert re.denominator == 2 and re.numerator == 1
    assert im.denominator == 4 and im.numerator == -3


def test_pow():
    assert I ** 2 == -ONE
    assert I ** -1 == -I


def test_json_roundtrip():
    s = Scalar.of(Fraction(-3, 7), Fraction(5, 2))
    assert Scalar.from_json(s.to_json()) == s
    assert s.to_json() == {"re": ["-3", "7"], "im": ["5", "2"]}


# -- properties against a plain (Fraction, Fraction) reference ----------------

fractions = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
pairs = st.tuples(fractions, fractions)
small_ints = st.integers(-10**4, 10**4)
nonzero_ints = small_ints.filter(bool)


def build(ref):
    return Scalar(*ref)


def assert_matches(x, ref):
    re_num, im_num, den = x
    assert den > 0 and gcd(re_num, im_num, den) == 1
    assert parts(x) == ref


def ref_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def ref_div(a, b):
    norm = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / norm, (a[1] * b[0] - a[0] * b[1]) / norm)


@given(pairs, pairs)
def test_arithmetic_matches_reference(a, b):
    x, y = build(a), build(b)
    assert_matches(x, a)
    assert_matches(x + y, (a[0] + b[0], a[1] + b[1]))
    assert_matches(x - y, (a[0] - b[0], a[1] - b[1]))
    assert_matches(x * y, ref_mul(a, b))
    assert_matches(-x, (-a[0], -a[1]))
    if b != (0, 0):
        assert_matches(x / y, ref_div(a, b))
    else:
        with pytest.raises(ZeroDivisionError):
            x / y


@given(pairs, st.integers(-5, 6))
def test_pow_matches_reference(a, k):
    x = build(a)
    if k < 0 and a == (0, 0):
        with pytest.raises(ZeroDivisionError):
            x ** k
        return
    ref = (Fraction(1), Fraction(0))
    for _ in range(abs(k)):
        ref = ref_mul(ref, a)
    if k < 0:
        ref = ref_div((Fraction(1), Fraction(0)), ref)
    assert_matches(x ** k, ref)


@given(pairs, fractions, small_ints, nonzero_ints)
def test_scale_fraction_matches_reference(a, f, k, den):
    x = build(a)
    assert_matches(x.scale_fraction(f.numerator, f.denominator), (a[0] * f, a[1] * f))
    assert_matches(x.scale_fraction(k), (a[0] * k, a[1] * k))
    q = Fraction(k, den)
    assert_matches(x.scale_fraction(k, den), (a[0] * q, a[1] * q))
    with pytest.raises(ZeroDivisionError):
        x.scale_fraction(k, 0)


@given(pairs, pairs, nonzero_ints)
def test_equal_values_are_equal_and_hash_equal(a, b, k):
    x, y = build(a), build(b)
    routes = [x, (x + y) - y, x.scale_fraction(k).scale_fraction(1, k),
              Scalar(*parts(x)), Scalar.from_json(x.to_json()),
              pickle.loads(pickle.dumps(x))]
    for r in routes:
        assert r == x and hash(r) == hash(x)
    assert (x == y) == (a == b)


@given(pairs)
def test_json_matches_reference_bytes(a):
    x = build(a)
    ref = {"re": [str(a[0].numerator), str(a[0].denominator)],
           "im": [str(a[1].numerator), str(a[1].denominator)]}
    assert json.dumps(x.to_json()) == json.dumps(ref)
    assert Scalar.from_json(x.to_json()) == x
    assert str(x) == str(Scalar.of(a[0], a[1]))


def ref_text(ref):
    """A Scalar's text as the Fractions of its parts print: "re", "imi" or
    "re+imi" / "re-|im|i"."""
    re, im = ref
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}i"


@given(pairs, small_ints)
def test_text_matches_fraction_rendering(a, k):
    re, im = abs(a[0]), abs(a[1])
    zero = Fraction(0)
    for ref in (a, (Fraction(k), zero), (zero, im), (zero, -im), (-re, zero),
                (-re, im), (re, -im), (-re, -im)):
        assert str(build(ref)) == ref_text(ref)


@given(pairs, small_ints, nonzero_ints, small_ints, nonzero_ints)
def test_from_json_unreduced_parts(a, rn, rd, in_, id_):
    x = Scalar.from_json({"re": [str(rn), str(rd)], "im": [str(in_), str(id_)]})
    assert_matches(x, (Fraction(rn, rd), Fraction(in_, id_)))


@pytest.mark.parametrize("obj", [
    {"re": ["1", "0"], "im": ["0", "1"]},
    {"re": ["1", "1"], "im": ["0", "0"]},
    {"re": ["1.5", "1"], "im": ["0", "1"]},
    {"re": [1.5, 1], "im": [0, 1]},
    {"re": [True, 1], "im": [0, 1]},
    {"re": ["1", "2", "3"], "im": ["0", "1"]},
    {"re": "12", "im": ["0", "1"]},
    {"re": ["1", "1"]},
    ["1", "1"],
    None,
])
def test_from_json_rejects_malformed(obj):
    with pytest.raises(ValueError):
        Scalar.from_json(obj)


def test_constructors_reject_bad_parts():
    for bad in (0.5, "1", None):
        with pytest.raises(ValueError):
            Scalar(bad)
    with pytest.raises(ValueError):
        Scalar.rational(1, 0)
    with pytest.raises(ValueError, match="needs integers"):
        Scalar.rational(1.5)
    assert Scalar.rational(2, -4) == Scalar(Fraction(-1, 2))


def test_not_a_sequence_of_parts():
    # Tuple repetition and ordering are refused rather than silently applied.
    with pytest.raises(TypeError):
        2 * ONE
    with pytest.raises(TypeError):
        ONE < I
