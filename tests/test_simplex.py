import random
from fractions import Fraction

import pytest

from weylhh import linalg
from weylhh.errors import DegenerateSimplexError, NonGenericConfigError
from weylhh.simplex import fuzz, random_config, tid_check

from oracles import as_coboundary, delta, leibniz_det, random_symplectic, standard_form

F = Fraction


def test_pinned_values():
    config = [(F(1), F(0)), (F(-1), F(1)), (F(-1), F(-1))]
    assert delta(config) == 1
    assert delta([config[0], config[2], config[1]]) == -1
    shifted = [(F(1), F(0)), (F(2), F(1)), (F(3), F(-1))]
    assert delta(shifted) == 0


def test_degenerate_and_boundary_are_errors():
    with pytest.raises(DegenerateSimplexError):
        delta([(F(0), F(0)), (F(1), F(0)), (F(2), F(0))])
    with pytest.raises(DegenerateSimplexError):
        # origin on the edge between the first two vertices
        delta([(F(1), F(0)), (F(-1), F(0)), (F(0), F(1))])


def reference_delta(points):
    """delta by one Fraction elimination of [points as columns; ones | e_last]
    for the barycentric coordinates of the origin, and det M by Leibniz's
    formula for the sign."""
    dim = len(points[0])
    rows = [[p[i] for p in points] + [F(0)] for i in range(dim)]
    rows.append([F(1)] * (dim + 2))
    reduced, rank = linalg.row_reduce(rows, dim + 1)
    if rank <= dim:
        raise DegenerateSimplexError("degenerate simplex")
    bary = [r[-1] for r in reduced]
    if any(b == 0 for b in bary):
        raise DegenerateSimplexError("origin lies on a facet")
    if any(b < 0 for b in bary):
        return 0
    sign = 1 if leibniz_det([r[:dim + 1] for r in rows]) > 0 else -1
    return -sign if dim % 2 else sign


def outcome(fn, points):
    try:
        return fn(points)
    except DegenerateSimplexError as exc:
        return str(exc)


def test_delta_matches_fraction_reference():
    # Small coordinates over a few denominators make degenerate simplices
    # and origins on a facet common enough to compare the errors too.
    rng = random.Random(110)
    seen = set()
    for _ in range(2000):
        dim = rng.randint(1, 4)
        points = [tuple(F(rng.randint(-2, 2), rng.choice((1, 3, 7, rng.randint(1, 8))))
                        for _ in range(dim)) for _ in range(dim + 1)]
        value = outcome(delta, points)
        assert value == outcome(reference_delta, points)
        seen.add(value)
    assert seen == {0, 1, -1, "degenerate simplex", "origin lies on a facet"}


def test_origin_on_facet_with_mixed_denominators():
    # Dimension 2: the origin splits the edge from v0 to v1 = -2 v0.
    v0 = (F(1, 3), F(1, 7))
    triangle = [v0, (F(-2, 3), F(-2, 7)), (F(1, 7), F(-5, 3))]
    # Dimension 3: the origin is the centroid of the face (v0, v1, v2).
    u0, u1 = (F(1, 3), F(2, 7), F(0)), (F(-2, 7), F(1, 3), F(1, 3))
    u2 = tuple(-a - b for a, b in zip(u0, u1))
    tetrahedron = [u0, u1, u2, (F(1, 7), F(1, 3), F(5, 7))]
    for points in (triangle, tetrahedron):
        assert outcome(reference_delta, points) == "origin lies on a facet"
        with pytest.raises(DegenerateSimplexError, match="origin lies on a facet"):
            delta(points)
        with pytest.raises(DegenerateSimplexError, match="origin lies on a facet"):
            delta(points[::-1])


def test_degenerate_with_fractional_coordinates():
    # Three points on the line through (1/3, 1/7) along (10/21, 1/7).
    points = [(F(1, 3), F(1, 7)), (F(17, 21), F(2, 7)), (F(9, 7), F(3, 7))]
    assert outcome(reference_delta, points) == "degenerate simplex"
    with pytest.raises(DegenerateSimplexError, match="degenerate simplex"):
        delta(points)


def facetwise_tid(points):
    """The identity facet by facet: delta on each facet, in order."""
    try:
        return as_coboundary(lambda *p: delta(p), points) == 0
    except DegenerateSimplexError as exc:
        raise NonGenericConfigError(str(exc))


def tid_outcome(fn, points):
    try:
        return fn(points)
    except NonGenericConfigError as exc:
        return str(exc)


def test_tid_check_matches_facetwise_delta():
    # Small integer coordinates make degenerate facets and origins on a
    # facet common: the shared minors must refuse exactly the
    # configurations some facet refuses, with the first facet's reason.
    rng = random.Random(111)
    seen = set()
    for dim, count in ((2, 400), (4, 200)):
        for _ in range(count):
            points = [tuple(F(rng.randint(-2, 2)) for _ in range(dim))
                      for _ in range(dim + 2)]
            value = tid_outcome(tid_check, points)
            assert value == tid_outcome(facetwise_tid, points)
            seen.add((dim, value))
    assert seen == {(dim, value) for dim in (2, 4)
                    for value in (True, "degenerate simplex", "origin lies on a facet")}


def test_mixed_dimensions_are_refused():
    with pytest.raises(ValueError, match="differ in dimension"):
        delta([(F(-1),), (F(1), F(5))])
    with pytest.raises(ValueError, match="differ in dimension"):
        tid_check([(F(-1),), (F(1),), (F(3), F(2))])


def test_wrong_point_count_is_refused():
    with pytest.raises(ValueError, match="need 3 points in dimension 2"):
        delta([(F(1), F(0)), (F(-1), F(1))])


def test_antisymmetry_sampled():
    rng = random.Random(101)
    done = 0
    while done < 100:
        config = random_config(rng, 2, 3)
        try:
            base = delta(config)
        except DegenerateSimplexError:
            continue
        for i in range(2):
            swapped = list(config)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            assert delta(swapped) == -base
        done += 1


def test_sp_invariance_sampled():
    rng = random.Random(102)
    for dim in (2, 4):
        j = standard_form(dim)
        done = 0
        while done < 30:
            a = random_symplectic(rng, dim)
            at = linalg.mat_transpose(a)
            assert linalg.mat_mul(at, linalg.mat_mul(j, a)) == j
            config = random_config(rng, dim, dim + 1)
            try:
                before = delta(config)
                after = delta(linalg.mat_mul(config, at))
            except DegenerateSimplexError:
                continue
            assert before == after
            done += 1


def test_support_translation():
    rng = random.Random(103)
    shift = (F(10 ** 6), F(10 ** 6))
    done = 0
    while done < 30:
        config = random_config(rng, 2, 3)
        moved = [tuple(c + s for c, s in zip(v, shift)) for v in config]
        try:
            assert delta(moved) == 0
        except DegenerateSimplexError:
            continue
        done += 1


def test_nonzero_implies_origin_inside():
    rng = random.Random(104)
    seen_nonzero = 0
    while seen_nonzero < 20:
        config = random_config(rng, 2, 3)
        try:
            v = delta(config)
        except DegenerateSimplexError:
            continue
        if v == 0:
            continue
        seen_nonzero += 1
        # strictly inside: all barycentric weights positive means every
        # reflected sub-simplex keeps the same orientation sign
        assert v in (1, -1)


def test_coboundary_squares_to_zero():
    rng = random.Random(105)
    values = {}

    def phi(*pts):
        return values.setdefault(pts, rng.randint(-5, 5))

    for _ in range(20):
        config = random_config(rng, 2, 4)
        ddphi = as_coboundary(lambda *p: as_coboundary(phi, p), config)
        assert ddphi == 0


def test_constant_function_coboundary_parity():
    config = random_config(random.Random(106), 2, 4)
    # alternating sum of a constant over 4 facets cancels pairwise
    assert as_coboundary(lambda *p: 7, config) == 0
    config5 = random_config(random.Random(107), 2, 5)
    assert as_coboundary(lambda *p: 7, config5) == 7


def test_delta_is_coboundary_of_delta_w():
    rng = random.Random(108)
    done = 0
    while done < 100:
        config = random_config(rng, 2, 3)
        w = (F(997), F(631))
        try:
            lhs = delta(config)
            rhs = as_coboundary(lambda *pts: delta([w, *pts]), config)
        except DegenerateSimplexError:
            continue
        assert lhs == rhs
        done += 1


def test_tid_identity_dim2():
    report = fuzz(2, 300, seed=11)
    assert report["failed"] == 0
    assert report["passed"] == 300


def test_tid_identity_dim4():
    report = fuzz(4, 60, seed=12)
    assert report["failed"] == 0


def test_tid_termwise_sp_invariance():
    rng = random.Random(109)
    done = 0
    while done < 10:
        config = random_config(rng, 2, 4)
        a = random_symplectic(rng, 2)
        moved = linalg.mat_mul(config, linalg.mat_transpose(a))
        try:
            originals = [delta(config[:k] + config[k + 1:]) for k in range(4)]
            transformed = [delta(moved[:k] + moved[k + 1:]) for k in range(4)]
        except DegenerateSimplexError:
            continue
        assert originals == transformed
        done += 1


def test_non_invariance_witness_pinned():
    # delta with w prepended is not symplectically invariant: the triangle
    # (w, v0, v1) straddles the origin; after the quarter-turn it does not.
    w = (F(10), F(0))
    config = [(F(-5), F(1)), (F(-5), F(-1))]
    rotate = ((F(0), F(1)), (F(-1), F(0)))
    assert delta([w, *config]) == 1
    assert delta([w, *linalg.mat_mul(config, linalg.mat_transpose(rotate))]) == 0


def test_nongeneric_resample_signal():
    degenerate = [(F(0), F(0)), (F(1), F(0)), (F(2), F(0)), (F(3), F(0))]
    with pytest.raises(NonGenericConfigError):
        tid_check(degenerate)


def test_leading_sign_matches_symbol_family():
    # The characteristic function evaluated on the pinned vector family
    # (v, v+c1, v+c1+c2) is nonzero exactly on a triangle whose orientation
    # sign and area reproduce the degree-one value of the integral-symbol
    # cocycle on linear arguments with those coefficient vectors.
    from weylhh.ffs import cached_symbol, ffs_apply
    from weylhh.poly import Poly, Y
    from weylhh.scalars import Scalar
    from weylhh.weyl import SymplecticData, WeylElement

    sym = SymplecticData.canonical(1)
    symbol = cached_symbol(1, 2)
    family = [
        ((F(1), F(0)), (F(0), F(1))),
        ((F(2), F(1)), (F(-1), F(1))),
        ((F(1), F(3)), (F(2), F(-1))),
        ((F(0), F(-2)), (F(3), F(1))),
    ]
    for c1, c2 in family:
        det = c1[0] * c2[1] - c1[1] * c2[0]
        lin1 = WeylElement(Poly.variable(Y, 1, Scalar.of(c1[0]))
                           + Poly.variable(Y, 2, Scalar.of(c1[1])), sym)
        lin2 = WeylElement(Poly.variable(Y, 1, Scalar.of(c2[0]))
                           + Poly.variable(Y, 2, Scalar.of(c2[1])), sym)
        value = ffs_apply(symbol, [lin1, lin2]).poly.constant_term()
        assert value == Scalar.of(det / 2)
        # interior sample of the support triangle carries the same sign
        v = tuple(-(2 * a + b) / 3 for a, b in zip(c1, c2))
        config = [v,
                  tuple(x + a for x, a in zip(v, c1)),
                  tuple(x + a + b for x, a, b in zip(v, c1, c2))]
        assert delta(config) == (1 if det > 0 else -1)
        # far outside the triangle the function vanishes
        far = tuple(x + F(10 ** 4) for x in v)
        far_config = [far,
                      tuple(x + a for x, a in zip(far, c1)),
                      tuple(x + a + b for x, a, b in zip(far, c1, c2))]
        assert delta(far_config) == 0
