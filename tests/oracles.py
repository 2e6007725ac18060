"""Oracles the tests compare the package against; no command runs them.

Each reads the package function it checks off that function's module at
call time (simplex._sign_rule, groups.theta_element, forms.ext_d, ...), so a
mutant that tests/test_mutants.py installs there is the one it runs.

Cochain-level exterior operators carry the Koszul sign (-1)^arity: this is
what makes d anticommute with the Hochschild differential and the homotopy
anticommute with d2.  Value-level operators (used by the descent
construction) are the undressed ones from the forms module.
"""

import functools
import itertools
from fractions import Fraction
from math import factorial, prod

from weylhh import ffs, forms, groups, linalg, simplex
from weylhh.hochschild import Cochain
from weylhh.poly import (DEGREES, MAX_EXPONENT, Poly, Y, index_mask, mono_divides, mono_lcm,
                         rename)
from weylhh.scalars import I, ONE, ZERO, Scalar
from weylhh.weyl import WeylElement, bform, involution, monomials_upto, star


def delta(points):
    """delta of the simplex the points span: _sign_rule on the minors of P."""
    rows = simplex._integer_rows(points, len(points[0]) + 1)
    return simplex._sign_rule([linalg.int_det([r[:k] + r[k + 1:] for r in rows])
                               for k in range(len(points))])


def as_coboundary(phi, points):
    """Alternating sum of the integer-valued phi over the facets of the points."""
    return sum((-1) ** k * phi(*(points[:k] + points[k + 1:])) for k in range(len(points)))


def cycle_sign(perm):
    """(-1)^(n - number of cycles), counted by walking each cycle."""
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return -1 if (len(perm) - cycles) % 2 else 1


def leibniz_det(a):
    """The determinant of a square matrix over any exact field, as the signed
    sum of its n! permutation products."""
    n = len(a)
    total = None
    for perm in itertools.permutations(range(n)):
        term = a[0][perm[0]]
        for i in range(1, n):
            term = term * a[i][perm[i]]
        if cycle_sign(perm) < 0:
            term = -term
        total = term if total is None else total + term
    return total


def kfold_sector_volume(rows, form, k):
    """The k-th wedge power, over k!, of sum_{i<j} form_ij r^i r^j for the
    one-forms r^i = sum_l rows[i][l] e^(l+1), keyed by index tuples: the
    product of k two-forms made whole, exponential in k.  Its wedge signs
    come from cycle_sign, not from the forms module."""
    def wedge(a, b):
        out = {}
        for i1, c1 in a.items():
            for i2, c2 in b.items():
                merged = i1 + i2
                if len(set(merged)) < len(merged):
                    continue
                order = sorted(range(len(merged)), key=merged.__getitem__)
                c = c1 * c2 if cycle_sign(order) > 0 else -(c1 * c2)
                key = tuple(sorted(merged))
                out[key] = out.get(key, ZERO) + c
        return {idx: c for idx, c in out.items() if not c.is_zero()}

    ones = [{(l + 1,): c for l, c in enumerate(row) if not c.is_zero()} for row in rows]
    two_form = {}
    for i, j in itertools.combinations(range(len(ones)), 2):
        for idx, c in wedge(ones[i], ones[j]).items():
            two_form[idx] = two_form.get(idx, ZERO) + form[i][j] * c
    power = {(): ONE}
    for _ in range(k):
        power = wedge(power, {idx: c for idx, c in two_form.items() if not c.is_zero()})
    scale = Scalar.rational(1, factorial(k))
    return {idx: c * scale for idx, c in power.items()}


def permutation_det(sym, box):
    """det(p_1 .. p_2n) as the signed sum of its (2n)! permutation terms
    prod_mu d/dy_mu^sigma(mu), kept where the term's key divides box (all
    of them for None).  Its signs come from cycle_sign."""
    m = 2 * sym.n
    terms = {}
    for perm in itertools.permutations(range(m)):
        key = sum(ffs._copy_var(mu, k + 1, sym.n) for mu, k in enumerate(perm, start=1))
        if box is None or mono_divides(key, box):
            terms[key] = ONE if cycle_sign(perm) > 0 else -ONE
    return Poly(terms)


def filtered_monos(m, need):
    """The W-monomials of ffs._monos_for(m, need) by filtering a full product:
    every vector of slot-pair counts c_ij (1 <= i < j <= m) up to what both
    slots hold, kept where each c_0k = need_k - 1 - sum_j c_kj is >= 0, in
    the lexicographic order of (c_01 .. c_0m, c_12 .. c_(m-1)m)."""
    inner = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    left = [d - 1 for d in need]
    found = []
    for counts in itertools.product(*(range(min(left[i - 1], left[j - 1]) + 1)
                                      for i, j in inner)):
        rest = list(left)
        for (i, j), c in zip(inner, counts):
            rest[i - 1] -= c
            rest[j - 1] -= c
        if min(rest) >= 0:
            found.append(tuple(rest) + counts)
    pairs = [(0, k) for k in range(1, m + 1)] + inner
    return tuple(tuple((pair, c) for pair, c in zip(pairs, counts) if c)
                 for counts in sorted(found))


def simplex_moment(exponents):
    """Exact integral of u_1^a1 ... u_m^am over 0 <= u_1 <= ... <= u_m <= 1."""
    den = 1
    prefix = 0
    for k, a in enumerate(exponents, start=1):
        prefix += a
        den *= prefix + k
    return Scalar.rational(1, den)


def expanded_coefficient(mono, m):
    """The symbol coefficient of a W-monomial by the whole expansion: the
    product of its factors 1 + 2 u_i - 2 u_j (u_0 = 0) multiplied out in
    u_1 .. u_m, then one simplex moment per u-monomial, times
    i^order / prod count!."""
    poly = {(0,) * m: 1}
    for (i, j), count in mono:
        slopes = ([(i - 1, 2)] if i else []) + [(j - 1, -2)]
        for _ in range(count):
            out = dict(poly)
            for e, c in poly.items():
                for at, s in slopes:
                    key = tuple(x + (k == at) for k, x in enumerate(e))
                    out[key] = out.get(key, 0) + s * c
            poly = out
    total = ZERO
    for e, c in poly.items():
        total = total + simplex_moment(e).scale_fraction(c)
    order = sum(c for _, c in mono)
    return (total * I ** order).scale_fraction(1, prod(factorial(c) for _, c in mono))


def random_symplectic(rng, dim):
    """A product of four random symmetric shears, each keeping standard_form(dim)."""
    n = dim // 2
    mat = [[Fraction(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(4):
        kind = rng.randrange(2)
        shear = [[Fraction(i == j) for j in range(dim)] for i in range(dim)]
        for i in range(n):
            for j in range(i, n):
                c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                shear[i][n + j] = shear[j][n + i] = c
        mat = linalg.mat_mul(mat, linalg.mat_transpose(shear) if kind else shear)
    return mat


def full_box(need, n):
    """The copy key with need[mu - 1] on every field of slot mu: every copy
    key of an operator with these slot degrees divides it.  Fields are
    capped at MAX_EXPONENT, which no product field passes."""
    ones = index_mask(2 * n, Y) // MAX_EXPONENT
    return sum(rename(ones * min(d, MAX_EXPONENT), Y, *ffs._copy(mu, n))
               for mu, d in enumerate(need, start=1))


def copy_box(args):
    """The box ffs._operator_product builds for args: the lcm of each
    argument's keys on its copy, with the output fields and the degrees."""
    n = len(args) // 2
    bound = sum(functools.reduce(mono_lcm, [rename(k, Y, *ffs._copy(mu, n))
                                            for k in a.poly.terms])
                for mu, a in enumerate(args, start=1))
    return bound | index_mask(2 * n, Y) | DEGREES


def parts(s):
    """The real and imaginary parts of a Scalar, as Fractions."""
    re_num, im_num, den = s
    return Fraction(re_num, den), Fraction(im_num, den)


def standard_form(dim):
    """The block form matrix J with J[i][n+i] = 1 and J[n+i][i] = -1."""
    n = dim // 2
    return tuple(tuple(Fraction((j == i + n) - (i == j + n)) for j in range(dim))
                 for i in range(dim))


def parity_parts(a):
    """The even and odd parts (a + a*)/2 and (a - a*)/2 under y -> -y."""
    half = Scalar.rational(1, 2)
    return (a + involution(a)).scale(half), (a - involution(a)).scale(half)


def gram_rank_upto(sym, max_degree):
    """Exact rank of the B-Gram matrix on monomials of degree <= bound, and their number."""
    monos = monomials_upto(sym, max_degree)
    gram = tuple(tuple(bform(m1, m2) for m2 in monos) for m1 in monos)
    return linalg.mat_rank(gram), len(monos)


def invariance_defect(gen, j, degree):
    """b * gen - gen * twist(b) for the j-th generator b, to truncation."""
    b = WeylElement.generator(j, gen.ambient)
    expanded = gen.expand(degree)
    return b * expanded - expanded * gen.twist(b)


def cochain_ext_d(f):
    """Exterior differential on form-valued cochains, (-1)^arity dressed."""
    sign = Scalar.of((-1) ** f.arity)
    return f.map_values(lambda v: forms.ext_d(v).scale(sign))


def cochain_s(f):
    """Contraction homotopy on form-valued cochains, (-1)^arity dressed."""
    sign = Scalar.of((-1) ** f.arity)
    return f.map_values(lambda v: forms.homotopy_s(v).scale(sign))


def theta_equation_defects(ambient, g, truncation):
    """Residuals of Theta's star equations for each generator y_j: of
    Theta * v + (v o g) * Theta for its moved part v = y_j - y_j Q, and of
    Theta * w - w * Theta for its fixed part w = y_j Q."""
    fixed = g.fixed_projector()
    theta = groups.theta_element(ambient, g, fixed, truncation)
    out = []
    for j in range(1, g.size + 1):
        w = WeylElement.generator(j, ambient).apply_matrix(fixed)
        v = WeylElement.generator(j, ambient) - w
        out.append(star(theta, v) + star(v.apply_matrix(g.matrix), theta))
        out.append(star(theta, w) - star(w, theta))
    return out


def conjugate_by(x, h):
    """The smash-product automorphism a (x) g -> a^h (x) h g h^{-1}; conjugation
    permutes the group, so no two terms meet."""
    group = x.group
    return groups.SmashElement(group, x.ambient, {group.conjugate(h, g): group.act(h, a)
                                                  for g, a in x.terms.items()})


def conjugate_cochain(group, f, h):
    """c^h(x_1...x_p) = (c(x_1^{h^-1}, ..., x_p^{h^-1}))^h for dual-valued c,
    acting through the group's table."""
    hinv = group.inverse(h)

    def ev(*args):
        return group.act(h, f(*(group.act(hinv, a) for a in args)))

    return Cochain(f.arity, f.ambient, f.twist, ev)


def commutator_terms(group, ambient, members, i, j):
    """theta(y_i, y_j) - theta(y_j, y_i) for gamma the indicator of members,
    the first-order term of [y_i, y_j] in a * b + nu theta(a, b), as
    {h: polynomial}; theta is read off groups at call time."""
    gamma = groups.ClassFunction.indicator(group, members)
    theta = groups.theta_cocycle(group, ambient, gamma, 2)
    y_i, y_j = (groups.SmashElement.embed(WeylElement.generator(k, ambient), group)
                for k in (i, j))
    return {h: a.poly for h, a in (theta(y_i, y_j) - theta(y_j, y_i)).terms.items()}
