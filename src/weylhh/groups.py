"""Symplectic group elements, finite groups, smash products and their cocycles.

The action of a group element on polynomials is the pullback a -> a o g^{-1},
so composing actions matches the group product and the crossed product

    (a (x) g) (b (x) h) = a * b^g (x) gh

is associative for any finite subgroup, abelian or not.

The twisted sector lives here too.  The g-twisted generator (`make_zeta_g`)
checks g and is built by the descent module's one generator builder
(`descent.sector_generator`): Q = i w(z, y + (z-y)^g) and a 2k-form
prefactor supported on the sector where g moves points, k = rank(1-g)/2.
The prefactor is normalized as the k-th wedge power, divided by k!, of the
two-form sum_{i<j} w_ij u^i u^j in u = (dz - dz^g)/2 (forms.sector_volume).
With this scale the pairing of the resulting cocycle against its dual cycle
comes out exactly det((1 - g)/2) / (2k)!, the determinant taken on the moved
sector: 1/(2k)! where g acts there as -1, and another constant elsewhere
(1/4 for g = diag(i, -i), -1/16 for diag(2, 1/2)).

Twisted-sector data (the dual cycle and its exponential coefficient) reads g
only through its matrix and its fixed-sector projector, so every semisimple g
has it, as every g has a rank, a twisted generator and a place in the
dimension calculator.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Sequence, Tuple

from . import linalg
from .descent import (GaussianGenerator, _omega_bilinear, _vector, descent_cocycle,
                      sector_generator)
from .errors import AmbientMismatchError
from .forms import sector_volume
from .hochschild import Chain, Cochain, untwisted
from .poly import Y, linear_images
from .scalars import I, ONE, ZERO, Scalar
from .weyl import Matrix, SymplecticData, WeylElement, star


class GroupElement:
    __slots__ = ("matrix", "label")  # equality and hashing read the matrix alone

    def __init__(self, matrix: Matrix, label: str = ""):
        self.matrix, self.label = matrix, label

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    @staticmethod
    def from_rows(rows, label: str = "") -> "GroupElement":
        return GroupElement(linalg.mat_from_rows(rows), label)

    @staticmethod
    def diagonal(entries: Sequence[Scalar], label: str = "") -> "GroupElement":
        size = len(entries)
        rows = [[entries[i] if i == j else ZERO for j in range(size)]
                for i in range(size)]
        return GroupElement.from_rows(rows, label)

    @staticmethod
    def identity(size: int) -> "GroupElement":
        return GroupElement(linalg.identity(size), "1")

    @property
    def size(self) -> int:
        return len(self.matrix)

    def is_identity(self) -> bool:
        return self.matrix == linalg.identity(self.size)

    def moved_rank(self) -> int:
        """rank(1 - g), twice the number of eigen-pairs the twist moves."""
        ident = linalg.identity(self.size)
        return linalg.mat_rank(linalg.mat_sub(ident, self.matrix))

    def twist_pairs(self) -> int:
        rank = self.moved_rank()
        if rank % 2:
            raise ValueError("rank(1 - g) is odd; g cannot be symplectic")
        return rank // 2

    def check_symplectic(self, ambient: SymplecticData) -> None:
        if self.size != 2 * ambient.n:
            raise ValueError(f"matrix is {self.size} x {self.size}, not 2n x 2n, n = {ambient.n}")
        # g^T omega g, sum_j g_ja omega_j(j^1) g_(j^1)b: canonical omega has its
        # one entry per row at j ^ 1, and g's zero entries are skipped.
        g, omega = self.matrix, ambient.omega
        lhs = [[ZERO] * self.size for _ in g]
        for j, row in enumerate(g):
            for a, x in enumerate(row):
                if not x.is_zero():
                    x = x * omega[j][j ^ 1]
                    lhs[a] = [s + x * y for s, y in zip(lhs[a], g[j ^ 1])]
        if tuple(map(tuple, lhs)) != omega:
            raise ValueError("matrix does not preserve the symplectic form")

    def fixed_projector(self) -> Matrix:
        """Q = K (L K)^-1 L for kernel and left-kernel bases K, L of 1 - g: the
        projector onto ker(1 - g) along im(1 - g).  On linear forms, as rows
        x -> x Q, it keeps the part g fixes and drops the part g moves."""
        one_minus = linalg.mat_sub(linalg.identity(self.size), self.matrix)
        left = linalg.left_null_space(one_minus)
        if not left:
            return ((ZERO,) * self.size,) * self.size
        kernel = linalg.mat_transpose(
            linalg.left_null_space(linalg.mat_transpose(one_minus)))
        try:
            middle = linalg.mat_inverse(linalg.mat_mul(left, kernel))
        except ZeroDivisionError:
            raise ValueError("g is not semisimple: ker(1 - g) meets im(1 - g)") from None
        return linalg.mat_mul(kernel, linalg.mat_mul(middle, left))

    def __str__(self) -> str:
        # Unlabelled: the rows, as [a b; c d].
        return self.label or "[" + "; ".join(
            " ".join(map(str, row)) for row in self.matrix) + "]"

    __repr__ = __str__


class FiniteGroup:
    """A finite group of symplectic matrices with its Cayley table.

    The closure check forms every product a b once; the table keeps each as
    the group's own element, and the inverses are read off the entries equal
    to the identity.  So product, inverse and conjugate are lookups, and no
    matrix is multiplied or inverted after construction.  Each takes any
    element equal to a group element and returns the group's own.
    """

    def __init__(self, elements: Sequence[GroupElement]):
        self.elements = list(elements)
        for g in self.elements:
            g.check_symplectic(SymplecticData.canonical(g.size // 2))
        self._by_matrix = {g.matrix: g for g in self.elements}
        if len(self._by_matrix) != len(self.elements):
            raise ValueError("duplicate group elements")
        self.identity = next(g for g in self.elements if g.is_identity())
        self._table: Dict[Tuple[GroupElement, GroupElement], GroupElement] = {}
        for a in self.elements:
            for b in self.elements:
                ab = self._by_matrix.get(linalg.mat_mul(a.matrix, b.matrix))
                if ab is None:
                    raise ValueError("element set is not closed under products")
                self._table[a, b] = ab
        self._inverse = {a: b for (a, b), ab in self._table.items()
                         if ab is self.identity}

    def canonical(self, g: GroupElement) -> GroupElement:
        got = self._by_matrix.get(g.matrix)
        if got is None:
            raise ValueError("element does not belong to the group")
        return got

    def product(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return self._table[self.canonical(a), self.canonical(b)]

    def inverse(self, a: GroupElement) -> GroupElement:
        return self._inverse[self.canonical(a)]

    def conjugate(self, h: GroupElement, g: GroupElement) -> GroupElement:
        """h g h^{-1}."""
        return self.product(self.product(h, g), self.inverse(h))

    def act(self, g: GroupElement, x):
        """Pullback action a -> a o g^{-1}, an automorphism of every product
        here; g^{-1} is read off the table."""
        return x.apply_matrix(self.inverse(g).matrix)

    def conjugacy_classes(self) -> List[List[GroupElement]]:
        seen = set()
        classes = []
        for g in self.elements:
            if g in seen:
                continue
            cls = []
            for h in self.elements:
                c = self.conjugate(h, g)
                if c not in cls:
                    cls.append(c)
            seen.update(cls)
            classes.append(cls)
        return classes

    def __iter__(self):
        return iter(self.elements)


class ClassFunction:
    def __init__(self, group: FiniteGroup, values: Dict[GroupElement, Scalar]):
        self.group = group
        self.values = values
        for g in self.group:
            self.values.setdefault(g, ZERO)
        for g in self.group:
            for h in self.group:
                if self.values[self.group.conjugate(h, g)] != self.values[g]:
                    raise ValueError("values are not constant on conjugacy classes")

    def __call__(self, g: GroupElement) -> Scalar:
        return self.values[self.group.canonical(g)]

    @staticmethod
    def indicator(group: FiniteGroup, members: Sequence[GroupElement]) -> "ClassFunction":
        vals = {group.canonical(g): ONE for g in members}
        return ClassFunction(group, vals)


class SmashElement:
    """A finite sum of (Weyl coefficient) (x) (group element)."""

    __slots__ = ("group", "ambient", "terms")

    def __init__(self, group: FiniteGroup, ambient: SymplecticData,
                 terms: Dict[GroupElement, WeylElement]):
        self.group = group
        self.ambient = ambient
        self.terms = {group.canonical(g): a for g, a in terms.items()
                      if not a.is_zero()}

    @staticmethod
    def embed(a: WeylElement, group: FiniteGroup) -> "SmashElement":
        return SmashElement(group, a.ambient, {group.identity: a})

    @staticmethod
    def group_unit(g: GroupElement, group: FiniteGroup,
                   ambient: SymplecticData) -> "SmashElement":
        return SmashElement(group, ambient, {g: WeylElement.one(ambient)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "SmashElement") -> "SmashElement":
        self._check(other)
        out = dict(self.terms)
        for g, a in other.terms.items():
            out[g] = out[g] + a if g in out else a
        return SmashElement(self.group, self.ambient, out)

    def __sub__(self, other: "SmashElement") -> "SmashElement":
        return self + (-other)

    def __neg__(self) -> "SmashElement":
        return SmashElement(self.group, self.ambient,
                            {g: -a for g, a in self.terms.items()})

    def __mul__(self, other: "SmashElement") -> "SmashElement":
        """(a (x) g)(b (x) h) = a * b^g (x) gh, extended bilinearly."""
        self._check(other)
        out: Dict[GroupElement, WeylElement] = {}
        for g, a in self.terms.items():
            for h, b in other.terms.items():
                gh = self.group.product(g, h)
                prod = star(a, self.group.act(g, b))
                out[gh] = out[gh] + prod if gh in out else prod
        return SmashElement(self.group, self.ambient, out)

    def _check(self, other: "SmashElement") -> None:
        if self.group is not other.group or self.ambient != other.ambient:
            raise AmbientMismatchError("smash elements over different data")

    def __eq__(self, other) -> bool:
        return (isinstance(other, SmashElement)
                and self.ambient == other.ambient
                and self.terms == other.terms)

    def lowest_term(self) -> Tuple[int, "SmashElement"]:
        """The lowest-degree term of a nonzero self, on its group element."""
        degree, term, g = min(((*a.lowest_term(), g) for g, a in self.terms.items()),
                              key=lambda t: t[0])
        return degree, SmashElement(self.group, self.ambient, {g: term})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({a})*{g}" for g, a in self.terms.items())

    __repr__ = __str__


def afls_dims(group: FiniteGroup) -> Dict[int, List[ClassFunction]]:
    """A cohomology basis per degree, whose length is its dimension: the
    indicators of the conjugacy classes with rank(1 - g) equal to that degree."""
    classes = group.conjugacy_classes()
    ranks = [cls[0].moved_rank() for cls in classes]
    out: Dict[int, List[ClassFunction]] = {}
    size = group.identity.size
    for p in range(size + 1):
        basis = [ClassFunction.indicator(group, cls)
                 for cls, rank in zip(classes, ranks) if rank == p]
        if basis:
            out[p] = basis
    return out


# -- twisted-sector data -------------------------------------------------------


def group_twist(matrix) -> Callable:
    """The twist a -> a o g of a group-twisted module, g given by its matrix.

    This module writes a o g as a^{g^{-1}} (a^h = a o h^{-1}), so
    theta_cocycle puts tau_{g^{-1}}, of right twist a -> a^g, on g's sector.
    """
    return lambda a: a.apply_matrix(matrix)


def make_zeta_g(ambient: SymplecticData, g: GroupElement) -> GaussianGenerator:
    """The g-twisted generator (`descent.sector_generator`); ValueError
    unless g preserves omega and moves a sector with a nonzero volume."""
    g.check_symplectic(ambient)
    k = g.twist_pairs()
    rows = [{l: c for l, c in enumerate(row) if not c.is_zero()} for row in g.matrix]
    gen = sector_generator(ambient, rows, k, group_twist(g.matrix), ONE)
    if k > 0 and gen.prefactor.is_zero():
        raise ValueError("degenerate twisted prefactor; g is not usable here")
    return gen


def theta_element(ambient: SymplecticData, g: GroupElement, projector: Matrix,
                  truncation: int) -> WeylElement:
    """The exponential coefficient of the dual twisted cycle, for g and its
    fixed projector Q = g.fixed_projector().

    exp(-i w(y, A^-1 y)) with A = 1 - g + Q is the Cayley form
    -(i/2) w(y, C y) with C = (1 + g)(1 - g)^-1 on the moved sector and 0
    on the fixed one: C = 2 A^-1 - 1 - Q and w(y, y) = w(y, Q y) = 0.  The
    test suite checks it against its defining star equations; ValueError
    unless g preserves omega."""
    g.check_symplectic(ambient)
    a = linalg.mat_sub(linalg.identity(g.size), linalg.mat_sub(g.matrix, projector))
    a_inv = linalg.mat_inverse(a)
    # The image of y_j under y -> A^-1 y is row j of A^-1.
    exponent = _omega_bilinear(ambient, _vector(Y, ambient), linear_images(Y, a_inv))
    if exponent.is_zero():
        # Reflection-only sectors: the series terminates, the element is exact.
        return WeylElement.one(ambient)
    return WeylElement(exponent.scale(-I).exp_quadratic(truncation), ambient, truncation)


def twisted_cycle(ambient: SymplecticData, g: GroupElement, truncation: int):
    """Theta (x) the moved sector's volume (sector_volume over the moved
    parts y_j - y_j Q of the generators), as a pairing chain."""
    projector = g.fixed_projector()
    theta = theta_element(ambient, g, projector, truncation)
    moved = linalg.mat_sub(linalg.identity(g.size), projector)
    ones = [{(l + 1,): c for l, c in enumerate(row) if not c.is_zero()} for row in moved]
    volume = sector_volume(ones, g.twist_pairs())
    return Chain([(theta.scale(c), tuple(WeylElement.generator(j, ambient) for j in idx))
                  for idx, c in volume.items()])


# -- cocycles on the smash product ---------------------------------------------


def twisted_cocycle(ambient: SymplecticData, g: GroupElement):
    """The 2k_g-cocycle of the g-twisted module, via the descent route."""
    return descent_cocycle(make_zeta_g(ambient, g))


def theta_cocycle(group: FiniteGroup, ambient: SymplecticData,
                  gamma: ClassFunction, degree: int):
    """The smash-product cocycle of a class function supported in one degree.

    Values on factorized arguments a_1 g_1, ..., a_p g_p are

        sum_g gamma(g) tau_{g^{-1}}(a_1, a_2^{g_1}, a_3^{g_1 g_2}, ...)
                       (x) g g_1 ... g_p ,

    with a^h = a o h^{-1} (FiniteGroup.act), extended multilinearly:
    tau_{g^{-1}} has the right twist b -> b^g of (a (x) g)(b (x) 1) =
    a * b^g (x) g.  Elements of the group algebra in any slot are killed by
    the normalization of tau.
    """
    if degree == 0:
        # The identity is the one element of moved rank 0, so theta_0 is
        # gamma(1) (1 (x) 1) and no sector cocycle is built.
        def ev0():
            one = WeylElement.one(ambient).scale(gamma(group.identity))
            return SmashElement(group, ambient, {group.identity: one})

        return Cochain(0, ambient, untwisted, ev0)

    taus = {}
    for g in group:
        if g.moved_rank() == degree and not gamma(g).is_zero():
            taus[g] = twisted_cocycle(ambient, group.inverse(g))

    def ev(*args: SmashElement):
        value = SmashElement(group, ambient, {})
        for combo in itertools.product(*[list(x.terms.items()) for x in args]):
            hs = [h for h, _ in combo]
            coeffs = [a for _, a in combo]
            twisted = [coeffs[0]]
            running = hs[0]
            for idx in range(1, degree):
                twisted.append(group.act(running, coeffs[idx]))
                running = group.product(running, hs[idx])
            for g, tau in taus.items():
                weyl = tau(*twisted).scale(gamma(g))
                if weyl.is_zero():
                    continue
                target = group.product(g, running)
                value = value + SmashElement(group, ambient, {target: weyl})
        return value

    return Cochain(degree, ambient, untwisted, ev)


# -- the four-dimensional higher-spin preset ------------------------------------


def higher_spin_preset():
    """The rank-two ambient with its Klein four-group of reflections.

    Generators split into two spinor sectors: indices (1, 2) flip under the
    first reflection, indices (3, 4) under the second.
    """
    ambient = SymplecticData.canonical(2)
    e = GroupElement.diagonal([ONE, ONE, ONE, ONE], "1")
    kappa = GroupElement.diagonal([-ONE, -ONE, ONE, ONE], "kappa")
    kappabar = GroupElement.diagonal([ONE, ONE, -ONE, -ONE], "kappabar")
    both = GroupElement.diagonal([-ONE, -ONE, -ONE, -ONE], "kappakappabar")
    group = FiniteGroup([e, kappa, kappabar, both])
    labels = {"1": e, "kappa": kappa, "kappabar": kappabar,
              "kappakappabar": both}
    return group, ambient, labels
