"""Hochschild cochains with twisted bimodule coefficients.

A cochain is a finitely described multilinear evaluator together with the
metadata needed to differentiate it: its arity and the right twist rho.  The
differential follows the usual formula

    (d f)(a_1..a_{p+1}) = a_1 * f(a_2..)
                          + sum_k (-1)^k f(.., a_k * a_{k+1}, ..)
                          + (-1)^{p+1} f(a_1..a_p) * rho(a_{p+1})

where every product is the values' own `*`: the star product for dual
series, the star-exterior product for z-forms, the crossed product on the
smash product.  rho is a function on algebra arguments: the involution for
the dual module, the group action for twisted modules, the identity on the
smash product.  The split d = d1 + d2 keeps the first term in d1 and the
rest in d2.
"""

from __future__ import annotations

import itertools
from math import factorial
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import AmbientMismatchError
from .linalg import perm_sign
from .sampling import cocycle_tuples
from .scalars import Scalar
from .weyl import SymplecticData, WeylElement, bform


def untwisted(a):
    """The identity twist, for coefficients in the algebra itself."""
    return a


class Cochain:
    """A p-cochain as an evaluator plus its right twist."""

    def __init__(self, arity: int, ambient: SymplecticData, twist: Callable,
                 fn: Callable):
        self.arity = arity
        self.ambient = ambient
        self.twist = twist
        self.fn = fn

    def __call__(self, *args):
        if len(args) != self.arity:
            raise ValueError(f"cochain of arity {self.arity} got {len(args)} arguments")
        return self.fn(*args)

    def map_values(self, op: Callable) -> "Cochain":
        return Cochain(self.arity, self.ambient, self.twist,
                       lambda *args: op(self.fn(*args)))


def constant_cochain(value, ambient: SymplecticData, twist: Callable) -> Cochain:
    return Cochain(0, ambient, twist, lambda: value)


def hochschild_d(f: Cochain) -> Cochain:
    """Full differential d1 + d2; arity goes up by one."""
    d1, d2 = hochschild_d1(f), hochschild_d2(f)
    return Cochain(f.arity + 1, f.ambient, f.twist,
                   lambda *args: d1.fn(*args) + d2.fn(*args))


def hochschild_d1(f: Cochain) -> Cochain:
    """First piece only: a_1 * f(a_2, ..., a_{p+1})."""
    return Cochain(f.arity + 1, f.ambient, f.twist,
                   lambda *args: args[0] * f(*args[1:]))


def hochschild_d2(f: Cochain) -> Cochain:
    """The remainder d - d1 (merges plus the twisted right action)."""
    p = f.arity

    def ev(*args):
        total = None
        for k in range(1, p + 1):
            merged = args[:k - 1] + (args[k - 1] * args[k],) + args[k + 1:]
            term = f(*merged)
            if total is None:
                total = -term
            else:
                total = total - term if k % 2 else total + term
        last = f(*args[:-1]) * f.twist(args[-1])
        if total is None:
            return -last
        return total + last if p % 2 else total - last

    return Cochain(p + 1, f.ambient, f.twist, ev)


# -- verification -----------------------------------------------------------


class SampleSpec(NamedTuple):
    seed: int
    count: int
    max_degree: int
    group: object = None


class Report:
    def __init__(self, seed: int, degree_bound: int, checked: int = 0,
                 passed: int = 0, first_failure: Optional[str] = None,
                 detail: Optional[dict] = None):
        self.seed, self.degree_bound = seed, degree_bound
        self.checked, self.passed, self.first_failure = checked, passed, first_failure
        self.detail = {} if detail is None else detail

    def record(self, context: Callable[[], str], residual) -> Optional[str]:
        """Count one check that residual vanishes.  A failure names context()
        (called only then, so a passing check formats nothing) and the
        residual's lowest-degree term; the first is kept, and each one's text
        is returned."""
        self.checked += 1
        if residual.is_zero():
            self.passed += 1
            return None
        degree, term = residual.lowest_term()
        text = f"{context()}: residual {term} at degree {degree}"
        if self.first_failure is None:
            self.first_failure = text
        return text

    @property
    def ok(self) -> bool:
        # A report that checked nothing proved nothing: it is not ok.
        return self.checked > 0 and self.passed == self.checked

    def to_json(self) -> dict:
        return {
            "checked": self.checked,
            "passed": self.passed,
            "first_failure": self.first_failure,
            "seed": self.seed,
            "degree_bound": self.degree_bound,
            **({"detail": self.detail} if self.detail else {}),
        }


def verify_cocycle(f: Cochain, samples: SampleSpec) -> Report:
    """Evaluate the full differential of f on sampled tuples; exact zero test.

    The first failure names its arguments and the lowest-degree term of the
    residual df(args), with that term's degree.
    """
    tuples = cocycle_tuples(f, samples)
    df = hochschild_d(f)
    report = Report(samples.seed, samples.max_degree)
    for args in tuples:
        report.record(lambda: "(" + ", ".join(str(a) for a in args) + ")", df(*args))
    return report


# -- chains and the pairing ---------------------------------------------------


class Chain(NamedTuple):
    """A formal sum of (coefficient element) x (wedge of algebra elements)."""

    terms: List[Tuple[WeylElement, Tuple[WeylElement, ...]]]


def wedge_eval(f: Cochain, args: Sequence[WeylElement]):
    """Antisymmetrized evaluation with the 1/p! convention."""
    p = len(args)
    if p != f.arity:
        raise AmbientMismatchError("chain arity does not match cochain arity")
    total = None
    for perm in itertools.permutations(range(p)):
        term = f(*[args[i] for i in perm])
        if perm_sign(perm) < 0:
            term = -term
        total = term if total is None else total + term
    return total.scale(Scalar.rational(1, factorial(p)))


def pair_chain(f: Cochain, chain: Chain) -> Scalar:
    """Pair a dual-valued cochain with a chain through the bilinear form."""
    total = Scalar.of(0)
    for m, args in chain.terms:
        value = wedge_eval(f, args)
        total = total + bform(m, value)
    return total
