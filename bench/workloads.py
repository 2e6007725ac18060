"""The two benchmark workloads.

Each workload makes its inputs from the seed, does its one-time set-up, then
runs its evaluations in a closed loop with one client: the next evaluation
starts when the previous one has finished.  Every computed value is checked
exactly and kept for the output digest.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import time
from typing import List, Optional

import inputs
from weylhh.poly import Poly
from weylhh.scalars import Scalar
from weylhh.weyl import SymplecticData, WeylElement

perf = time.perf_counter


class Outcome:
    """What the timed phase of one worker produced.

    The machine's speed changes by 20-50% over seconds to tens of seconds,
    so a time is read as its median over repeats of the same work spread
    across the run: a repeat that fell in an unusually slow or fast phase
    does not move it.  Each evaluation's time is kept as a list of segments,
    one segment except for verify-all's long command; run.py takes every
    segment's median over the timed workers of a run, which all do the same
    work.
    """

    def __init__(self) -> None:
        # Seconds, one list of segments per evaluation, in a fixed order.
        self.latencies: List[List[float]] = []
        self.evaluations = 0  # what one pass over `latencies` counts as
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.values: List[object] = []

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.errors) < 10:
            self.errors.append(why)


def corrupt(value: WeylElement) -> WeylElement:
    """The negative control: add one to one coefficient of the value."""
    terms = dict(value.poly.terms)
    mono = next(iter(terms), ())
    terms[mono] = terms.get(mono, Scalar.of(0)) + Scalar.of(1)
    terms = {m: c for m, c in terms.items() if not c.is_zero()}
    return WeylElement(Poly(terms), value.ambient, value.truncation)


class SweepN2:
    """Every 4-tuple over eight n=2 monomials through two suffix caches."""

    name = "sweep-n2"
    budgets = (12, 14)
    slot_degree = 2

    def __init__(self, seed: int, size: Optional[int] = None):
        self.seed = seed
        self.size = size or len(inputs.SWEEP_N2_PATTERN)

    def setup(self) -> None:
        from weylhh.descent import make_zeta
        from weylhh.ffs import cached_symbol, monomial_table

        self.monos = inputs.sweep_n2_monomials(self.seed)[:self.size]
        self.sym = SymplecticData.canonical(2)
        self.zeta = make_zeta(self.sym)
        for budget in self.budgets:
            self.zeta.expand(budget)
        self.table = monomial_table(cached_symbol(2, 8), self.sym, self.slot_degree)
        # The head varies fastest, so each 3-tail is filled once and then
        # served from the cache for the remaining heads.
        self.tuples = [(head,) + tail
                       for tail in itertools.product(self.monos, repeat=3)
                       for head in self.monos]

    def run(self, out: Outcome, recorder, negative_control: bool) -> None:
        """One sweep; each tuple is one evaluation, timed over its two lookups."""
        from weylhh.descent import SuffixCache

        lo, hi = (SuffixCache(self.zeta, b, self.slot_degree) for b in self.budgets)
        for k, tup in enumerate(self.tuples):
            if recorder is not None:
                recorder.eval_id = k
            out.attempted += 1
            start = perf()
            try:
                v1 = lo.value(tup)
                v2 = hi.value(tup)
            except Exception as exc:  # every failure is counted, none stops the run
                out.fail(1, f"tuple {k}: {type(exc).__name__}: {exc}")
                continue
            out.latencies.append([perf() - start])
            if negative_control and k == 0:
                v1 = corrupt(v1)
            t = min(v1.truncation, v2.truncation)
            key = tuple(next(iter(m.poly.terms)) for m in tup)
            symbol_value = self.table.get(key, Poly.zero())
            if v2.restrict(t) != v1.restrict(t):
                out.fail(1, f"tuple {k}: unstable between budgets {self.budgets}")
            elif symbol_value.truncate(t) != v1.poly.truncate(t):
                out.fail(1, f"tuple {k}: routes disagree")
            out.values.append([v1.to_json(), v2.to_json()])
        out.evaluations = len(out.latencies)


# verify-all's run time is set mostly by its rank-two cocycle samples: by the
# highest total degree of a sampled 5-tuple and by how many tuples reach it
# (on the 2-core machine the benchmark was tuned on, one command takes 20-30
# s at degree 10 and 5-10 s at 9).  These CLI seeds all have exactly one
# 5-tuple of total degree 9 and the next of degree 8; their commands make
# between 334,400 and 351,100 scalar multiplications and their peak memory
# is within 7% of one another, so every benchmark seed maps to about the
# same work.
# Benchmark seed s runs CLI seed VERIFY_ALL_SEEDS[s % 12]: seeds 0-10 take
# the first eleven entries, and the claim seed (119) the last, so a claim is
# checked on a command no tuning seed runs.
VERIFY_ALL_SEEDS = (57, 59, 72, 82, 87, 93, 122, 140, 143, 181, 187, 180)

# Seed-independent values the verify-all report must carry.
VERIFY_ALL_EXPECTED = {"twisted-minus": ("pairing", "1/2"),
                       "higher-spin": ("dims", {"0": 1, "2": 2, "4": 1})}


class VerifyAll:
    """`weylhh verify-all --format json` with default samples and degree."""

    name = "verify-all"

    def __init__(self, seed: int, size: Optional[int] = None):
        self.seed = seed
        self.size = size  # --samples; None keeps the CLI's default
        cli_seed = VERIFY_ALL_SEEDS[seed % len(VERIFY_ALL_SEEDS)]
        self.argv = ["--format", "json", "verify-all", "--seed", str(cli_seed)]
        if size is not None:
            self.argv += ["--samples", str(size)]

    def setup(self) -> None:
        from weylhh import cli

        self.cli = cli

    def run(self, out: Outcome, recorder, negative_control: bool) -> None:
        """One command: one time, and an evaluation per identity check.

        Untraced, the command's time is split into segments at the entry and
        exit of every `Poly.__mul__` call (a few thousand, which take most of
        its time), so that run.py can take each segment's median over the
        workers.  The program is deterministic, so every worker makes the
        same calls in the same order; the wrapper costs about a microsecond
        per call.
        """
        buf = io.StringIO()
        marks = []
        poly_mul = Poly.__mul__
        if recorder is not None:
            recorder.eval_id = 0
        else:
            Poly.__mul__ = marked(poly_mul, marks.append)
        start = perf()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(self.argv)
            report = json.loads(buf.getvalue())
        except (Exception, SystemExit) as exc:
            out.attempted += 1
            out.fail(1, f"verify-all: {type(exc).__name__}: {exc}")
            return
        finally:
            end = perf()
            Poly.__mul__ = poly_mul
        stamps = [start, *marks, end]
        suites = report.get("suites", [])
        if negative_control:
            suites[[s["name"] for s in suites].index("twisted-minus")]["detail"][
                "pairing"] = "1/3"
        checks = sum(s["checked"] for s in suites)
        out.attempted += max(1, checks)
        if code != 0 or report.get("ok") is not True:
            out.fail(out.attempted, f"verify-all: exit code {code}, ok {report.get('ok')}")
        for s in suites:
            if s["passed"] < s["checked"]:
                out.fail(s["checked"] - s["passed"], f"suite {s['name']}: "
                         f"{s['passed']} of {s['checked']} passed")
            want = VERIFY_ALL_EXPECTED.get(s["name"])
            if want is not None and s.get("detail", {}).get(want[0]) != want[1]:
                out.fail(1, f"suite {s['name']}: {want[0]} is "
                         f"{s.get('detail', {}).get(want[0])!r}, not {want[1]!r}")
        out.latencies.append([b - a for a, b in zip(stamps, stamps[1:])])
        out.evaluations = checks
        out.values.append(report)


def marked(method, mark):
    """`method` calling `mark(perf())` on entry and on exit."""
    @functools.wraps(method)
    def wrapper(*args):
        mark(perf())
        try:
            return method(*args)
        finally:
            mark(perf())
    return wrapper


WORKLOADS = {w.name: w for w in (SweepN2, VerifyAll)}
