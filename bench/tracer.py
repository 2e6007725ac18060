"""Span recorder for the traced benchmark run.

The recorder wraps weylhh's layer boundaries from outside: each wrapped
function or method is replaced by name in every loaded `weylhh` module
namespace that holds it (methods on their class), and put back by `remove`.
Nothing under `src/` changes.

Three kinds of wrapper:

* span: the call is timed, kept in memory as a span (name, start, end,
  parent span, evaluation id) and counted;
* timed: timed and counted, but no span is kept (`Poly.__mul__`, which runs
  too often to keep one span per call);
* counted: only counted (scalar arithmetic, `Poly.diff`, cochain calls).

A layer's self time is its wall time minus the time of the timed calls nested
directly inside it.  Counts that need a look at a cache (misses, terms) are
taken at the same boundaries, so ratios are measured where the work happens.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

perf = time.perf_counter

# Layers whose calls are counted.
CALLED = ("scalars.mul", "scalars.add", "poly.mul", "poly.diff", "weyl.star",
          "weyl.star_kernel", "forms.form_star", "forms.homotopy_s",
          "descent.descend", "descent.expand", "descent.suffix_tail",
          "descent.suffix_value", "ffs.build", "ffs.apply", "ffs.operator_for",
          "hochschild.verify_cocycle", "hochschild.cochain_eval",
          "groups.smash_mul")
# Timed layers that every workload enters: self time in seconds.
SELF_SECONDS = ("poly.mul", "weyl.star_kernel", "forms.form_star",
                "forms.homotopy_s", "descent.expand", "ffs.build",
                "ffs.operator_for")
# Timed layers that some workload never enters.  A self time that reads 0 s
# on every run of a workload is no measurement, so these report their self
# time as a share of the traced wall time instead (0 where not entered).
SELF_SHARE = ("weyl.star", "descent.descend", "descent.suffix_tail",
              "descent.suffix_value", "ffs.apply", "ffs.monomial_table",
              "ffs.hypercube", "hochschild.verify_cocycle", "groups.smash_mul",
              "simplex.fuzz")
TIMED = SELF_SECONDS + SELF_SHARE


class Recorder:
    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.eval_id = -1
        self.started = self.wall = 0.0
        # Open frames: [name, child time, span id of this frame or of the
        # nearest spanned ancestor].
        self._stack: List[list] = [["root", 0.0, -1]]
        self._next_id = 0
        self._patches: List[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name: str, fn: Callable, keep_span: bool,
               before: Optional[Callable] = None,
               after: Optional[Callable] = None) -> Callable:
        stack = self._stack
        spans = self.spans
        calls = self.calls
        self_s = self.self_s

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if keep_span:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = parent[2]
            frame = [name, 0.0, span_id]
            state = before(args) if before is not None else None
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                elapsed = end - start
                self_s[name] += elapsed - frame[1]
                parent[1] += elapsed
                calls[name] += 1
                if keep_span:
                    spans.append((span_id, name, start, end, parent[2],
                                  self.eval_id))
            if after is not None:
                after(args, result, state, parent)
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def span(self, name: str, fn: Callable, *args):
        """Call fn(*args) inside a span of the benchmark's own."""
        return self._timed(name, fn, keep_span=True)(*args)

    # -- patching ---------------------------------------------------------

    def _patch_function(self, module, attr: str, wrapper: Callable) -> None:
        original = getattr(module, attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "weylhh" and not mod_name.startswith("weylhh."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr: str, wrapper: Callable) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics are read from."""
        from weylhh import descent, ffs, forms, groups, hochschild, poly
        from weylhh import scalars, simplex, weyl

        self.started = perf()
        op_cache = ffs._op_cache

        def kernel_after(args, result, state, parent):
            terms = len(result.terms)
            self.counts["weyl.star_kernel.terms_out"] += terms
            if parent[0] == "descent.suffix_value":
                self.counts["descent.suffix_value.kernel_terms"] += terms

        def tail_after(args, result, state, parent):
            cache, tail_args = args[0], args[1]
            if not tail_args or len(cache._cache) > state:
                self.counts["descent.suffix_tail.misses"] += 1

        def value_after(args, result, state, parent):
            if len(args[0]._final) > state:
                self.counts["descent.suffix_value.misses"] += 1
            self.counts["descent.suffix_value.terms_kept"] += len(result.poly.terms)

        def operator_after(args, result, state, parent):
            if len(op_cache) > state:
                self.counts["ffs.operator_for.misses"] += 1

        functions = [
            (weyl, "star", "weyl.star", {}),
            (weyl, "_star_kernel", "weyl.star_kernel", dict(after=kernel_after)),
            (forms, "form_star", "forms.form_star", {}),
            (forms, "homotopy_s", "forms.homotopy_s", {}),
            (descent, "descend", "descent.descend", {}),
            (ffs, "ffs_build", "ffs.build", {}),
            (ffs, "ffs_apply", "ffs.apply", {}),
            (ffs, "_operator_for", "ffs.operator_for",
             dict(before=lambda a: len(op_cache), after=operator_after)),
            (ffs, "monomial_table", "ffs.monomial_table", {}),
            (ffs, "ffs_hypercube_n1", "ffs.hypercube", {}),
            (hochschild, "verify_cocycle", "hochschild.verify_cocycle", {}),
            (simplex, "fuzz", "simplex.fuzz", {}),
        ]
        for module, attr, name, hooks in functions:
            fn = getattr(module, attr)
            self._patch_function(module, attr,
                                 self._timed(name, fn, keep_span=True, **hooks))
        methods = [
            (descent.GaussianGenerator, "expand", "descent.expand", {}),
            (descent.SuffixCache, "tail", "descent.suffix_tail",
             dict(before=lambda a: len(a[0]._cache), after=tail_after)),
            (descent.SuffixCache, "value", "descent.suffix_value",
             dict(before=lambda a: len(a[0]._final), after=value_after)),
            (groups.SmashElement, "__mul__", "groups.smash_mul", {}),
        ]
        for cls, attr, name, hooks in methods:
            self._patch_method(cls, attr, self._timed(name, cls.__dict__[attr],
                                                      keep_span=True, **hooks))
        self._patch_method(poly.Poly, "__mul__",
                           self._timed("poly.mul", poly.Poly.__mul__,
                                       keep_span=False))
        for cls, attr, name in [
                (poly.Poly, "diff", "poly.diff"),
                (scalars.Scalar, "__mul__", "scalars.mul"),
                (scalars.Scalar, "__add__", "scalars.add"),
                (hochschild.Cochain, "__call__", "hochschild.cochain_eval")]:
            self._patch_method(cls, attr, self._counted(name, cls.__dict__[attr]))

    def remove(self) -> None:
        """Put every wrapped object back; the traced wall time ends here."""
        self.wall = perf() - self.started
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Self time of every timed layer, in seconds."""
        return {name: self.self_s[name] for name in TIMED}

    def layer_metrics(self) -> Dict[str, float]:
        """The per-layer metrics, by name."""
        from weylhh import ffs

        calls, counts, self_s = self.calls, self.counts, self.self_s
        out: Dict[str, float] = {f"{name}.calls": calls[name] for name in CALLED}
        for name in SELF_SECONDS:
            out[f"{name}.self_s"] = self_s[name]
        for name in SELF_SHARE:
            out[f"{name}.self_share"] = self_s[name] / self.wall
        for name in ("weyl.star_kernel.terms_out", "descent.suffix_tail.misses",
                     "ffs.operator_for.misses"):
            out[name] = counts[name]
        out["ffs.op_cache.terms"] = sum(len(op.terms)
                                        for op in ffs._op_cache.values())
        lookups = calls["descent.suffix_tail"] + calls["descent.suffix_value"]
        misses = (counts["descent.suffix_tail.misses"]
                  + counts["descent.suffix_value.misses"])
        out["descent.suffix.hit_ratio"] = (
            (lookups - misses) / lookups if lookups else 0.0)
        kernel_terms = counts["descent.suffix_value.kernel_terms"]
        out["descent.suffix_value.kept_ratio"] = (
            counts["descent.suffix_value.terms_kept"] / kernel_terms
            if kernel_terms else 0.0)
        return out

    def write_spans(self, path, meta: dict) -> None:
        """All spans, as [id, name, start, end, parent id, evaluation id]."""
        with gzip.open(path, "wt") as fh:
            json.dump({"meta": meta,
                       "fields": ["id", "name", "start", "end", "parent", "eval"],
                       "spans": self.spans}, fh, separators=(",", ":"))
