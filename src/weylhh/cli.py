"""Command-line surface: evaluation commands plus the batch verifier.

Exit codes separate the interesting failure modes for CI:

    0  everything checked out
    1  a mathematical identity failed (a theorem-level assertion broke)
    2  usage or configuration error
    3  expansion order / truncation budget insufficient
    4  internal error (any other exception; traceback on stderr)

Reports embed the artifact version and the full run configuration (seeds,
degree bounds, budgets actually used) so any run can be reproduced from its
own output.  Text and JSON formats carry identical numeric content.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import List, NamedTuple, Optional

from . import __version__
from .errors import BudgetError, WeylhhError
from .poly import Poly
from .scalars import Scalar
from .weyl import (SymplecticData, WeylElement, ambient_from_json, bform,
                   involution, star)
from .forms import ext_d, homotopy_s, proj_p
from .hochschild import Report, SampleSpec, pair_chain, verify_cocycle
from .ffs import cached_symbol, ffs_apply, ffs_cocycle, ffs_hypercube_n1
from .descent import (auto_budget, build_trace, descend, descent_cocycle,
                      make_zeta, verify_descent)
from .groups import (ClassFunction, GroupElement, SmashElement, afls_dims,
                     higher_spin_preset, make_zeta_g, theta_cocycle,
                     twisted_cycle)
from . import sampling, simplex

ENV_SEED = "WEYLHH_SEED"


class RunConfig(NamedTuple):
    command: str
    n: Optional[int] = None
    seed: int = 0
    samples: int = 0
    max_degree: int = 0
    budget: str = "auto"
    out: Optional[str] = None
    format: str = "text"
    extra: Optional[dict] = None

    def to_json(self) -> dict:
        return {k: v for k, v in self._asdict().items() if v not in (None, {}, "")}


def _default_seed() -> int:
    raw = os.environ.get(ENV_SEED, "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{ENV_SEED} must be an integer, got {raw!r}") from None


def _load_json(spec: str) -> dict:
    """A JSON object given inline or as a file path."""
    spec = spec.strip()
    if spec.startswith("{") or spec.startswith("["):
        obj = json.loads(spec)
    else:
        with open(spec) as fh:
            obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"payload must be a JSON object, got {type(obj).__name__}")
    return obj


def _field(obj: dict, key: str):
    """obj[key]; a ValueError naming the field if the payload has none."""
    if key not in obj:
        raise ValueError(f"payload has no {key!r} field")
    return obj[key]


def _list_from(obj: dict, key: str) -> list:
    value = _field(obj, key)
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a JSON list, got {type(value).__name__}")
    return value


def _emit(payload: dict, config: RunConfig) -> None:
    payload = {"version": __version__, "config": config.to_json(), **payload}
    if config.format == "json":
        text = json.dumps(payload, indent=2)
    else:
        lines = [f"weylhh {__version__} :: {config.command}"]
        for key, value in payload.items():
            if key in ("version", "config"):
                continue
            lines.append(f"  {key}: {json.dumps(value) if isinstance(value, (dict, list)) else value}")
        text = "\n".join(lines)
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _parse_args_payload(obj: dict) -> tuple:
    ambient = ambient_from_json(obj)
    args = [WeylElement(Poly.from_json(a), ambient) for a in _list_from(obj, "args")]
    return ambient, args


def _group_element(labels: dict, name):
    """The group element a label names; an unknown label, or one that is not
    a string, is a usage error."""
    if not isinstance(name, str) or name not in labels:
        raise ValueError(f"unknown group label {name!r}; known labels: "
                         + ", ".join(labels))
    return labels[name]


def _parse_group_spec(obj):
    if "preset" in obj:
        if obj["preset"] != "higher-spin-4d":
            raise ValueError(f"unknown preset {obj['preset']}")
        group, ambient, labels = higher_spin_preset()
        element = _group_element(labels, obj["element"]) if "element" in obj else None
        return group, ambient, labels, element
    raise ValueError("group spec must name a preset")


def _scalar_from(obj) -> Scalar:
    """An int, a string "p" or "p/q", or the JSON scalar form."""
    if type(obj) is int:
        return Scalar.of(obj)
    if isinstance(obj, str):
        num, sep, den = obj.partition("/")
        try:
            num, den = int(num), int(den) if sep else 1
        except ValueError:
            raise ValueError(f"cannot parse scalar from {obj!r}") from None
        return Scalar.rational(num, den)
    if isinstance(obj, dict):
        return Scalar.from_json(obj)
    raise ValueError(f"cannot parse scalar from {obj!r}")


# -- verify-all ---------------------------------------------------------------


def _suite(name: str, report: Report, **detail) -> dict:
    """A verify-all suite read off its Report; a failure adds its first failure."""
    if report.first_failure is not None:
        detail["first_failure"] = report.first_failure
    return {"name": name, "checked": report.checked, "passed": report.passed,
            "ok": report.ok, **({"detail": detail} if detail else {})}


def run_verify_all(seed: int, samples: int, max_degree: int) -> List[dict]:
    suites: List[dict] = []
    rng = random.Random(seed)

    # Weyl algebra invariants: relations, associativity, trace/form suite.
    rep = Report(seed, max_degree)
    for n in (1, 2):
        sym = SymplecticData.canonical(n)
        for j in range(1, 2 * n + 1):
            for k in range(1, 2 * n + 1):
                yj, yk = WeylElement.generator(j, sym), WeylElement.generator(k, sym)
                want = Poly.const(Scalar.of(0, 2) * sym.pi[j - 1][k - 1])
                rep.record(lambda: f"[y{j}, y{k}]", (star(yj, yk) - star(yk, yj)).poly - want)
        for _ in range(samples // 2):
            a, b, c = (sampling.random_weyl(rng, sym, max_degree) for _ in range(3))
            rep.record(lambda: f"({a}, {b}, {c})", star(star(a, b), c) - star(a, star(b, c)))
            m = sampling.random_weyl(rng, sym, max_degree)
            rep.record(lambda: f"B({m}, {a})", Poly.const(bform(m, a) - bform(involution(a), m)))
    suites.append(_suite("weyl-invariants", rep))

    # Homotopy identities on forms.
    rep = Report(seed, max_degree)
    for _ in range(samples):
        sym = SymplecticData.canonical(rng.choice((1, 2)))
        a = sampling.random_form(rng, sym, max_degree)
        rep.record(lambda: f"d d on {a}", ext_d(ext_d(a)))
        rep.record(lambda: f"s s on {a}", homotopy_s(homotopy_s(a)))
        rep.record(lambda: f"s d + d s - 1 + p on {a}",
                   homotopy_s(ext_d(a)) + ext_d(homotopy_s(a)) - (a - proj_p(a)))
    suites.append(_suite("form-homotopy", rep))

    # The simplex-symbol cocycle, both ranks.
    rep = verify_cocycle(ffs_cocycle(SymplecticData.canonical(1)),
                         SampleSpec(seed=seed, count=samples, max_degree=min(3, max_degree)))
    suites.append(_suite("ffs-cocycle-n1", rep))
    rep = verify_cocycle(ffs_cocycle(SymplecticData.canonical(2)),
                         SampleSpec(seed=seed + 1, count=max(3, samples // 5), max_degree=2))
    suites.append(_suite("ffs-cocycle-n2", rep))

    # Route agreement: resolution chain vs symbol, and the unit-square form.
    sym1 = SymplecticData.canonical(1)
    zeta = make_zeta(sym1)
    rep = Report(seed, 2)
    for m1 in sampling.monomials_upto(sym1, 2):
        for m2 in sampling.monomials_upto(sym1, 2):
            d = descend(zeta, [m1, m2])
            f = ffs_apply(cached_symbol(1, 8), [m1, m2])
            rep.record(lambda: f"descent on ({m1}, {m2})", f.restrict(d.truncation) - d)
            rep.record(lambda: f"unit square on ({m1}, {m2})", ffs_hypercube_n1([m1, m2]) - f)
    suites.append(_suite("route-agreement-n1", rep))

    # Twisted sector: the reflection twist at rank one.
    minus = GroupElement.diagonal([Scalar.of(-1)] * 2, "-1")
    taum = descent_cocycle(make_zeta_g(sym1, minus))
    rep = verify_cocycle(taum, SampleSpec(seed=seed + 2, count=max(3, samples // 3),
                                          max_degree=2))
    pairm = pair_chain(taum, twisted_cycle(sym1, minus, truncation=8))
    rep.record(lambda: "pairing - 1/2", Poly.const(pairm - Scalar.rational(1, 2)))
    suites.append(_suite("twisted-minus", rep, pairing=str(pairm)))

    # Higher-spin preset: dimensions and the degree-two smash cocycle.
    group, amb2, labels = higher_spin_preset()
    dims = {p: len(basis) for p, basis in afls_dims(group).items()}
    gamma = ClassFunction.indicator(group, [labels["kappa"]])
    theta2 = theta_cocycle(group, amb2, gamma, 2)
    rep = verify_cocycle(theta2, SampleSpec(seed=seed + 3, count=max(2, samples // 8),
                                            max_degree=1, group=group))
    rep.record(lambda: f"dims {dims}", Poly.const(Scalar.of(int(dims != {0: 1, 2: 2, 4: 1}))))
    kbar = SmashElement.group_unit(labels["kappabar"], group, amb2)
    probe = SmashElement.embed(WeylElement.generator(1, amb2), group)
    rep.record(lambda: "theta_2(kappabar, y1)", theta2(kbar, probe))
    suites.append(_suite("higher-spin", rep, dims=dims))

    # The simplex identity fuzzer; a failure names its configuration.
    fuzzed = [simplex.fuzz(2, max(50, samples * 4), seed),
              simplex.fuzz(4, max(20, samples), seed + 1)]
    failure = next((r["first_failure"] for r in fuzzed if r["first_failure"]), None)
    rep = Report(seed, max_degree, checked=sum(r["count"] for r in fuzzed),
                 passed=sum(r["passed"] for r in fuzzed), first_failure=failure and str(failure))
    suites.append(_suite("simplex-identity", rep))
    return suites


def cmd_verify_all(ns) -> int:
    config = RunConfig("verify-all", seed=ns.seed, samples=ns.samples,
                       max_degree=ns.degree, out=ns.out, format=ns.format)
    suites = run_verify_all(ns.seed, ns.samples, ns.degree)
    ok = all(s["ok"] for s in suites)
    first_bad = next((s for s in suites if not s["ok"]), None)
    _emit({"ok": ok, "suites": suites,
           "first_failure": first_bad["name"] if first_bad else None}, config)
    return 0 if ok else 1


# -- thin command wrappers ------------------------------------------------------


def cmd_star(ns) -> int:
    payload = _load_json(ns.payload)
    ambient = ambient_from_json(payload)
    a = WeylElement(Poly.from_json(_field(payload, "a")), ambient)
    b = WeylElement(Poly.from_json(_field(payload, "b")), ambient)
    config = RunConfig("star", n=ambient.n, out=ns.out, format=ns.format)
    _emit({"result": star(a, b).to_json()}, config)
    return 0


def cmd_ffs_eval(ns) -> int:
    ambient, args = _parse_args_payload(_load_json(ns.args))
    config = RunConfig("ffs eval", n=ambient.n, out=ns.out, format=ns.format)
    total = sum(a.degree() for a in args)
    value = ffs_apply(cached_symbol(ambient.n, total), args)
    _emit({"result": value.to_json(), "budget_used": total}, config)
    return 0


def cmd_descent_eval(ns) -> int:
    ambient, args = _parse_args_payload(_load_json(ns.args))
    if ns.twist and ns.twist != "none":
        spec = _load_json(ns.twist)
        if "preset" in spec:
            _, preset_amb, labels, element = _parse_group_spec(spec)
            if preset_amb.n != ambient.n:
                raise ValueError("twist preset dimension does not match args")
            if element is None:
                raise ValueError("twist preset must name an element")
            gen = make_zeta_g(ambient, element)
        else:
            entries = [_scalar_from(x) for x in _list_from(spec, "diag")]
            if len(entries) != 2 * ambient.n:
                raise ValueError(f"diag must have {2 * ambient.n} entries")
            gen = make_zeta_g(ambient, GroupElement.diagonal(entries))
    else:
        gen = make_zeta(ambient)
    d = auto_budget(args, ambient.n) if ns.budget == "auto" else int(ns.budget)
    config = RunConfig("descent eval", n=ambient.n, budget=ns.budget,
                       out=ns.out, format=ns.format)
    value = descend(gen, args, budget=d)
    payload = {"result": value.to_json(), "budget_used": d}
    if ns.trace:
        trace = build_trace(gen, d)
        report = verify_descent(trace, seed=_default_seed())
        with open(ns.trace, "w") as fh:
            json.dump({"budget": d,
                       "lines": ["xi_top"] + [f"xi_{k}" for k in
                                              range(len(trace.xis) - 2, -1, -1)],
                       "verification": report.to_json()}, fh, indent=2)
        payload["trace"] = ns.trace
        payload["trace_ok"] = report.ok
    _emit(payload, config)
    return 0


def cmd_smash_dims(ns) -> int:
    group, ambient, labels, _ = _parse_group_spec(_load_json(ns.group))
    dims = {str(p): len(basis) for p, basis in sorted(afls_dims(group).items())}
    config = RunConfig("smash dims", n=ambient.n, format=ns.format, out=ns.out)
    _emit({"dims": dims}, config)
    return 0


def cmd_smash_theta(ns) -> int:
    group, ambient, labels, _ = _parse_group_spec(_load_json(ns.group))
    gamma_spec = _load_json(ns.gamma)
    values = {_group_element(labels, name): _scalar_from(v)
              for name, v in gamma_spec.items()}
    gamma = ClassFunction(group, values)
    args_spec = _load_json(ns.args)
    if ambient_from_json(args_spec) != ambient:
        raise ValueError("group preset dimension does not match args")
    smash_args = []
    for entry in _list_from(args_spec, "args"):
        if not isinstance(entry, dict):
            raise ValueError(f"smash argument must map group labels to polynomials, got {entry!r}")
        terms = {_group_element(labels, g): WeylElement(Poly.from_json(p), ambient)
                 for g, p in entry.items()}
        smash_args.append(SmashElement(group, ambient, terms))
    theta = theta_cocycle(group, ambient, gamma, ns.degree)
    value = theta(*smash_args)
    config = RunConfig("smash theta", n=ambient.n, format=ns.format, out=ns.out,
                       extra={"degree": ns.degree})
    result = {g.label or str(g): a.to_json() for g, a in value.terms.items()}
    _emit({"result": result}, config)
    return 0


def cmd_simplex_fuzz(ns) -> int:
    config = RunConfig("simplex fuzz", seed=ns.seed, samples=ns.count,
                       format=ns.format, out=ns.report,
                       extra={"dim": ns.dim})
    report = simplex.fuzz(ns.dim, ns.count, ns.seed)
    _emit({"report": report, "ok": report["failed"] == 0}, config)
    return 0 if report["failed"] == 0 else 1


# -- entry point ----------------------------------------------------------------


def _int_at_least(low: int):
    """An argparse type: an int no smaller than low (usage error otherwise)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylhh",
        description="Exact star-product cocycle construction and verification.")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-all", help="run every verification suite")
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--samples", type=_int_at_least(1), default=25)
    p.add_argument("--degree", type=_int_at_least(0), default=3)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify_all)

    p = sub.add_parser("star", help="star product of two elements")
    p.add_argument("payload", help="JSON {n, a, b} inline or a file path")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_star)

    p = sub.add_parser("ffs", help="simplex-symbol cocycle")
    ffs_sub = p.add_subparsers(dest="ffs_command", required=True)
    pe = ffs_sub.add_parser("eval")
    pe.add_argument("--args", required=True, help="JSON {n, args:[poly...]}")
    pe.add_argument("--out")
    pe.set_defaults(fn=cmd_ffs_eval)

    p = sub.add_parser("descent", help="resolution-route cocycle")
    d_sub = p.add_subparsers(dest="descent_command", required=True)
    pe = d_sub.add_parser("eval")
    pe.add_argument("--args", required=True)
    pe.add_argument("--twist", default="none",
                    help='"none", or JSON group spec ({preset, element} or {diag})')
    pe.add_argument("--budget", default="auto")
    pe.add_argument("--trace", help="write the audited descent trace here")
    pe.add_argument("--out")
    pe.set_defaults(fn=cmd_descent_eval)

    p = sub.add_parser("smash", help="smash-product cocycles")
    s_sub = p.add_subparsers(dest="smash_command", required=True)
    pd = s_sub.add_parser("dims")
    pd.add_argument("--group", required=True)
    pd.add_argument("--out")
    pd.set_defaults(fn=cmd_smash_dims)
    pt = s_sub.add_parser("theta")
    pt.add_argument("--group", required=True)
    pt.add_argument("--gamma", required=True)
    pt.add_argument("--args", required=True)
    pt.add_argument("--degree", type=_int_at_least(0), default=2)
    pt.add_argument("--out")
    pt.set_defaults(fn=cmd_smash_theta)

    p = sub.add_parser("simplex", help="simplex characteristic function")
    x_sub = p.add_subparsers(dest="simplex_command", required=True)
    pf = x_sub.add_parser("fuzz")
    pf.add_argument("--dim", type=int, choices=(2, 4), required=True)
    pf.add_argument("--count", type=_int_at_least(1), default=100)
    pf.add_argument("--seed", type=int, default=_default_seed())
    pf.add_argument("--report")
    pf.set_defaults(fn=cmd_simplex_fuzz)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        return ns.fn(ns)
    except BudgetError as exc:
        print(f"budget insufficient: {exc}", file=sys.stderr)
        return 3
    except (WeylhhError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        sys.__excepthook__(*sys.exc_info())  # the interpreter's own traceback
        return 4


if __name__ == "__main__":
    sys.exit(main())
