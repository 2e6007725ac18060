"""weylhh benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload sweep-n2 --seed 1 --seconds 42 --trace 0

Run from the root of a checkout.  Every run starts fresh interpreters
(bench/worker.py), so weylhh's caches start cold as they do for a CLI user.
With --trace 0 the run starts its timed workers, which all do the same
work, with set-up-only workers before, between and after them, and prints
the end-to-end metrics.  Every time is a median over repeats of the same
work (see workloads.Outcome): each evaluation's time, segment by segment,
is the median over the timed workers.  With --trace 1 it runs the workload
untraced and then traced, and prints the per-layer metrics plus the tracing
overhead.
Standard output ends with two lines: "# " and a JSON object of details
(size, digests and their check against bench/digests.json, errors,
failed_ratio, which percentile eval_ms.tail is), then the result, one JSON
object {"correct", "attempted", "failed", "metrics"}.

The load is a closed loop with one client in one process.  --seconds sets how
many timed workers a --trace 0 run starts, each doing the workload's fixed
work once; it is not a clock limit, so a seed and a size always give the
same outputs and digest.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sweep-n2", "verify-all")
# About how long one timed worker takes, set-up included, on the 2-core
# machine the benchmark was tuned on: a --trace 0 run starts --seconds over
# this many timed workers (at least one).
WORKER_SECONDS = {"sweep-n2": 16, "verify-all": 8}
# Extra workers that stop after set-up; every worker gives a set-up sample.
SETUP_ONLY = {"sweep-n2": 0, "verify-all": 3}
PERCENTILES = (50, 90, 99, 99.9)
DEADLINE_S = 175
TRACE_DIR = ".bench_trace"


class WorkerError(RuntimeError):
    pass


def spawn(config: dict, deadline: float) -> dict:
    """Run one worker to completion; set-up time counts from process start."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(config)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["t_ready"] - started
    return result


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list; 0 when it is empty."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def typical(results) -> list:
    """Each evaluation's time, every segment its median over the workers.

    The workers did the same work in the same order.  Should they split an
    evaluation into different numbers of segments, it is taken whole.
    """
    times = []
    for repeats in zip(*(result["latencies"] for result in results)):
        if len({len(segments) for segments in repeats}) == 1:
            times.append(sum(map(statistics.median, zip(*repeats))))
        else:
            times.append(statistics.median(map(sum, repeats)))
    return times


def rate(results) -> float:
    """Evaluations per second of the evaluations' median times (0 if none ran)."""
    total = sum(typical(results))
    return results[0]["evaluations"] / total if total else 0.0


def tail_percentile(n: int) -> float:
    """The highest listed percentile with at least ten samples beyond it."""
    fitting = [p for p in PERCENTILES if n * (1 - p / 100) >= 10]
    return fitting[-1] if fitting else 100.0


def load_digests() -> dict:
    with open(BENCH / "digests.json") as fh:
        return json.load(fh)


def check_digest(workload: str, seed: int, result: dict) -> str:
    """'match', 'mismatch', or 'unrecorded' against the recorded digest."""
    want = load_digests().get(workload)
    if not want or want["seed"] != seed or want["size"] != result["size"]:
        return "unrecorded"
    return "match" if want["sha256"] == result["digest"] else "mismatch"


def tally(workload: str, seed: int, results) -> tuple:
    """(attempted, failed, detail) over workers, digest gate applied.

    Every worker of a run computes the same values, so their digests must
    agree with each other as well as with the recorded one.
    """
    attempted = failed = 0
    detail = {"workload": workload, "seed": seed, "size": results[0]["size"],
              "digests": [], "errors": []}
    repeat_ok = len({result["digest"] for result in results}) == 1
    if not repeat_ok:
        detail["errors"].append("workers of one seed gave different digests")
    for result in results:
        verdict = check_digest(workload, seed, result)
        detail["digests"].append({"sha256": result["digest"], "check": verdict})
        detail["errors"] += result["errors"]
        attempted += result["attempted"]
        # Which value changed is unknown, so a digest mismatch fails them all.
        bad = verdict == "mismatch" or not repeat_ok
        failed += result["attempted"] if bad else result["failed"]
    detail["failed_ratio"] = failed / attempted if attempted else 1.0
    return attempted, failed, detail


def end_to_end(args, deadline: float) -> tuple:
    """Timed workers, with the set-up-only workers spread around them.

    The extra set-ups go round-robin into the gaps before, between and after
    the timed workers, so set-up and timed work are sampled across the run.
    """
    base = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "size": args.size}
    timed = max(1, round(args.seconds / WORKER_SECONDS[args.workload]))
    extra = SETUP_ONLY[args.workload]
    gaps = [0] * (timed + 1)
    for k in range(extra):
        gaps[k % len(gaps)] += 1
    setups, mains = [], []
    for gap, count in enumerate(gaps):
        for _ in range(count):
            setups.append(spawn(dict(base, setup_only=True), deadline)["setup_s"])
        if gap < timed:
            mains.append(spawn(dict(base, negative_control=args.negative_control),
                               deadline))
            setups.append(mains[-1]["setup_s"])
    latencies = sorted(typical(mains))
    tail = tail_percentile(len(latencies))
    metrics = {
        "evals_per_s": (rate(mains), "1/s"),
        "eval_ms.p50": (1000 * percentile(latencies, 50), "ms"),
        "eval_ms.tail": (1000 * percentile(latencies, tail), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(m["rss_mb"] for m in mains), "MB"),
    }
    attempted, failed, detail = tally(args.workload, args.seed, mains)
    segments = [[len(segs) for segs in main["latencies"]] for main in mains]
    detail.update(tail_percentile=tail, latency_samples=len(latencies),
                  worker_times_s=[sum(map(sum, m["latencies"])) for m in mains],
                  median_time_s=sum(latencies), segments=sum(segments[0]),
                  segments_agree=all(s == segments[0] for s in segments),
                  setup_samples_s=setups)
    return metrics, attempted, failed, detail


def layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    return "ratio" if name.endswith(("_ratio", ".self_share")) else "count"


def per_layer(args, deadline: float) -> tuple:
    base = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "size": args.size,
            "negative_control": args.negative_control}
    trace_dir = ROOT / TRACE_DIR
    trace_dir.mkdir(exist_ok=True)
    trace_out = trace_dir / f"{args.workload}-seed{args.seed}.json.gz"
    plain = spawn(base, deadline)
    traced = spawn(dict(base, trace=True, trace_out=str(trace_out)), deadline)
    metrics = {name: (value, layer_unit(name))
               for name, value in traced["layers"].items()}
    metrics["trace.overhead_ratio"] = (rate([plain]) / rate([traced]), "ratio")
    attempted, failed, detail = tally(args.workload, args.seed, [plain, traced])
    detail.update(spans=traced["spans"], span_file=str(trace_out.relative_to(ROOT)),
                  self_time_s=traced["self_times"])
    detail["overhead_note"] = ("one untraced and one traced pass: an "
                               "overhead below about 20% is not readable")
    return metrics, attempted, failed, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int,
                        help="override the workload size (sweep-n2 "
                             "monomials or verify-all --samples); for self-tests")
    parser.add_argument("--negative-control", action="store_true",
                        help="change one coefficient of one value before "
                             "its check; the run must count it as failed")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "weylhh" / "__init__.py").is_file():
        print(f"error: no weylhh sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed, detail = measure(args, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("# " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
