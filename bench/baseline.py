"""Record the benchmark's baseline: every workload over several seeds.

    python3 bench/baseline.py                      # writes bench/baseline.json
    python3 bench/baseline.py --record-digests     # writes bench/digests.json

For each workload it makes one --trace 0 run per tuning seed and reports, for every
end-to-end metric, the median, the quartiles (statistics.quantiles, n=4) and
the spread (quartile distance over median).  It adds one run on the claim
seed, which is kept out of tuning so that later claims can be checked on it,
and one --trace 1 run for the per-layer numbers.  --record-digests instead
runs every workload once on the default seed and stores its output digest,
which every later run on that seed must reproduce.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import VerifyAll  # noqa: E402  (needs weylhh on the path)

DEFAULT_SEED = 0
# Kept out of tuning; on verify-all it runs a CLI seed no seed 0-10 runs.
CLAIM_SEED = 119
TUNING_SEEDS = tuple(range(1, 11))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """(result, detail) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: "
                           f"{proc.stderr.strip()[-1000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2][2:])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            return next((line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name")), "unknown")
    except OSError:
        return "unknown"


def summary(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def record_digests(spec: dict) -> None:
    digests = {}
    for workload in (w["name"] for w in spec["workloads"]):
        _, detail = run(workload, DEFAULT_SEED, spec["run_seconds"], 0)
        # A mismatch with the old digest is what re-recording is for; any
        # other failure is listed in the errors.
        if detail["errors"]:
            raise RuntimeError(f"{workload}: run not correct: {detail}")
        digests[workload] = {"seed": DEFAULT_SEED, "size": detail["size"],
                             "sha256": detail["digests"][0]["sha256"]}
        print(workload, digests[workload], flush=True)
    (BENCH / "digests.json").write_text(json.dumps(digests, indent=2) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if args.record_digests:
        record_digests(spec)
        return 0
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    report = {
        "about": "Medians and quartiles of each end-to-end metric over the "
                 "tuning seeds, one --trace 0 run per seed; one run on the "
                 "claim seed; per-layer metrics from one --trace 1 run on "
                 "the first tuning seed.",
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                    "cpu": cpu_model()},
        "run_seconds": spec["run_seconds"],
        "seeds": TUNING_SEEDS, "claim_seed": CLAIM_SEED, "default_seed": DEFAULT_SEED,
        "verify_all_claim_argv": VerifyAll(CLAIM_SEED).argv,
        "workloads": {},
    }
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values = {name: [] for name in units}
        runs = []
        for seed in TUNING_SEEDS:
            result, detail = run(workload, seed, spec["run_seconds"], 0)
            ok &= result["correct"]
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"],
                         "tail_percentile": detail["tail_percentile"],
                         "latency_samples": detail["latency_samples"]})
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(workload, seed, {k: round(v[-1], 5) for k, v in values.items()},
                  flush=True)
        claim, _ = run(workload, CLAIM_SEED, spec["run_seconds"], 0)
        traced, trace_detail = run(workload, TUNING_SEEDS[0], spec["run_seconds"], 1)
        ok &= claim["correct"] and traced["correct"]
        entry = {
            "why": why[workload],
            "runs": runs,
            "end_to_end": {name: dict(unit=units[name], bound=bounds[name],
                                      **summary(v)) for name, v in values.items()},
            "claim_seed": {name: m["value"] for name, m in claim["metrics"].items()},
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "self_time_s": trace_detail["self_time_s"],
        }
        report["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            print(f"{workload:11} {name:13} median {s['median']:.5g} "
                  f"spread {s['spread']:.3f} (bound {s['bound']})", flush=True)
    (BENCH / "baseline.json").write_text(json.dumps(report, indent=1) + "\n")
    print("all runs correct" if ok else "SOME RUNS NOT CORRECT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
