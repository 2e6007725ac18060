"""Self-test of the benchmark itself, at tiny sizes.

    python3 bench/selftest.py

For each workload it checks that a run prints every end-to-end metric, and a
traced run every per-layer metric, named in BENCHMARK.json with its unit;
that two runs of one seed give one digest and two timed workers the same
timed segments; and that the negative control (one
coefficient of one value changed before its check) is counted as failed.  It
also checks that workers of one seed whose digests differ fail every
evaluation, that timed segments are combined by their medians, that the
claim seed runs a verify-all command that no default or tuning seed runs,
and that the benchmark refuses to run, printing no result, in a directory
that holds only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from baseline import CLAIM_SEED, DEFAULT_SEED, TUNING_SEEDS  # noqa: E402
import run as bench_run  # noqa: E402
from workloads import VerifyAll  # noqa: E402
TINY = {"sweep-n2": 3, "verify-all": 2}
SEED = 0


def run(*args: str, cwd: Path = ROOT) -> tuple:
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def result_of(lines) -> dict:
    return json.loads(lines[-1])


def digest_of(lines) -> str:
    return json.loads(lines[-2][2:])["digests"][0]["sha256"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    for workload, size in TINY.items():
        # Two timed workers, so that their timed segments are combined.
        seconds = 2 * bench_run.WORKER_SECONDS[workload]
        base = ["--workload", workload, "--seed", str(SEED), "--seconds",
                str(seconds), "--size", str(size)]
        digests = []
        for trace in (0, 1, 0):
            code, lines, err = run(*base, "--trace", str(trace))
            expect(code == 0, f"{workload} trace {trace}: exit 0 ({err.strip()[-300:]})")
            if code != 0:
                continue
            result = result_of(lines)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{workload} trace {trace}: result keys")
            expect(units == wanted[trace], f"{workload} trace {trace}: every "
                   f"metric with its unit (missing {sorted(set(wanted[trace]) - set(units))}, "
                   f"extra {sorted(set(units) - set(wanted[trace]))})")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{workload} trace {trace}: correct, nothing failed")
            if trace == 0:
                digests.append(digest_of(lines))
                detail = json.loads(lines[-2][2:])
                expect(len(detail["worker_times_s"]) == 2 and detail["segments_agree"],
                       f"{workload}: two timed workers split the work into the "
                       f"same {detail['segments']} segments")
        expect(len(digests) == 2 and digests[0] == digests[1],
               f"{workload}: one digest for one seed {digests}")
        code, lines, err = run(*base, "--trace", "0", "--negative-control")
        result = result_of(lines) if code == 0 else {}
        expect(code == 0 and not result["correct"] and result["failed"] >= 1,
               f"{workload}: negative control counted as failed "
               f"({result.get('failed')} of {result.get('attempted')})")

    workers = [{"size": 1, "digest": d, "errors": [], "attempted": 3, "failed": 0}
               for d in ("a", "b")]
    _, failed, _ = bench_run.tally("sweep-n2", 5, workers)
    expect(failed == 6, "workers of one seed with different digests fail "
           f"every evaluation ({failed} of 6)")
    split = [{"latencies": [[1.0, 4.0], [2.0]]},
             {"latencies": [[3.0, 2.0], [1.0, 0.5]]},
             {"latencies": [[5.0, 3.0], [1.0, 2.0]]}]
    times = bench_run.typical(split)
    expect(times == [6.0, 2.0], "each segment its median, an evaluation "
           f"split differently taken whole ({times})")

    tuned = {seed: VerifyAll(seed).argv for seed in (DEFAULT_SEED, *TUNING_SEEDS)}
    claim = VerifyAll(CLAIM_SEED).argv
    expect(claim not in tuned.values(),
           f"verify-all: claim seed {CLAIM_SEED} runs {claim}, which no "
           f"tuning or default seed runs")

    bare = ROOT / ".bench_selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, lines, _ = run("--workload", "sweep-n2", "--seed", "0",
                             "--seconds", "1", "--trace", "0", cwd=bare)
        expect(code != 0 and not any(line.startswith("{") for line in lines),
               "refuses to run without the weylhh sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
