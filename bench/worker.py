"""One benchmark worker: a fresh interpreter that sets up and runs a workload.

Usage (from run.py): python3 bench/worker.py '<json config>'

The config names the workload, seed, seconds, size, whether to stop after
set-up, whether to trace, and whether to apply the negative control.  The
worker prints one JSON line with its results; `t_ready` is read from the
system-wide monotonic clock so the parent can measure set-up from the moment
it started the process.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def digest(values) -> str:
    """SHA-256 over the canonical JSON of every computed value, in order."""
    sha = hashlib.sha256()
    for value in values:
        sha.update(json.dumps(value, sort_keys=True, separators=(",", ":")).encode())
        sha.update(b"\n")
    return sha.hexdigest()


def main(config: dict) -> dict:
    import weylhh
    import workloads

    src = (ROOT / "src").resolve()
    if src not in Path(weylhh.__file__).resolve().parents:
        raise RuntimeError(f"weylhh imported from {weylhh.__file__}, not {src}")
    workload = workloads.WORKLOADS[config["workload"]](
        config["seed"], config.get("size"))
    recorder = None
    if config.get("trace"):
        import weylhh.cli  # noqa: F401  (load every module before wrapping)
        import tracer

        recorder = tracer.Recorder()
        recorder.install()
    if recorder is not None:
        recorder.span("bench.setup", workload.setup)
    else:
        workload.setup()
    result = {"t_ready": time.monotonic(), "size": workload.size}
    if config.get("setup_only"):
        return result
    out = workloads.Outcome()
    workload.run(out, recorder, bool(config.get("negative_control")))
    if recorder is not None:
        recorder.remove()
        result["layers"] = recorder.layer_metrics()
        result["self_times"] = recorder.self_times()
        if config.get("trace_out"):
            recorder.write_spans(config["trace_out"],
                                 {k: config[k] for k in ("workload", "seed", "seconds")})
            result["spans"] = len(recorder.spans)
    result.update(
        latencies=out.latencies, evaluations=out.evaluations,
        attempted=out.attempted,
        failed=min(out.failed, out.attempted), errors=out.errors,
        digest=digest(out.values),
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
