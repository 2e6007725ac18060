"""Golden corpus: the README's CLI examples, compared byte for byte.

Each case runs `weylhh.cli.main` in an empty working directory and compares
its standard output, and every file it writes there, with the files under
`tests/golden/`.  Payloads live in `tests/golden/payloads/`.

Regenerate (only when an output change is intended and explained):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

import pytest

from weylhh.cli import main

GOLDEN = Path(__file__).parent / "golden"
PAYLOADS = GOLDEN / "payloads"
HIGHER_SPIN = '{"preset":"higher-spin-4d"}'

# name -> (argv, files the command writes into its working directory)
CASES = {
    "star": (["--format", "json", "star", "{payloads}/star.json"], []),
    "ffs_eval": (["--format", "json", "ffs", "eval",
                  "--args", "{payloads}/ffs_args.json"], []),
    "ffs_eval_cyclic_n3": (["--format", "json", "ffs", "eval",
                            "--args", "{payloads}/cyclic_n3_args.json"], []),
    "descent_eval": (["--format", "json", "descent", "eval",
                      "--args", "{payloads}/descent_args.json"], []),
    "ffs_eval_n6": (["--format", "json", "ffs", "eval",
                     "--args", "{payloads}/volume_n6_args.json"], []),
    "descent_eval_n6": (["--format", "json", "descent", "eval",
                         "--args", "{payloads}/volume_n6_args.json"], []),
    "descent_eval_twisted": (["--format", "json", "descent", "eval",
                              "--args", "{payloads}/descent_args.json",
                              "--twist", '{"diag":["-1","-1"]}',
                              "--budget", "auto", "--trace", "trace.json"],
                             ["trace.json"]),
    "smash_dims": (["--format", "json", "smash", "dims",
                    "--group", HIGHER_SPIN], []),
    "smash_theta": (["--format", "json", "smash", "theta",
                     "--group", HIGHER_SPIN, "--gamma", '{"kappa":"1"}',
                     "--args", "{payloads}/smash_args.json", "--degree", "2"],
                    []),
    "smash_theta_degree0": (["--format", "json", "smash", "theta",
                             "--group", HIGHER_SPIN, "--gamma", '{"1":"1"}',
                             "--args", '{"n":2,"args":[]}', "--degree", "0"],
                            []),
    "simplex_fuzz": (["--format", "json", "simplex", "fuzz", "--dim", "2",
                      "--count", "1000", "--seed", "7", "--report", "out.json"],
                     ["out.json"]),
    "verify_all_seed0": (["--format", "json", "verify-all", "--samples", "4",
                          "--seed", "0"], []),
    "verify_all_seed5": (["--format", "json", "verify-all", "--samples", "4",
                          "--seed", "5"], []),
}


def run_case(name: str, workdir: Path) -> dict:
    """Run one case in workdir; return {golden file name: bytes}."""
    argv, written = CASES[name]
    argv = [a.replace("{payloads}", str(PAYLOADS)) for a in argv]
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code == 0, f"{name} exited {code}"
    files = {f"{name}.stdout": out.getvalue().encode()}
    for fname in written:
        files[f"{name}.{fname}"] = (workdir / fname).read_bytes()
    return files


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    for fname, data in run_case(name, tmp_path).items():
        assert data == (GOLDEN / fname).read_bytes(), fname


if __name__ == "__main__":
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            for fname, data in run_case(case, Path(tmp)).items():
                (GOLDEN / fname).write_bytes(data)
                print(f"wrote {fname} ({len(data)} bytes)", file=sys.stderr)
