import json
import os
import random
import re
import shlex
import subprocess
import sys
import time

import pytest

import weylhh
from weylhh import cli, descent, simplex
from weylhh.cli import _suite, build_parser, main
from weylhh.hochschild import Report
from weylhh.poly import Poly, Y
from weylhh.scalars import Scalar
from weylhh.weyl import WeylElement

Y1 = {"terms": [{"coeff": {"re": ["1", "1"], "im": ["0", "1"]},
                 "exps": [["Y", 1, 1]]}]}
Y2 = {"terms": [{"coeff": {"re": ["1", "1"], "im": ["0", "1"]},
                 "exps": [["Y", 2, 1]]}]}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_star_command(capsys):
    code, out = run(capsys, "--format", "json", "star",
                    json.dumps({"n": 1, "a": Y1, "b": Y2}))
    assert code == 0
    payload = json.loads(out)
    assert payload["version"]
    assert payload["config"]["command"] == "star"
    terms = payload["result"]["terms"]
    # y1 * y2 = y1 y2 + i
    assert {"coeff": {"re": ["0", "1"], "im": ["1", "1"]}, "exps": []} in terms


def test_ffs_eval(capsys):
    code, out = run(capsys, "--format", "json", "ffs", "eval",
                    "--args", json.dumps({"n": 1, "args": [Y1, Y2]}))
    assert code == 0
    result = json.loads(out)["result"]
    assert result["terms"] == [
        {"coeff": {"re": ["1", "2"], "im": ["0", "1"]}, "exps": []}]


def test_descent_eval_with_trace(capsys, tmp_path):
    trace = tmp_path / "trace.json"
    code, out = run(capsys, "--format", "json", "descent", "eval",
                    "--args", json.dumps({"n": 1, "args": [Y1, Y2]}),
                    "--twist", "none", "--trace", str(trace))
    assert code == 0
    payload = json.loads(out)
    assert payload["trace_ok"] is True
    assert payload["result"]["terms"][0]["coeff"]["re"] == ["1", "2"]
    saved = json.loads(trace.read_text())
    assert saved["verification"]["passed"] == saved["verification"]["checked"]


def test_descent_eval_twisted(capsys):
    code, out = run(capsys, "--format", "json", "descent", "eval",
                    "--args", json.dumps({"n": 1, "args": [Y1, Y2]}),
                    "--twist", json.dumps({"diag": ["-1", "-1"]}))
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["terms"][0]["coeff"]["re"] == ["-1", "2"]


def test_descent_eval_identity_twist(capsys):
    # The identity twist's generator is a 0-form: it takes no argument, and
    # its value is 1 to the automatic budget 2n + 4.
    code, out = run(capsys, "--format", "json", "descent", "eval",
                    "--args", json.dumps({"n": 1, "args": []}),
                    "--twist", json.dumps({"diag": ["1", "1"]}))
    assert code == 0
    result = json.loads(out)["result"]
    assert result["terms"] == [
        {"coeff": {"re": ["1", "1"], "im": ["0", "1"]}, "exps": []}]
    assert result["truncation"] == 6


def test_descent_budget_exit_code(capsys):
    big = {"terms": [{"coeff": {"re": ["1", "1"], "im": ["0", "1"]},
                      "exps": [["Y", 1, 2]]}]}
    code, _ = run(capsys, "descent", "eval",
                  "--args", json.dumps({"n": 1, "args": [big, big]}),
                  "--budget", "1")
    assert code == 3
    # A budget the whole tuple admits but its last argument's product does
    # not is refused by the precheck, which names that suffix.
    one = {"terms": [{"coeff": {"re": ["1", "1"], "im": ["0", "1"]}, "exps": []}]}
    y2sq = {"terms": [{"coeff": {"re": ["1", "1"], "im": ["0", "1"]},
                       "exps": [["Y", 2, 2]]}]}
    code = main(["descent", "eval", "--args", json.dumps({"n": 1, "args": [one, y2sq]}),
                 "--budget", "0"])
    assert code == 3
    assert capsys.readouterr().err == (
        "budget insufficient: budget 0 is below 1, the last 1 argument "
        "degrees [2] less one per homotopy\n")


def test_unstable_descent_exits_3_naming_residual(capsys, monkeypatch):
    # A budget+2 recheck that disagrees is a budget error, exit 3, and the
    # message names where the two values first differ.
    real = descent.SuffixCache.value

    def unstable(self, args):
        value = real(self, args)
        return WeylElement(value.poly + Poly.variable(Y, 1, Scalar.of(self.budget)),
                           value.ambient, value.truncation)

    monkeypatch.setattr(descent.SuffixCache, "value", unstable)
    code = main(["descent", "eval", "--args", json.dumps({"n": 1, "args": [Y1, Y2]})])
    err = capsys.readouterr().err
    assert code == 3
    assert "first nonzero at degree 1, (2)y1;" in err


def test_smash_dims(capsys):
    code, out = run(capsys, "--format", "json", "smash", "dims",
                    "--group", json.dumps({"preset": "higher-spin-4d"}))
    assert code == 0
    assert json.loads(out)["dims"] == {"0": 1, "2": 2, "4": 1}


def test_smash_theta(capsys):
    code, out = run(capsys, "--format", "json", "smash", "theta",
                    "--group", json.dumps({"preset": "higher-spin-4d"}),
                    "--gamma", json.dumps({"kappa": "1"}),
                    "--args", json.dumps({"n": 2, "args": [{"1": Y1}, {"1": Y2}]}),
                    "--degree", "2")
    assert code == 0
    result = json.loads(out)["result"]
    assert list(result) == ["kappa"]
    assert result["kappa"]["terms"][0]["coeff"]["re"] == ["-1", "2"]


def test_simplex_fuzz(capsys):
    code, out = run(capsys, "--format", "json", "simplex", "fuzz",
                    "--dim", "2", "--count", "40", "--seed", "9")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["passed"] == 40 and report["failed"] == 0


def test_failed_fuzz_identity_exits_1(capsys, monkeypatch):
    # Exit 1 means a mathematical identity failed: every sampled
    # configuration fails, and the first one drawn is named.
    monkeypatch.setattr(simplex, "tid_check", lambda config: False)
    code, out = run(capsys, "--format", "json", "simplex", "fuzz",
                    "--dim", "2", "--count", "5", "--seed", "9")
    assert code == 1
    payload = json.loads(out)
    report = payload["report"]
    assert payload["ok"] is False
    assert (report["passed"], report["failed"], report["count"]) == (0, 5, 5)
    # The first configuration seed 9 draws, each coordinate a/b in lowest
    # terms (the text these reports have always printed).
    assert report["first_failure"] == [["3", "-32/3"], ["-53", "-7/4"], ["27", "-15"],
                                       ["86/7", "-57/8"]]


def test_failed_route_agreement_exits_1(capsys, monkeypatch):
    # A unit-square route that reads zero disagrees with the symbol on every
    # pair with a value; verify-all names the first suite that failed.
    monkeypatch.setattr(cli, "ffs_hypercube_n1",
                        lambda args: WeylElement(Poly.zero(), args[0].ambient))
    code, out = run(capsys, "--format", "json", "verify-all",
                    "--samples", "3", "--degree", "2", "--seed", "3")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["first_failure"] == "route-agreement-n1"
    assert [s["name"] for s in payload["suites"] if not s["ok"]] == ["route-agreement-n1"]
    failure = payload["suites"][4]["detail"]["first_failure"]
    assert re.fullmatch(r"unit square on \(.+\): residual .+ at degree \d+", failure)


def test_verify_all_small(capsys):
    code, out = run(capsys, "--format", "json", "verify-all",
                    "--samples", "4", "--degree", "2", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    names = [s["name"] for s in payload["suites"]]
    assert names == ["weyl-invariants", "form-homotopy", "ffs-cocycle-n1",
                     "ffs-cocycle-n2", "route-agreement-n1", "twisted-minus",
                     "higher-spin", "simplex-identity"]


def test_verify_all_seed_independent_verdict(capsys):
    # exactness: different seeds check different tuples but the verdict is
    # always a pass
    for seed in (1, 2, 5):
        code, out = run(capsys, "--format", "json", "verify-all",
                        "--samples", "3", "--degree", "2", "--seed", str(seed))
        assert code == 0
        assert json.loads(out)["ok"] is True


def test_text_and_json_agree(capsys):
    code_j, out_j = run(capsys, "--format", "json", "ffs", "eval",
                        "--args", json.dumps({"n": 1, "args": [Y1, Y2]}))
    code_t, out_t = run(capsys, "ffs", "eval",
                        "--args", json.dumps({"n": 1, "args": [Y1, Y2]}))
    assert code_j == code_t == 0
    result = json.loads(out_j)["result"]
    assert json.dumps(result) in out_t


def test_usage_error_exit_code(capsys):
    code, _ = run(capsys, "smash", "dims", "--group",
                  json.dumps({"preset": "unknown"}))
    assert code == 2


def test_seed_from_environment(monkeypatch):
    monkeypatch.setenv("WEYLHH_SEED", "7")
    assert build_parser().parse_args(["simplex", "fuzz", "--dim", "2"]).seed == 7
    assert build_parser().parse_args(["verify-all", "--seed", "5"]).seed == 5


def test_malformed_seed_environment_exits_2(capsys, monkeypatch):
    # The default seed is read from the environment before any command runs,
    # so a malformed value is refused even when --seed is given.
    monkeypatch.setenv("WEYLHH_SEED", "abc")
    code = main(["verify-all", "--seed", "5", "--samples", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: WEYLHH_SEED") and "Traceback" not in err


def test_unexpected_exception_exits_4(capsys, monkeypatch):
    import weylhh.cli

    def broken(ns):
        raise RuntimeError("kernel bug")

    monkeypatch.setattr(weylhh.cli, "cmd_star", broken)
    code = main(["star", json.dumps({"n": 1, "a": Y1, "b": Y2})])
    assert code == 4
    out, err = capsys.readouterr()
    assert "Traceback" in err and "RuntimeError: kernel bug" in err
    assert out == ""


# -- malformed input exits 2 (usage error), never 1 (a failed identity) --------

def _poly(exps, coeff=None):
    return {"terms": [{"coeff": coeff or {"re": ["1", "1"], "im": ["0", "1"]},
                       "exps": exps}]}


EMPTY = {"terms": []}


@pytest.mark.parametrize("payload", [
    # zero denominator in a coefficient
    '{"n":1,"a":{"terms":[{"coeff":{"re":["1","0"],"im":["0","1"]},'
    '"exps":[["Y",1,1]]}]},"b":{"terms":[]}}',
    # negative exponent, index 0, a bank other than Y or Z
    json.dumps({"n": 1, "a": _poly([["Y", 1, -2]]), "b": Y1}),
    json.dumps({"n": 1, "a": _poly([["Y", 0, 1]]), "b": Y1}),
    json.dumps({"n": 1, "a": _poly([["T", 1, 1]]), "b": Y1}),
    # n not an int, missing, below 1 or past 256 (y_1 .. y_2n need indices
    # up to 512), a top-level list
    json.dumps({"n": 1.9, "a": EMPTY, "b": EMPTY}),
    json.dumps({"n": "1", "a": EMPTY, "b": EMPTY}),
    json.dumps({"a": EMPTY, "b": EMPTY}),
    json.dumps({"n": 0, "a": EMPTY, "b": EMPTY}),
    json.dumps({"n": 257, "a": EMPTY, "b": EMPTY}),
    json.dumps({"n": 10**9, "a": EMPTY, "b": EMPTY}),
    json.dumps([{"n": 1, "a": Y1, "b": Y2}]),
])
def test_star_rejects_malformed_payload(capsys, payload):
    assert main(["star", payload]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize("n", [257, 10**9])
@pytest.mark.parametrize("command", [["ffs", "eval"], ["descent", "eval"]])
def test_args_payload_rejects_n_past_256(capsys, command, n):
    payload = json.dumps({"n": n, "args": [Y1, Y2]})
    assert main([*command, "--args", payload]) == 2
    assert "n must be an integer in 1..256" in capsys.readouterr().err


def test_star_at_largest_n(capsys):
    code, out = run(capsys, "--format", "json", "star",
                    json.dumps({"n": 256, "a": Y1, "b": Y2}))
    assert code == 0
    assert {"coeff": {"re": ["0", "1"], "im": ["1", "1"]}, "exps": []} in (
        json.loads(out)["result"]["terms"])


@pytest.mark.parametrize("a, b", [
    (_poly([["Y", 1, 256]]), Y1),   # does not fit its field
    (_poly([["Y", 1, 255]]), Y1),   # fits, but the product's field would reach 256
])
def test_star_rejects_exponent_past_field(capsys, a, b):
    assert main(["star", json.dumps({"n": 1, "a": a, "b": b})]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize("payload", [
    json.dumps({"n": 0, "args": []}),
    json.dumps({"n": 1, "args": [_poly([["Y", 1, -2]]), Y2]}),
    json.dumps([Y1, Y2]),
    json.dumps({"n": 1, "args": Y1}),
    json.dumps({"n": 1, "args": []}),
])
def test_ffs_eval_rejects_malformed_args(capsys, payload):
    assert main(["ffs", "eval", "--args", payload]) == 2


@pytest.mark.parametrize("argv, field", [
    (["star", json.dumps({"n": 1, "b": Y2})], "a"),
    (["star", json.dumps({"n": 1, "a": Y1})], "b"),
    (["ffs", "eval", "--args", json.dumps({"n": 1})], "args"),
    (["descent", "eval", "--args", json.dumps({"n": 1})], "args"),
    (["smash", "theta", "--group", json.dumps({"preset": "higher-spin-4d"}),
      "--gamma", json.dumps({"kappa": "1"}), "--args", json.dumps({"n": 2})], "args"),
])
def test_missing_payload_field_is_named(capsys, argv, field):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: payload has no {field!r} field\n"


@pytest.mark.parametrize("twist", [
    '{"diag":["1/0","1"]}', '{"diag":["1.5","1"]}', '{"diag":"-1"}',
    # not symplectic; wrong size; a preset without an element
    '{"diag":["2","2"]}', '{"diag":["-1","-1","-1","-1"]}',
    '{"preset":"higher-spin-4d"}',
])
def test_descent_twist_rejects_malformed_spec(capsys, twist):
    n = 2 if "preset" in twist else 1
    args = [Y1] * (2 * n)
    code = main(["descent", "eval", "--args", json.dumps({"n": n, "args": args}),
                 "--twist", twist])
    assert code == 2


KNOWN_LABELS = "known labels: 1, kappa, kappabar, kappakappabar"
PRESET = json.dumps({"preset": "higher-spin-4d"})


@pytest.mark.parametrize("gamma, args, label", [
    ({"nope": "1"}, [{"1": Y1}, {"1": Y2}], "nope"),
    ({"kappa": "1"}, [{"1": Y1}, {"zzz": Y2}], "zzz"),
])
def test_smash_theta_names_unknown_label(capsys, gamma, args, label):
    code = main(["smash", "theta", "--group", PRESET, "--gamma", json.dumps(gamma),
                 "--args", json.dumps({"n": 2, "args": args})])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: unknown group label {label!r}; {KNOWN_LABELS}\n")


SMASH_THETA = ["smash", "theta", "--group", PRESET, "--degree", "2"]


@pytest.mark.parametrize("argv, message", [
    (["smash", "dims", "--group", "{}"], "group spec must name a preset"),
    ([*SMASH_THETA, "--gamma", json.dumps({"kappa": 1.5}),
      "--args", json.dumps({"n": 2, "args": [{"1": Y1}, {"1": Y2}]})],
     "cannot parse scalar from 1.5"),
    ([*SMASH_THETA, "--gamma", json.dumps({"kappa": "1"}),
      "--args", json.dumps({"n": 2, "args": [[Y1], {"1": Y2}]})],
     f"smash argument must map group labels to polynomials, got {[Y1]!r}"),
    ([*SMASH_THETA, "--gamma", json.dumps({"kappa": "1"}),
      "--args", json.dumps({"n": 2, "args": []})],
     "cochain of arity 2 got 0 arguments"),
    # The args payload's n is read as every command reads it, and must be
    # the preset's.
    ([*SMASH_THETA, "--gamma", json.dumps({"kappa": "1"}),
      "--args", json.dumps({"n": 1, "args": [{"1": Y1}, {"1": Y2}]})],
     "group preset dimension does not match args"),
    ([*SMASH_THETA, "--gamma", json.dumps({"kappa": "1"}),
      "--args", json.dumps({"args": [{"1": Y1}, {"1": Y2}]})],
     "n must be an integer in 1..256, got None"),
], ids=["group-without-preset", "float-scalar", "non-object-argument",
        "arity-mismatch", "args-n-differs", "args-without-n"])
def test_smash_rejects_malformed_input(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_descent_twist_names_unknown_label(capsys):
    code = main(["descent", "eval", "--args", json.dumps({"n": 2, "args": [Y1] * 4}),
                 "--twist", json.dumps({"preset": "higher-spin-4d", "element": "zzz"})])
    assert code == 2
    assert capsys.readouterr().err == f"error: unknown group label 'zzz'; {KNOWN_LABELS}\n"


def test_descent_twist_element_that_is_no_label_exits_2(capsys):
    # A list or object names no label: a usage error, not an unhashable-key
    # crash (exit 4).
    for element in (["kappa"], {"kappa": 1}):
        code = main(["descent", "eval", "--args", json.dumps({"n": 2, "args": [Y1] * 4}),
                     "--twist", json.dumps({"preset": "higher-spin-4d", "element": element})])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: unknown group label {element!r}; {KNOWN_LABELS}\n")


@pytest.mark.parametrize("gamma", [{"kappa": 1},
                                   {"kappa": {"re": ["1", "1"], "im": ["0", "1"]}}])
def test_smash_theta_gamma_scalar_forms(capsys, gamma):
    # An int and the JSON scalar form read as the string "1" does.
    argv = ["--format", "json", "smash", "theta", "--group", PRESET,
            "--args", json.dumps({"n": 2, "args": [{"1": Y1}, {"1": Y2}]}),
            "--degree", "2", "--gamma"]
    code, out = run(capsys, *argv, json.dumps(gamma))
    assert code == 0
    assert run(capsys, *argv, json.dumps({"kappa": "1"})) == (0, out)


def test_descent_twist_preset_element(capsys):
    # The preset's kappa is diag(-1, -1, 1, 1) on the preset's ambient.
    args = json.dumps({"n": 2, "args": [Y1, Y2]})
    results = []
    for twist in ({"preset": "higher-spin-4d", "element": "kappa"},
                  {"diag": ["-1", "-1", "1", "1"]}):
        code, out = run(capsys, "--format", "json", "descent", "eval",
                        "--args", args, "--twist", json.dumps(twist))
        assert code == 0
        results.append(json.loads(out)["result"])
    assert results[0] == results[1]
    assert results[0]["terms"]


def test_descent_twist_preset_dimension_mismatch_exits_2(capsys):
    # The preset lives at n = 2; n = 1 arguments are a usage error.  (A
    # preset without an element is one of the malformed specs above.)
    twist = {"preset": "higher-spin-4d", "element": "kappa"}
    code = main(["descent", "eval", "--args", json.dumps({"n": 1, "args": [Y1, Y2]}),
                 "--twist", json.dumps(twist)])
    assert code == 2
    assert capsys.readouterr().err == "error: twist preset dimension does not match args\n"


# -- sizes: a count below 1 or a degree below 0 is a usage error -----------------

@pytest.mark.parametrize("argv", [
    ["verify-all", "--samples", "-3", "--degree", "1"],
    ["verify-all", "--samples", "0"],
    ["verify-all", "--degree", "-1"],
    ["simplex", "fuzz", "--dim", "2", "--count", "-5"],
    ["simplex", "fuzz", "--dim", "2", "--count", "0"],
    ["smash", "theta", "--group", PRESET, "--gamma", json.dumps({"kappa": "1"}),
     "--args", json.dumps({"n": 2, "args": [{"1": Y1}, {"1": Y2}]}), "--degree", "-1"],
])
def test_negative_sizes_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err


def test_smallest_sizes_check_every_suite(capsys):
    code, out = run(capsys, "--format", "json", "verify-all",
                    "--samples", "1", "--degree", "0")
    payload = json.loads(out)
    assert code == 0 and payload["ok"]
    assert all(s["checked"] > 0 for s in payload["suites"])


def test_suite_that_checked_nothing_is_not_ok():
    assert not _suite("empty", Report(0, 0))["ok"]
    assert _suite("one", Report(0, 0, checked=1, passed=1))["ok"]
    failed = _suite("failed", Report(0, 0, checked=2, passed=1, first_failure="x"))
    assert not failed["ok"] and failed["detail"] == {"first_failure": "x"}


@pytest.mark.parametrize("argv", [
    ["--format", "json", "star", json.dumps({"n": 1, "a": Y1, "b": Y2})],
    ["star", json.dumps({"n": 1, "a": Y1})],
])
def test_python_dash_m_runs_the_cli(capsys, argv):
    # `python -m weylhh` prints what cli.main prints and exits with its code.
    code = main(argv)
    captured = capsys.readouterr()
    src = os.path.dirname(os.path.dirname(weylhh.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "weylhh", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out,
                                                          captured.err)


def test_readme_command_lines_parse():
    # Every line of the README's "Command line" block, and the command of
    # its oscillator section, is a command the parser accepts, with each
    # [optional part] given and S, N, D filled in.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        readme = fh.read()

    blocks = [readme.split(section, 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
              for section in ("## Command line", "## Vasiliev's deformed oscillators")]
    lines = [line for block in blocks
             for line in block.replace("\\\n", " ").splitlines() if line.strip()]
    assert len(lines) == 8
    fill = {"S": "0", "N": "1", "D": "0"}
    for line in lines:
        line = re.sub(r"\[(-[^\]]*)\]", r"\1", line)
        line = re.sub(r"\b[SND]\b", lambda m: fill[m[0]], line)
        argv = shlex.split(line)
        assert argv[0] == "weylhh"
        build_parser().parse_args(argv[1:])


# -- the JSON boundary as a property -------------------------------------------

GOLDEN_PAYLOADS = os.path.join(os.path.dirname(__file__), "golden", "payloads")
JUNK = [None, True, 0, -1, 256, 513, 10**30, "x", "1/2", 1.5, [], {},
        ["Y", 1], ["W", 1, 1], ["Y", 0, 1]]


def _nodes(obj, path=()):
    """Every path into a JSON value, the root first."""
    yield path
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _mutate(rng, obj):
    """A copy of obj with one node replaced by junk, deleted, or (a list
    entry) duplicated."""
    obj = json.loads(json.dumps(obj))
    path = rng.choice(list(_nodes(obj)))
    junk = json.loads(json.dumps(rng.choice(JUNK)))
    if not path:
        return junk
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    kind = rng.randrange(3)
    if kind == 0:
        parent[key] = junk
    elif kind == 1:
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, parent[key])
    else:
        parent[key] = [parent[key], parent[key]]
    return obj


def _load_payload(name):
    with open(os.path.join(GOLDEN_PAYLOADS, name)) as fh:
        return json.load(fh)


# (argv with one "{}" slot, the JSON value mutated into it): each golden
# payload in its command, and each spec flag around an unmutated payload.
BOUNDARY_CASES = [
    (["star", "{}"], "star.json"),
    (["ffs", "eval", "--args", "{}"], "ffs_args.json"),
    (["descent", "eval", "--args", "{}", "--budget", "auto"], "descent_args.json"),
    (["smash", "theta", "--group", PRESET, "--gamma", json.dumps({"kappa": "1"}),
      "--args", "{}", "--degree", "2"], "smash_args.json"),
    (["smash", "dims", "--group", "{}"], {"preset": "higher-spin-4d"}),
    (["smash", "theta", "--group", "{}", "--gamma", json.dumps({"kappa": "1"}),
      "--args", os.path.join(GOLDEN_PAYLOADS, "smash_args.json"), "--degree", "2"],
     {"preset": "higher-spin-4d"}),
    (["smash", "theta", "--group", PRESET, "--gamma", "{}",
      "--args", os.path.join(GOLDEN_PAYLOADS, "smash_args.json"), "--degree", "2"],
     {"kappa": "1", "S": "1/2"}),
    (["descent", "eval", "--args", os.path.join(GOLDEN_PAYLOADS, "descent_args.json"),
      "--twist", "{}", "--budget", "auto"], {"diag": ["-1", "-1"]}),
    (["descent", "eval", "--args", json.dumps({"n": 2, "args": [Y1, Y2, Y1, Y2]}),
      "--twist", "{}", "--budget", "auto"], {"preset": "higher-spin-4d", "element": "kappa"}),
]


def test_json_boundary_exits_0_or_2(capsys):
    # Every mutation of a golden payload or spec is run or refused: exit 0,
    # or exit 2 with a one-line message and no traceback (3 only where the
    # command takes --budget), each within a time cap.  Each payload also
    # meets every junk "n", and a payload without an int n in 1..256 is
    # refused for its n before anything is built over it.
    rng = random.Random(48)
    calls = []
    for argv, source in BOUNDARY_CASES:
        payload = isinstance(source, str)
        value = _load_payload(source) if payload else source
        if payload:
            calls += [(argv, True, dict(value, n=junk)) for junk in JUNK]
        calls += [(argv, payload, _mutate(rng, value)) for _ in range(24)]
    codes = []
    for argv, payload, value in calls:
        call = [json.dumps(value) if a == "{}" else a for a in argv]
        start = time.perf_counter()
        try:
            code = main(call)
        except SystemExit as exc:
            code = exc.code
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code in ({0, 2, 3} if "--budget" in argv else {0, 2}), (call, err)
        assert elapsed < 0.5, (call, elapsed)
        if code == 2:
            assert err.count("\n") == 1 and "Traceback" not in err, (call, err)
        n = value.get("n") if isinstance(value, dict) else None
        if payload and isinstance(value, dict) and not (type(n) is int and 1 <= n <= 256):
            assert code == 2 and "n must be an integer in 1..256" in err, (call, err)
        codes.append(code)
    assert codes.count(0) and codes.count(2)
