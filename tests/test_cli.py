"""Command-line surface: flags, exit codes, JSON/CSV output, determinism."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import fatpoints
from fatpoints import bounds, cli
from fatpoints.cli import run
from fatpoints.reduction import MAX_NESTING
from helpers import SWEEP_STOPS, invoke_stdin, merge_chain_script, reference_sweep


def invoke(argv, env_seed=None, monkeypatch=None):
    out, err = io.StringIO(), io.StringIO()
    if env_seed is not None:
        monkeypatch.setenv("FATPOINT_SEED", str(env_seed))
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_prove_empty_and_verify_round_trip(tmp_path):
    code, out, _ = invoke(["prove-empty", "--n", "4", "--degree", "8,-1", "--mults", "5,0:8"])
    assert code == 0
    cert = json.loads(out)
    assert cert["claim"] == {"N": 4, "degree": [8, -1], "mults": [[5, 0, 8]]}
    assert len(cert["steps"]) == 4

    path = tmp_path / "cert.json"
    path.write_text(out)
    code, vout, _ = invoke(["verify", "--cert", str(path)])
    assert code == 0
    assert json.loads(vout)["ok"] is True

    code, vout, _ = invoke_stdin(["verify", "--cert", "-"], out)
    assert code == 0


def test_verify_rejects_tampered_file(tmp_path):
    _, out, _ = invoke(["prove-empty", "--n", "4", "--degree", "8,-1", "--mults", "5,0:8"])
    doc = json.loads(out)
    doc["steps"][1]["k"] = [-2, -5]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, vout, _ = invoke(["verify", "--cert", str(path)])
    assert code == 1
    assert json.loads(vout)["failed_step"] == 1


@pytest.mark.parametrize(
    "text, kind",
    [
        ('{"version": 1}', "KeyError"),
        ("{}", "ReductionError"),
        ("[]", "AttributeError"),
        ("not json", "JSONDecodeError"),
        ('{"version": 1, "claim": {"N": 4, "degree": [8], "mults": []}}', "IndexError"),
        ('{"version": 1, "claim": {"N": 4, "degree": [8, -1], "mults": 5}}', "TypeError"),
    ],
)
def test_verify_reports_malformed_certificates(text, kind):
    code, out, err = invoke_stdin(["verify", "--cert", "-"], text)
    assert code == 1
    assert err == ""
    data = json.loads(out)
    assert data["ok"] is False and data["failed_step"] is None
    assert data["reason"].startswith(f"malformed certificate: {kind}: ")


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc["steps"][0].update(pivot=["0", "0", "0", "0", "0"]),
        lambda doc: doc["steps"][-1].update(witness=True),
        lambda doc: doc.update(m0=True),
        lambda doc: doc["steps"][0].update(threshold=1.5),
        lambda doc: doc.update(comment="unknown key"),
        lambda doc: doc["steps"][0].update(rule=["reduce_full"]),
        lambda doc: doc.update(version=True),
    ],
    ids=["string-pivot", "bool-witness", "bool-m0", "float-threshold", "unknown-key",
         "list-rule", "bool-version"],
)
def test_verify_rejects_loosely_typed_certificates(edit):
    _, out, _ = invoke(["prove-empty", "--n", "4", "--degree", "8,-1", "--mults", "5,0:8"])
    doc = json.loads(out)
    edit(doc)
    code, vout, err = invoke_stdin(["verify", "--cert", "-"], json.dumps(doc))
    assert code == 1
    assert err == ""
    data = json.loads(vout)
    assert data["ok"] is False and data["failed_step"] is None
    assert data["reason"].startswith("malformed certificate: ReductionError: ")


def test_verify_rejects_affine_values_with_extra_entries():
    _, out, _ = invoke(["prove-empty", "--n", "4", "--degree", "8,-1", "--mults", "5,0:8"])
    doc = json.loads(out)
    doc["claim"]["degree"] = [8, -1, 99]
    code, vout, err = invoke_stdin(["verify", "--cert", "-"], json.dumps(doc))
    assert code == 1
    assert err == ""
    data = json.loads(vout)
    assert data["ok"] is False and data["failed_step"] is None
    assert data["reason"].startswith("malformed certificate: ReductionError: ")


# sound chains, but each records a step under a rule no prover emits: the
# library-only moves, and a clamp outside any reduce_full step
DEGREE_DROP_CERT = (
    '{"claim":{"N":2,"degree":[1,0],"mults":[[1,0,3]]},"m0":1,"steps":[{"clamps":[],"k":null,'
    '"output":{"N":2,"degree":[1,-1],"mults":[[1,0,1],[1,-1,2]]},"pivot":[0,0],"refs":[],'
    '"removed":null,"rule":"degree_drop","scale":null,"threshold":1,"witness":null},'
    '{"clamps":[],"k":null,"output":"empty","pivot":null,"refs":[],"removed":null,'
    '"rule":"contradiction","scale":null,"threshold":1,"witness":0}],"version":1}'
)
CREMONA_CERT = (
    '{"claim":{"N":2,"degree":[0,2],"mults":[[0,3,1],[0,1,3]]},"m0":1,"steps":[{"clamps":[],'
    '"k":[0,-1],"output":{"N":2,"degree":[0,1],"mults":[[0,3,1],[0,0,3]]},"pivot":[1,1,1],'
    '"refs":[],"removed":null,"rule":"cremona_iso","scale":null,"threshold":1,"witness":null},'
    '{"clamps":[],"k":null,"output":"empty","pivot":null,"refs":[],"removed":null,'
    '"rule":"contradiction","scale":null,"threshold":1,"witness":0}],"version":1}'
)
CLAMP_CERT = (
    '{"claim":{"N":2,"degree":[2,-1],"mults":[[2,0,2],[-1,2,1]]},"m0":2,"steps":[{"clamps":'
    '[{"index":1,"threshold":2,"value":[-1,2]}],"k":null,"output":{"N":2,"degree":[2,-1],'
    '"mults":[[2,0,2],[0,0,1]]},"pivot":null,"refs":[],"removed":null,'
    '"rule":"clamp_nonpositive","scale":null,"threshold":2,"witness":null},'
    '{"clamps":[],"k":null,"output":"empty","pivot":null,"refs":[],"removed":null,'
    '"rule":"contradiction","scale":null,"threshold":1,"witness":0}],"version":1}'
)


@pytest.mark.parametrize(
    "text, rule",
    [(DEGREE_DROP_CERT, "degree_drop"), (CREMONA_CERT, "cremona_iso"),
     (CLAMP_CERT, "clamp_nonpositive")],
    ids=["degree_drop", "cremona_iso", "clamp_nonpositive"],
)
def test_verify_rejects_rules_no_prover_emits(text, rule):
    code, out, err = invoke_stdin(["verify", "--cert", "-"], text)
    assert (code, err) == (1, "")
    assert json.loads(out) == {"ok": False, "failed_step": 0, "reason": f"unknown rule {rule!r}"}


@pytest.mark.parametrize(
    "step, edit, reason",
    [
        (3, {"pivot": [0, 1], "k": [7, 7], "scale": 99},
         "contradiction step must leave pivot unset"),
        (3, {"k": [7, 7]}, "contradiction step must leave k unset"),
        (3, {"scale": 99}, "contradiction step must leave scale unset"),
        (0, {"witness": 5, "removed": 3}, "reduce_full step must leave witness unset"),
        (0, {"removed": 3}, "reduce_full step must leave removed unset"),
    ],
    ids=["contradiction-pivot-k-scale", "contradiction-k", "contradiction-scale",
         "reduce-witness-removed", "reduce-removed"],
)
def test_verify_rejects_side_fields_the_rule_does_not_read(step, edit, reason):
    _, out, _ = invoke(["prove-empty", "--n", "4", "--degree", "8,-1", "--mults", "5,0:8"])
    doc = json.loads(out)
    doc["steps"][step].update(edit)
    code, text, err = invoke_stdin(["verify", "--cert", "-"], json.dumps(doc))
    assert (code, err) == (1, "")
    assert json.loads(text) == {"ok": False, "failed_step": step, "reason": reason}


def test_module_entry_point_exits_with_the_verdict(tmp_path):
    _, out, _ = invoke(["prove-empty", "--n", "4", "--degree", "8,-1", "--mults", "5,0:8"])
    doc = json.loads(out)
    doc["claim"]["mults"][0][1] += 1  # the chain no longer starts from the claim
    env = dict(os.environ, PYTHONPATH=str(Path(fatpoints.__file__).parents[1]))
    for text, code in ((out, 0), (json.dumps(doc), 1)):
        path = tmp_path / "cert.json"
        path.write_text(text)
        done = subprocess.run(
            [sys.executable, "-m", "fatpoints.cli", "verify", "--cert", str(path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == code, done.stderr
        if code == 0:
            assert done.stdout == '{"failed_step":null,"ok":true,"reason":null}\n'
        else:
            assert json.loads(done.stdout)["ok"] is False


def test_prove_empty_failure_exit_code():
    code, out, err = invoke(["prove-empty", "--n", "2", "--degree", "100", "--mults", "1:5"])
    assert code == 2
    assert out == ""
    assert "failure" in err


def test_prove_empty_with_script(tmp_path):
    script = {
        "how": "merge",
        "part": {
            "system": {"N": 2, "degree": [2, -1], "mults": [[1, 0, 4]]},
            "prove": {"how": "evain", "scale": 2},
        },
        "rest": {
            "system": {"N": 2, "degree": [2, -1], "mults": [[2, 0, 2]]},
            "prove": {"how": "greedy"},
        },
    }
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    code, out, _ = invoke(
        ["prove-empty", "--n", "2", "--degree", "2,-1", "--mults", "2,0:1;1,0:4",
         "--script", str(path)]
    )
    assert code == 0
    assert json.loads(out)["claim"]["mults"] == [[2, 0, 1], [1, 0, 4]]


@pytest.mark.parametrize(
    "node",
    [{"how": "evain", "scale": 2.5}, {"how": "evain", "scale": "2"},
     {"how": "evain", "scale": 2, "note": "x"}, {"how": "greedy", "scale": 2},
     {"how": ["evain"]}, {"how": "nope"}],
    ids=["float-scale", "string-scale", "unknown-key", "key-of-another-form",
         "list-how", "unknown-how"],
)
def test_prove_empty_rejects_loose_script_nodes(tmp_path, node):
    path = tmp_path / "script.json"
    path.write_text(json.dumps(node))
    code, out, err = invoke(
        ["prove-empty", "--n", "2", "--degree", "2,-1", "--mults", "1,0:4", "--script", str(path)]
    )
    assert (code, out) == (70, "")
    assert json.loads(err)["kind"] == "ReductionError"


@pytest.mark.parametrize(
    "pivots, error",
    [([[0.0, 0, 0, 0, 0]], "script pivot 0 index must be an integer, got float"),
     ([["a", 0, 0, 0, 0]], "script pivot 0 index must be an integer, got str"),
     ([[0, 0, 0, 0, 0], [True, 0, 0, 0, 0]], "script pivot 1 index must be an integer, got bool"),
     ([5], "script pivot 0 must be a list"),
     (5, "script pivots must be a list")],
    ids=["float-index", "string-index", "bool-index", "int-pivot", "int-pivots"],
)
def test_prove_empty_rejects_loosely_typed_pivots(tmp_path, pivots, error):
    path = tmp_path / "script.json"
    path.write_text(json.dumps({"how": "pivots", "pivots": pivots}))
    code, out, err = invoke(
        ["prove-empty", "--n", "4", "--degree", "8,-1", "--mults", "5,0:8", "--script", str(path)]
    )
    assert (code, out) == (70, "")
    assert json.loads(err) == {"error": error, "kind": "ReductionError"}


def test_prove_empty_rejects_loose_merge_branches(tmp_path):
    script = {
        "how": "merge",
        "part": {"system": {"N": 2, "degree": [2, -1], "mults": [[1, 0, 4]]},
                 "prove": {"how": "evain", "scale": 2}, "extra": 1},
        "rest": {"system": {"N": 2, "degree": [2, -1], "mults": [[2, 0, 2]]},
                 "prove": {"how": "greedy"}},
    }
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    code, out, err = invoke(
        ["prove-empty", "--n", "2", "--degree", "2,-1", "--mults", "2,0:1;1,0:4",
         "--script", str(path)]
    )
    assert (code, out) == (70, "")
    assert json.loads(err)["kind"] == "ReductionError"


def test_prove_empty_refuses_merges_the_parser_would_reject(tmp_path):
    path = tmp_path / "script.json"
    argv = ["prove-empty", "--n", "2", "--degree", "2,-1", "--script", str(path), "--mults"]
    # the top certificate counts as a level, so MAX_NESTING - 1 merges fit
    script, mults = merge_chain_script(MAX_NESTING - 1)
    path.write_text(json.dumps(script))
    code, out, _ = invoke(argv + [mults])
    assert code == 0
    code, verdict, _ = invoke_stdin(["verify", "--cert", "-"], out)
    assert (code, json.loads(verdict)["ok"]) == (0, True)
    script, mults = merge_chain_script(MAX_NESTING)
    path.write_text(json.dumps(script))
    code, out, err = invoke(argv + [mults])
    assert (code, out) == (70, "")
    assert json.loads(err) == {
        "error": f"merged certificate would nest more than {MAX_NESTING} levels deep",
        "kind": "MergeError",
    }


@pytest.mark.parametrize(
    "text",
    [lambda: "[" * 100000 + "]" * 100000, lambda: json.dumps(merge_chain_script(300)[0])],
    ids=["deep-json", "300-merges"],
)
def test_prove_empty_reports_deep_scripts_as_json(tmp_path, text):
    path = tmp_path / "script.json"
    path.write_text(text())
    code, out, err = invoke(
        ["prove-empty", "--n", "2", "--degree", "2,-1", "--mults", "2,0:1;1,0:1200",
         "--script", str(path)]
    )
    assert (code, out) == (70, "")
    assert set(json.loads(err)) == {"error", "kind"}


def test_bound_and_checks():
    code, out, _ = invoke(["bound", "--n", "4", "--points", "128"])
    assert code == 0
    assert json.loads(out)["bound"] == {"num": 16, "den": 5}

    code, out, _ = invoke(["hh-check", "--n", "4", "--points", "71"])
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] is True and data["bound"] == {"num": 23, "den": 10}

    code, out, _ = invoke(["chudnovsky", "--n", "2", "--points", "10"])
    assert code == 0

    code, out, _ = invoke(["threshold", "--n", "4", "--points", "71"])
    assert code == 0
    assert json.loads(out)["r_threshold"] == 46


def test_failed_verdict_exit_code():
    # one point: bound 1 equals rhs (reg = 1), strict check fails
    code, out, _ = invoke(["hh-check", "--n", "4", "--points", "1"])
    assert code == 1
    assert json.loads(out)["verdict"] is False


def test_threshold_undefined_is_internal_error():
    code, out, err = invoke(["threshold", "--n", "4", "--points", "1"])
    assert code == 70
    assert out == ""
    assert "threshold" in json.loads(err)["error"]


def test_oracle_dim_and_alpha(monkeypatch):
    code, out, _ = invoke(["oracle-dim", "--n", "2", "--degree", "4", "--mults", "2:5"])
    assert code == 0
    assert json.loads(out)["dimension"] == 1

    code, out, _ = invoke(["alpha", "--n", "2", "--points", "5", "--power", "2"])
    assert code == 0
    assert json.loads(out)["alpha"] == 4

    code, out, _ = invoke(
        ["oracle-dim", "--n", "2", "--degree", "4", "--mults", "2:5"],
        env_seed=99,
        monkeypatch=monkeypatch,
    )
    assert json.loads(out)["seed"] == 99

    # parametric multiplicities are not oracle material
    code, _, err = invoke(["oracle-dim", "--n", "2", "--degree", "4", "--mults", "2,1:5"])
    assert code == 70


def test_oracle_rejects_primes_above_2_31():
    for argv in (
        ["oracle-dim", "--n", "2", "--degree", "4", "--mults", "2:5", "--prime", "4294967311"],
        ["alpha", "--n", "2", "--points", "5", "--power", "2", "--prime", "2305843009213693951"],
    ):
        code, out, err = invoke(argv)
        assert code == 70
        assert out == ""
        assert json.loads(err)["kind"] == "OracleError"


def test_sweep_csv():
    code, out, _ = invoke(["sweep", "--n", "4", "--from", "8", "--to", "12", "--check", "hh"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,s,bound,rhs,verdict"
    assert lines[1] == "4,8,8/5,3/2,true"
    assert len(lines) == 6
    assert all(line.endswith("true") for line in lines[1:])

    code, out, _ = invoke(["sweep", "--n", "4", "--from", "1", "--to", "8", "--check", "hh"])
    assert code == 1  # tiny counts fail the strict check


def _sweep_argv(n, start, stop, check):
    return ["sweep", "--n", str(n), "--from", str(start), "--to", str(stop), "--check", check]


def _reference_invoke(argv, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_cmd_sweep", reference_sweep)
        return invoke(argv)


def test_sweep_matches_the_reference_loop(monkeypatch):
    for n, stop in SWEEP_STOPS.items():
        for check in ("hh", "chudnovsky"):
            full = _sweep_argv(n, 1, stop, check)
            expected = _reference_invoke(full, monkeypatch)
            assert invoke(full) == expected, (n, check)
            # the counts where a row differs from the one before, by the
            # reference, and the segment starts of the command under test
            rows = [line.split(",", 2)[2] for line in expected[1].splitlines()[1:]]
            steps = {s for s in range(2, stop + 1) if rows[s - 1] != rows[s - 2]}
            steps.update(first for first, _ in bounds.verdict_segments(n, 1, stop, check))
            singles = {s + d for s in steps for d in (-1, 0, 1)} & set(range(1, stop + 1))
            cuts = sorted(steps)
            # starts in the middle of a segment, each range crossing the next cut
            middles = [((a + b) // 2, min(stop, b + (b - a) // 2 + 1))
                       for a, b in zip(cuts, cuts[1:]) if b - a >= 2]
            ranges = [(s, s) for s in sorted(singles)] + middles
            for start, last in ranges:
                argv = _sweep_argv(n, start, last, check)
                assert invoke(argv) == _reference_invoke(argv, monkeypatch), argv


def test_sweep_errors_and_empty_ranges_match_the_reference_loop(monkeypatch):
    header = "N,s,bound,rhs,verdict\n"
    for check in ("hh", "chudnovsky"):
        argv = _sweep_argv(4, 9, 8, check)
        assert invoke(argv) == _reference_invoke(argv, monkeypatch) == (0, header, "")
        for n, start, stop in ((4, 0, 10), (4, -2, 10), (1, 3, 20)):
            argv = _sweep_argv(n, start, stop, check)
            code, out, err = invoke(argv)
            assert (code, out, err) == _reference_invoke(argv, monkeypatch), argv
            assert code == 70 and out == header
            assert json.loads(err)["kind"] == "ValueError"


def test_sweep_checks_once_per_segment(monkeypatch):
    argv = _sweep_argv(8, 12, 6600, "hh")
    expected = _reference_invoke(argv, monkeypatch)
    calls = []

    def spy(n, s):
        calls.append(s)
        return bounds.hh_check(n, s)

    monkeypatch.setattr(cli, "hh_check", spy)
    assert invoke(argv) == expected
    segments = bounds.verdict_segments(8, 12, 6600, "hh")
    assert calls == [first for first, _ in segments]
    assert len(calls) <= 64


def test_usage_errors_exit_64():
    for argv in (
        ["prove-empty", "--n", "4", "--degree", "8,-1"],  # missing --mults
        ["prove-empty", "--n", "4", "--degree", "8,-1,-2", "--mults", "5,0:8"],
        ["prove-empty", "--n", "4", "--degree", "8,-1", "--mults", "5,0"],
        ["sweep", "--n", "4", "--from", "1", "--to", "5", "--check", "nope"],
        ["prove-empty", "--n", "4", "--degree", "8,-1", "--mults", "5,0:8", "--strategy", "greedy"],
        ["no-such-command"],
    ):
        code, _, _ = invoke(argv)
        assert code == 64, argv
    for flags, message in (
        (["--degree", "abc", "--mults", "5,0:8"],
         "argument --degree: expected INT or SLOPE,INTERCEPT, got 'abc'"),
        (["--degree", "8,-1", "--mults", "5,0:x"], "argument --mults: bad count in '5,0:x'"),
        (["--degree", "8,-1", "--mults", ";"], "argument --mults: empty multiplicity list"),
    ):
        code, out, err = invoke(["prove-empty", "--n", "4", *flags])
        assert (code, out) == (64, ""), flags
        assert err.endswith(f"fatpoints prove-empty: error: {message}\n"), flags
    # an empty block, as after a trailing ';', is skipped
    argv = ["prove-empty", "--n", "4", "--degree", "8,-1", "--mults"]
    assert invoke(argv + ["5,0:8;"]) == invoke(argv + ["5,0:8"])


def test_byte_identical_reruns():
    for argv in (
        ["prove-empty", "--n", "4", "--degree", "23,-1", "--mults", "20,0:4;10,0:7"],
        ["oracle-dim", "--n", "2", "--degree", "2", "--mults", "1:5", "--seed", "3"],
        ["bound", "--n", "5", "--points", "127"],
        ["sweep", "--n", "5", "--from", "9", "--to", "40", "--check", "chudnovsky"],
    ):
        first = invoke(list(argv))
        second = invoke(list(argv))
        assert first == second


def test_symbolic_imports_leave_numpy_unloaded():
    script = (
        "import sys, fatpoints, fatpoints.cli\n"
        "assert 'numpy' not in sys.modules, 'numpy loaded at import'\n"
        "fatpoints.cli.run(['bound', '--n', '4', '--points', '71'])\n"
        "assert 'numpy' not in sys.modules, 'numpy loaded by a symbolic command'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(fatpoints.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr


def test_oracle_names_resolve_on_first_use():
    from fatpoints import cli, oracle

    names = ("OracleConfig", "OracleReport", "alpha_symbolic_power", "linear_system_dim",
             "waldschmidt_upper_estimate")
    for name in names:
        assert getattr(fatpoints, name) is getattr(oracle, name)
    assert cli.linear_system_dim is oracle.linear_system_dim
    star: dict = {}
    exec("from fatpoints import *", star)
    assert all(star[name] is getattr(oracle, name) for name in names)
    for module in (fatpoints, cli):
        with pytest.raises(AttributeError):
            module.no_such_name


def test_oracle_flag_defaults(monkeypatch):
    system = ["--n", "2", "--degree", "4", "--mults", "2:5"]
    dim = ('{"dimension":1,"dims":[1,1,1],"p":2147483647,"seed":%d,'
           '"system":{"N":2,"degree":[0,4],"mults":[[0,2,5]]},"trials":3}\n')
    alpha = '{"N":2,"alpha":4,"m":2,"p":2147483647,"s":5,"seed":%d,"trials":3}\n'
    alpha_argv = ["alpha", "--n", "2", "--points", "5", "--power", "2"]
    monkeypatch.delenv("FATPOINT_SEED", raising=False)
    assert invoke(["oracle-dim", *system]) == (0, dim % 20260810, "")
    assert invoke(alpha_argv) == (0, alpha % 20260810, "")
    monkeypatch.setenv("FATPOINT_SEED", "7")
    assert invoke(["oracle-dim", *system]) == (0, dim % 7, "")
    assert invoke(alpha_argv) == (0, alpha % 7, "")
    assert invoke(["oracle-dim", *system, "--seed", "5"]) == (0, dim % 5, "")
