"""Checks on the benchmark itself, on small slices of each workload.

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from worker import executor, run_pass  # noqa: E402

COUNTS = ("calls", "entries", "ops", "prefix_shared_frac")


def small_ops(name: str, seed: int = 3) -> list[dict]:
    ops = workloads.OPS[name](seed)
    if name == "sandwich":
        return [op for op in ops if op["s"] <= 8 and op["n"] <= 3]
    if name == "dimension":
        small = {"n": 2, "d": 12, "mults": [[3, 15]], "seed": seed}
        return [op for op in ops if op.get("certified")] + [small]
    # every command kind, without the long n=8 sweeps
    return [op for op in ops if op["argv"] not in workloads.CLI_FULL_SWEEPS]


ALIASES = {  # module, attribute: aliases the tracer must rebind
    ("fatpoints.cli", "linear_system_dim"),
    ("fatpoints.bounds", "catalog"),
    ("fatpoints.bounds", "waldschmidt_lower_bound"),  # called recursively
    ("fatpoints", "linear_system_dim"),  # package re-export
}


def traced_pass(name, ops):
    before = {key: getattr(sys.modules[key[0]], key[1]) for key in ALIASES}
    tracer = Tracer()
    tracer.install()
    try:
        unbound = tracer.unbound_aliases()
        during = {key: getattr(sys.modules[key[0]], key[1]) for key in ALIASES}
        problems: list[str] = []
        result = run_pass(ops, executor(name, in_process=True), [], problems, tracer)
    finally:
        tracer.uninstall()
    rebound = [key for key in ALIASES
               if during[key] is not before[key] and during[key].__wrapped__ is before[key]]
    restored = all(getattr(sys.modules[key[0]], key[1]) is before[key] for key in ALIASES)
    return tracer, unbound, sorted(rebound), restored, result, problems


@pytest.mark.parametrize("name", sorted(workloads.OPS))
def test_traced_outputs_equal_untraced(name, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(HERE.parent / "src"))
    ops = small_ops(name)
    # the cli reference is the fresh-process invocation the untraced run makes
    plain_problems: list[str] = []
    plain = run_pass(ops, executor(name, in_process=False), [], plain_problems)
    tracer, unbound, rebound, restored, traced, problems = traced_pass(name, ops)
    assert not plain_problems and not problems, plain_problems + problems
    assert traced["digest"] == plain["digest"]
    assert unbound == []
    assert rebound == sorted(ALIASES)
    assert restored
    assert tracer.spans, "no spans recorded"


@pytest.mark.parametrize("name", sorted(workloads.OPS))
def test_counts_repeat_for_the_same_seed(name):
    def counts():
        ops = small_ops(name)
        tracer, _, _, _, result, _ = traced_pass(name, ops)
        layers = layer_metrics(tracer.spans, result["wall_s"])
        return {k: v for k, (v, _) in layers.items() if k.rsplit(".", 1)[-1] in COUNTS}

    first, second = counts(), counts()
    assert first == second
    if name == "sandwich":
        assert first["oracle.linear_system_dim.prefix_shared_frac"] > 0
        assert first["oracle.matrix_rank_mod.p23.entries"] > 0
    if name == "cli":
        assert all(v == 0 for k, v in first.items() if k.startswith("oracle."))


def test_seed_determines_inputs():
    for name, make in workloads.OPS.items():
        assert make(5) == make(5)
    assert workloads.dimension_ops(5) != workloads.dimension_ops(6)
    assert workloads.cli_ops(5) != workloads.cli_ops(6)


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
