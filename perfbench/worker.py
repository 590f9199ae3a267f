"""Benchmark worker: one fresh interpreter per run.

It imports fatpoints, does the workload's warm-up and prints "ready" (the
orchestrator times set-up up to that line).  Untraced, it then runs one pass;
traced, one untraced and one traced pass.  It ends with one JSON line with
timings, checks and, when traced, per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time

import workloads
from spans import Tracer, layer_metrics

PROBES = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import fatpoints.cli; "
                "print(time.perf_counter() - t)")


def executor(name: str, in_process: bool):
    """op, stdouts of earlier ops -> (output text, problem or None)."""
    if name == "sandwich":
        return lambda op, stdouts: workloads.sandwich_run(op)
    if name == "dimension":
        return lambda op, stdouts: workloads.dimension_run(op)

    def run_cli(op, stdouts):
        if in_process:
            code, out = workloads.cli_in_process(op, stdouts)
        else:
            code, out = workloads.cli_subprocess(op, stdouts)
        problem = workloads.cli_check(op, code, out, stdouts)
        stdouts.append(out)
        return workloads.canon({"argv": op["argv"], "exit": code, "stdout": out}), problem

    return run_cli


def run_pass(ops, execute, latencies, problems, tracer=None) -> dict:
    workloads.clear_caches()
    digest = hashlib.sha256()
    stdouts: list[str] = []
    started = time.perf_counter()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        issued = time.perf_counter()
        try:
            output, problem = execute(op, stdouts)
        except Exception as exc:  # an op that raises counts as failed
            output, problem = f"raised {type(exc).__name__}", f"op {index} raised {exc!r}"
            if len(stdouts) == index:
                stdouts.append("")
        latencies.append(time.perf_counter() - issued)
        if problem is not None:
            problems.append(f"op {index} {op}: {problem}")
        digest.update(output.encode() + b"\n")
    return {"wall_s": time.perf_counter() - started, "digest": digest.hexdigest()}


def _wall(argv) -> float:
    started = time.perf_counter()
    subprocess.run(argv, check=True, capture_output=True, timeout=60)
    return time.perf_counter() - started


def start_probes() -> dict:
    """Median interpreter start and `import fatpoints.cli` time, fresh processes."""
    interp = [_wall([sys.executable, "-c", "pass"]) for _ in range(PROBES)]
    imports = [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                                    capture_output=True, text=True, timeout=60).stdout)
               for _ in range(PROBES)]
    return {"cli.interp_s": (statistics.median(interp), "s"),
            "cli.import_s": (statistics.median(imports), "s")}


def runtime_environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "blas": f"{blas['name']} {blas['version']}"}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="where a traced run writes its spans")
    args = parser.parse_args()

    if args.workload == "sandwich":
        workloads.sandwich_warmup()
    elif args.workload == "dimension":
        workloads.dimension_warmup()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    ops = workloads.OPS[args.workload](args.seed)
    latencies: list[float] = []
    problems: list[str] = []
    result: dict = {}
    if not args.trace:
        execute = executor(args.workload, in_process=False)
        result["passes"] = [run_pass(ops, execute, latencies, problems)]
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
        result["latencies_s"] = latencies
        result["failed"] = len(problems)
    else:
        # the cli workload is traced in process; its untraced reference
        # pass runs in process too, so the overhead compares like with like
        execute = executor(args.workload, in_process=True)
        plain = run_pass(ops, execute, latencies, problems)
        tracer = Tracer()
        tracer.install()
        try:
            unbound = tracer.unbound_aliases()
            traced = run_pass(ops, execute, latencies, problems, tracer)
        finally:
            tracer.uninstall()
        result["failed"] = len(problems)
        problems.extend(f"alias not rebound: {name}" for name in unbound)
        result["passes"] = [plain, traced]
        layers = layer_metrics(tracer.spans, traced["wall_s"])
        layers["trace_overhead_frac"] = (traced["wall_s"] / plain["wall_s"] - 1, "frac")
        layers.update(start_probes())
        result["layers"] = layers
        if args.spans:
            tracer.write(args.spans)
    result["attempted"] = len(ops) * len(result["passes"])
    result["environment"] = runtime_environment()
    result["problems"] = problems
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
