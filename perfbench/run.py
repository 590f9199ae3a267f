"""fatpoints benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload sandwich|dimension|cli --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.  With
`--trace 0` a run repeats one fixed pass of seeded ops about S seconds' worth
of times, each pass in a fresh worker, measures set-up in fresh workers
between the passes and reports the end-to-end metrics.  With `--trace 1` it runs one untraced and one traced
pass and reports the per-layer metrics.  Either way every op's output is
checked; the last stdout line is the JSON result, and the exit code is 1 when
any check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKER = HERE / "worker.py"

DEFAULT_SEED = 1
# one pass's duration on the reference machine (environment.json); a run
# makes round(seconds / this) passes, at least two, whatever the speed
NOMINAL_PASS_S = {"sandwich": 6.0, "dimension": 7.5, "cli": 4.6}
# set-up-only workers per run, spread over the gaps before, between and
# after the passes
SETUP_PROBES = 20
# a run is stopped after this margin plus this many times --seconds
DEADLINE_MARGIN_S = 60.0
DEADLINE_PER_S = 3.0
BLAS_THREADS = "1"


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "FATPOINT_SEED"}
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def launch(argv: list[str], env: dict, deadline: float) -> tuple[float, str]:
    """Run a worker; return (seconds until its first line, all of stdout)."""
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *argv], env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    try:
        chunks: list[bytes] = []
        ready = None
        while True:
            wait = deadline - time.perf_counter()
            if wait <= 0 or not select.select([proc.stdout], [], [], wait)[0]:
                raise TimeoutError(f"worker {argv} passed the deadline")
            chunk = os.read(proc.stdout.fileno(), 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
            if ready is None and b"\n" in chunk:
                ready = time.perf_counter() - started
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise RuntimeError(f"worker {argv} exited with {code}")
    return ready, b"".join(chunks).decode()


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the sample with exactly ten samples beyond it:
    the highest percentile that has at least ten."""
    ordered = sorted(latencies)
    index = max(0, len(ordered) - 11)
    return 100 * (index + 1) / len(ordered), ordered[index]


def pass_time(latencies: list[float], passes: int) -> float:
    """One pass's time as the sum over its ops of each op's median across
    passes, so a burst of load on the machine during one pass is dropped."""
    per_pass = len(latencies) // passes
    return sum(statistics.median(latencies[i::per_pass]) for i in range(per_pass))


def low_decile(values: list[float]) -> float:
    """Set-up is read at the 10th percentile of its samples: start-up noise
    from other tenants only adds time, and in a loaded phase of the host it
    reaches most samples and moves the median by as much as half."""
    return statistics.quantiles(values, n=10)[0]


def environment(worker: dict) -> dict:
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0], **worker,
            "blas_threads": int(BLAS_THREADS)}


def merge(workers: list[dict]) -> dict:
    """One result from the one-pass results of several untraced workers."""
    return {
        "passes": [p for w in workers for p in w["passes"]],
        "latencies_s": [t for w in workers for t in w["latencies_s"]],
        "problems": [p for w in workers for p in w["problems"]],
        "attempted": sum(w["attempted"] for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "peak_rss_mb": max(w["peak_rss_mb"] for w in workers),
        "environment": workers[0]["environment"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_PASS_S))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + DEADLINE_MARGIN_S + DEADLINE_PER_S * args.seconds

    if not (SRC / "fatpoints" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no fatpoints package under {SRC}\n")
        return 2
    env = child_env()
    # the build: byte-compile the sources so no worker pays for it in set-up
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC), str(HERE)],
                   env=env, check=True, stdout=subprocess.DEVNULL, timeout=60)

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if not args.trace:
        passes = max(2, round(args.seconds / NOMINAL_PASS_S[args.workload]))
        per_gap = math.ceil(SETUP_PROBES / (passes + 1))
        setups: list[float] = []
        workers = []
        # a burst of host load during the run hits only the probes of one gap
        for gap in range(passes + 1):
            for _ in range(per_gap):
                setups.append(launch(common + ["--setup-only"], env, deadline)[0])
            if gap < passes:
                ready, stdout = launch(common, env, deadline)
                setups.append(ready)
                workers.append(json.loads(stdout.splitlines()[-1]))
        result = merge(workers)
    else:
        OUT.mkdir(exist_ok=True)
        spans = str(OUT / f"spans-{args.workload}.jsonl")
        stdout = launch(common + ["--trace", "1", "--spans", spans], env, deadline)[1]
        result = json.loads(stdout.splitlines()[-1])

    problems = list(result["problems"])
    digests = {p["digest"] for p in result["passes"]}
    if len(digests) != 1:
        problems.append("passes disagree: outputs are not deterministic")
    digest = result["passes"][0]["digest"]
    if args.seed == DEFAULT_SEED:
        stored = json.loads((HERE / "digests.json").read_text()).get(args.workload)
        if digest != stored:
            problems.append(f"output digest {digest} differs from the stored {stored}")

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in sorted(result["layers"].items())}
        summary = {}
    else:
        latencies = result["latencies_s"]
        q, worst = tail(latencies)
        metrics = {
            "setup_s": {"value": low_decile(setups), "unit": "s"},
            "wall_s": {"value": pass_time(latencies, len(result["passes"])), "unit": "s"},
            "op_p50_ms": {"value": 1000 * statistics.median(latencies), "unit": "ms"},
            "op_tail_ms": {"value": 1000 * worst, "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        summary = {"op_tail_percentile": q, "op_samples": len(latencies),
                   "setup_samples_s": setups,
                   "failed_frac": failed / attempted,
                   "pass_wall_s": [p["wall_s"] for p in result["passes"]]}
    for problem in problems:
        sys.stderr.write(f"perfbench: {problem}\n")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "digest": digest,
                      **summary, "environment": environment(result["environment"])}))
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
