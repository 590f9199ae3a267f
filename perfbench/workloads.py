"""The three workloads: seeded op lists, op execution and output checks.

Op lists are built with the standard library from the seed alone, so the
program receives nothing but generated inputs.  Every workload is a
closed loop with one client: the next op is issued when the previous one
has returned.  A pass runs the whole op list once; a run repeats the same
pass, so every pass must produce the same outputs.

Each op returns (output, problem): `output` is the canonical text that goes
into the pass digest and `problem` is None or the reason the op is wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from fractions import Fraction
from math import comb

# module references, not their functions: calls look the function up at call
# time, so a tracer that rebinds module attributes later is seen
from fatpoints import bounds, cli, facts, oracle

FAST_PRIME = 8380417  # largest prime class of the float64 rank kernel


def canon(data) -> str:
    """Canonical JSON text, as the program prints it."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def clear_caches() -> None:
    """Forget memoized bounds and catalogs, as a fresh process would."""
    bounds.waldschmidt_lower_bound.cache_clear()
    facts.catalog.cache_clear()


# ---------------------------------------------------------------------------
# sandwich: criterion 7 over a slice of the grid


SANDWICH_NS = (2, 3, 4)
SANDWICH_MAX_S = 24  # the criterion runs s <= 40; 24 keeps a pass near 6 s
SANDWICH_POWERS = 4
GRID_VALUES = {(2, 4), (3, 8)}  # s = 2^n, where the estimate is exactly 2


def sandwich_ops(seed: int) -> list[dict]:
    return [{"n": n, "s": s, "seed": seed}
            for n in SANDWICH_NS for s in range(1, SANDWICH_MAX_S + 1)]


def sandwich_warmup() -> None:
    config = oracle.OracleConfig(prime=FAST_PRIME, trials=1, seed=0)
    oracle.waldschmidt_upper_estimate(2, 6, 2, config)


def sandwich_run(op: dict):
    n, s = op["n"], op["s"]
    lower = bounds.waldschmidt_lower_bound(n, s).bound
    config = oracle.OracleConfig(prime=FAST_PRIME, trials=3, seed=op["seed"])
    upper = oracle.waldschmidt_upper_estimate(n, s, SANDWICH_POWERS, config)
    problem = None
    if lower > upper:
        problem = f"lower bound {lower} exceeds the oracle estimate {upper} at ({n},{s})"
    elif (n, s) in GRID_VALUES and upper != 2:
        problem = f"estimate at ({n},{s}) is {upper}, expected exactly 2"
    return canon({"n": n, "s": s, "lower": str(lower), "upper": str(upper)}), problem


# ---------------------------------------------------------------------------
# dimension: single near-square oracle queries at the default prime


# (n, d, m): 703 to 816 columns, so each near-square query eliminates a
# matrix of 5e5 to 7e5 entries, where the rank kernel is over 90% of the
# query.  The systems are fixed because rank cost depends on m as well as on
# the shape, and peak memory on the exact row counts and their order; the
# seed draws the points (through the oracle seeds), so a pass costs the same
# time and memory for every seed.
DIMENSION_SYSTEMS = [(2, 36, 4), (2, 36, 6), (3, 15, 2), (3, 15, 4),
                     (4, 9, 2), (4, 9, 3), (5, 7, 2), (5, 7, 3)]
# the shipped 8-point P^4 certificate instantiated at its m0 = 1:
# forms of degree 8m-1 with 8 points of multiplicity 5m
CERTIFIED = {"n": 4, "d": 7, "mults": [[5, 8]]}


def dimension_ops(seed: int) -> list[dict]:
    rng = random.Random(seed)
    ops = []
    for n, d, m in DIMENSION_SYSTEMS:
        # rows as close to the column count as whole points allow
        points = round(comb(d + n, n) / comb(m - 1 + n, n))
        ops.append({"n": n, "d": d, "mults": [[m, points]]})
    ops.append(dict(CERTIFIED, certified=True))
    for op in ops:
        op["seed"] = rng.randrange(1 << 31)
    return ops


def dimension_warmup() -> None:
    oracle.linear_system_dim(2, 4, [2] * 4, oracle.OracleConfig(seed=0))


def dimension_run(op: dict):
    n, d = op["n"], op["d"]
    mults = [m for m, count in op["mults"] for _ in range(count)]
    report = oracle.linear_system_dim(n, d, mults, oracle.OracleConfig(seed=op["seed"]))
    cols = comb(d + n, n)
    floor = max(0, cols - sum(comb(m - 1 + n, n) for m in mults))
    problem = None
    if not all(floor <= dim <= cols for dim in report.dims):
        problem = f"dims {report.dims} outside [{floor}, {cols}] for {op}"
    elif report.dimension != min(report.dims):
        problem = f"dimension {report.dimension} is not the minimum of {report.dims}"
    elif op.get("certified") and report.dimension != 0:
        problem = f"certified empty system has dimension {report.dimension}"
    output = {"n": n, "d": d, "mults": op["mults"], "dims": list(report.dims),
              "dimension": report.dimension}
    return canon(output), problem


# ---------------------------------------------------------------------------
# cli: fresh-process invocations of the symbolic commands


# catalog systems as `prove-empty` flags: (n, degree, mults, expected exit)
CLI_CATALOG_FIXED = [
    (4, "8,-1", "5,0:8", 0),
    (4, "23,-1", "20,0:4;10,0:7", 0),
    (5, "21,-1", "20,0:3;10,0:31", 0),
    (4, "51,-1", "25,0:36", 2),  # the 36-point claim needs merges: greedy fails
]
CLI_PLUS_FOUR = {  # n+4 points, even n
    6: ("45,-1", "33,0:10"), 8: ("76,-1", "60,0:12"), 10: ("115,-1", "95,0:14"),
}
CLI_TWO_WEIGHT = {
    5: ("33,-1", "28,0:2;20,0:8"), 6: ("118,-1", "104,0:2;78,0:13"),
    7: ("51,-1", "45,0:3;35,0:10"), 8: ("166,-1", "150,0:3;120,0:16"),
    9: ("73,-1", "66,0:4;54,0:12"), 10: ("209,-1", "192,0:4;160,0:19"),
}
CLI_PAIRS = 6
CLI_MAX_S = 2000
CLI_SWEEP_WIDTH = 300
# seeded sweeps: the seed moves the range, n stays fixed since cost grows with n
CLI_SWEEPS = ((5, "hh"), (7, "chudnovsky"))
# the full n=8 grid of the acceptance sweep, for both checks: with two of
# these slow ops per pass the tail latency is a sweep's, as intended
CLI_FULL_SWEEPS = [["sweep", "--n", "8", "--from", "12", "--to", "6600", "--check", check]
                   for check in ("hh", "chudnovsky")]
CLI_MAIN = "from fatpoints.cli import main; main()"


def _hh_holds(n: int, s: int) -> bool:
    # for n in 4..10 the engine's strict comparison fails exactly at n+1 and
    # n+2 points, and at n+3 too when n is even
    return s >= n + (4 if n % 2 == 0 else 3)


def cli_ops(seed: int) -> list[dict]:
    rng = random.Random(seed)
    ops: list[dict] = []

    def add(argv, expect, **extra):
        ops.append(dict({"argv": [str(a) for a in argv], "expect": expect}, **extra))
        return len(ops) - 1

    for i in range(CLI_PAIRS):
        n = rng.randint(4, 10)
        # the first pair sits where the hh verdict is false
        s = n + rng.randint(1, 2) if i == 0 else rng.randint(n + 4, CLI_MAX_S)
        hh = add(["hh-check", "--n", n, "--points", s], 0 if _hh_holds(n, s) else 1)
        add(["bound", "--n", n, "--points", s], 0)
        add(["chudnovsky", "--n", n, "--points", s], 0)
        if _hh_holds(n, s):
            add(["threshold", "--n", n, "--points", s], 0, same_threshold_as=hh)

    systems = list(CLI_CATALOG_FIXED)
    n = rng.choice(sorted(CLI_PLUS_FOUR))
    systems.append((n, *CLI_PLUS_FOUR[n], 0))
    n = rng.choice(sorted(CLI_TWO_WEIGHT))
    systems.append((n, *CLI_TWO_WEIGHT[n], 0))
    proofs = [add(["prove-empty", "--n", n, "--degree", deg, "--mults", mults], code)
              for n, deg, mults, code in systems]
    emitted = [p for p, (*_, code) in zip(proofs, systems) if code == 0]
    for p in emitted:
        add(["verify", "--cert", "-"], 0, stdin_from=p)
    add(["verify", "--cert", "-"], 1, stdin_from=emitted[0], tamper=True)

    for argv in CLI_FULL_SWEEPS:
        add(argv, 0, sweep=True)
    for n, check in CLI_SWEEPS:
        start = rng.randint(n + 4, CLI_MAX_S)
        add(["sweep", "--n", n, "--from", start, "--to", start + CLI_SWEEP_WIDTH,
             "--check", check], 0, sweep=True)
    return ops


def _tampered(cert_text: str) -> str:
    # raise the first claim multiplicity by one: the chain no longer starts
    # from the claim, so verification must fail
    data = json.loads(cert_text)
    slope, intercept, count = data["claim"]["mults"][0]
    data["claim"]["mults"][0] = [slope, intercept + 1, count]
    return canon(data)


def cli_stdin(op: dict, stdouts: list[str]) -> str | None:
    if "stdin_from" not in op:
        return None
    text = stdouts[op["stdin_from"]]
    return _tampered(text) if op.get("tamper") else text


def cli_check(op: dict, code: int, stdout: str, stdouts: list[str]) -> str | None:
    """Why the finished op is wrong, or None; `stdouts` holds earlier ops'."""
    if code != op["expect"]:
        return f"exit {code}, expected {op['expect']}"
    if op.get("sweep"):
        rows = stdout.splitlines()[1:]
        start, stop = int(op["argv"][4]), int(op["argv"][6])
        if len(rows) != stop - start + 1:
            return f"sweep printed {len(rows)} rows for {stop - start + 1} counts"
        if (code == 0) != all(row.endswith(",true") for row in rows):
            return "sweep exit code disagrees with its rows"
        return None
    if op["expect"] == 2:
        return None if stdout == "" else "failed proof search printed to stdout"
    data = json.loads(stdout)
    command = op["argv"][0]
    if command == "verify" and data["ok"] != (op["expect"] == 0):
        return f"verify reported ok={data['ok']}"
    if command in ("hh-check", "chudnovsky") and data["verdict"] != (code == 0):
        return "verdict disagrees with the exit code"
    if command == "bound" and Fraction(data["bound"]["num"], data["bound"]["den"]) < 1:
        return "bound below the trivial value 1"
    if "same_threshold_as" in op:
        expected = json.loads(stdouts[op["same_threshold_as"]])["r_threshold"]
        if data["r_threshold"] != expected:
            return f"threshold {data['r_threshold']} differs from hh-check's {expected}"
    return None


def cli_subprocess(op: dict, stdouts: list[str]) -> tuple[int, str]:
    """One fresh-process invocation of the command line."""
    done = subprocess.run([sys.executable, "-c", CLI_MAIN, *op["argv"]],
                          input=cli_stdin(op, stdouts), capture_output=True,
                          text=True, timeout=60)
    return done.returncode, done.stdout


def cli_in_process(op: dict, stdouts: list[str]) -> tuple[int, str]:
    """The same invocation through `cli.run`, after clearing the caches a
    fresh process would start without."""
    clear_caches()
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(cli_stdin(op, stdouts) or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(op["argv"])
    finally:
        sys.stdin = saved
    return code, out.getvalue()


OPS = {"sandwich": sandwich_ops, "dimension": dimension_ops, "cli": cli_ops}
