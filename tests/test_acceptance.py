"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its runtime budget.  Run with `pytest tests/test_acceptance.py -v -s`."""

import io
import json
import time
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np

from fatpoints.bounds import (
    chudnovsky_check,
    containment_threshold,
    hh_check,
    regularity_generic,
    waldschmidt_lower_bound,
)
from fatpoints.cli import run as cli_run
from fatpoints.core import AffineValue, FatPointSystem, binomial, cremona_k, pivot_of_largest
from fatpoints.facts import (
    aux_multiplier,
    block_points_certificate,
    fact_from_certificate,
    mixed_points_p5,
    n_plus_four_points,
    two_weight_certificate,
)
from fatpoints.oracle import (
    FAST_PRIME,
    OracleConfig,
    linear_system_dim,
    waldschmidt_upper_estimate,
)
from fatpoints.reduction import (
    certificate_from_dict,
    certificate_to_dict,
    certificate_to_json,
    cremona_step,
    degree_drop_step,
    evain_certificate,
    merge_empty,
    prove_empty,
    verify_certificate,
)
from helpers import shipped_certificates as _shipped_certificates
from helpers import sysb

F = Fraction


def _finish(num: int, desc: str, started: float, budget: float, failures: list) -> None:
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < budget
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {verdict} ({elapsed:.2f}s / budget {budget:.0f}s) - {desc}")
    assert not failures, failures[:5]
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s"


def _cli(argv):
    out, code = io.StringIO(), None
    with redirect_stdout(out):
        code = cli_run(argv)
    return code, out.getvalue()


def _verify_via_cli(cert, tmp_path, name):
    path = tmp_path / name
    path.write_text(certificate_to_json(cert) + "\n")
    code, _ = _cli(["verify", "--cert", str(path)])
    return code


def test_criterion_1_p4_certificates(tmp_path):
    started = time.monotonic()
    failures = []

    # (i) eight points, with the exact four-row reduction chain
    cert8 = prove_empty(sysb(4, (8, -1), ((5, 0), 8)))
    rows = [
        sysb(4, (8, -1), ((5, 0), 8)),
        sysb(4, (7, -4), ((5, 0), 3), ((4, -3), 5)),
        sysb(4, (5, -10), ((4, -3), 3), ((3, -6), 3), ((2, -9), 2)),
        sysb(4, (2, -19), ((3, -6), 1), ((2, -9), 2), ((1, -12), 3), ((0, 0), 2)),
    ]
    ks = [AffineValue(-1, -3), AffineValue(-2, -6), AffineValue(-3, -9)]
    if cert8 is None or [s.input for s in cert8.steps] != rows:
        failures.append("eight-point chain does not reproduce the four rows")
    elif [s.k for s in cert8.steps[:3]] != ks:
        failures.append("eight-point chain has wrong shifts")

    # (ii) the mixed 4+7 system
    cert47 = prove_empty(sysb(4, (23, -1), ((20, 0), 4), ((10, 0), 7)))
    if cert47 is None or not verify_certificate(cert47):
        failures.append("mixed 4+7 system not certified")

    # (iii) the merged 36-point claim, assembled through a proof script
    script = {
        "how": "merge",
        "part": {
            "system": {"N": 4, "degree": [50, -1], "mults": [[25, 0, 16]]},
            "prove": {"how": "evain", "scale": 2},
        },
        "rest": {
            "system": {"N": 4, "degree": [51, -1], "mults": [[25, 0, 20], [50, 0, 1]]},
            "prove": {
                "how": "merge",
                "part": {
                    "system": {"N": 4, "degree": [40, -1], "mults": [[25, 0, 8]]},
                    "prove": {"how": "greedy"},
                },
                "rest": {
                    "system": {
                        "N": 4,
                        "degree": [51, -1],
                        "mults": [[25, 0, 12], [50, 0, 1], [40, 0, 1]],
                    },
                    "prove": {
                        "how": "merge",
                        "part": {
                            "system": {"N": 4, "degree": [40, -1], "mults": [[25, 0, 8]]},
                            "prove": {"how": "greedy"},
                        },
                        "rest": {
                            "system": {
                                "N": 4,
                                "degree": [51, -1],
                                "mults": [[25, 0, 4], [50, 0, 1], [40, 0, 2]],
                            },
                            "prove": {"how": "greedy"},
                        },
                    },
                },
            },
        },
    }
    spath = tmp_path / "assemble36.json"
    spath.write_text(json.dumps(script))
    code, out = _cli(
        ["prove-empty", "--n", "4", "--degree", "51,-1", "--mults", "25,0:36",
         "--script", str(spath)]
    )
    cert36 = None
    if code != 0:
        failures.append(f"scripted 36-point proof exited {code}")
    else:
        cert36 = certificate_from_dict(json.loads(out))
        if cert36.claim != sysb(4, (51, -1), ((25, 0), 36)):
            failures.append("36-point claim mismatch")

    for name, cert in (("eight", cert8), ("mixed", cert47), ("merged36", cert36)):
        if cert is not None and _verify_via_cli(cert, tmp_path, f"{name}.json") != 0:
            failures.append(f"verify exits nonzero on {name}")

    _finish(1, "P^4 certificates: 8-point table chain, 4+7 system, merged 36", started, 1.0, failures)


def test_criterion_2_p5_and_even_families():
    started = time.monotonic()
    failures = []

    cert = mixed_points_p5()
    if cert.claim != sysb(5, (21, -1), ((20, 0), 3), ((10, 0), 31)):
        failures.append("P^5 claim mismatch")
    if not verify_certificate(cert):
        failures.append("P^5 certificate fails verification")

    for n in (6, 8, 10):
        cert = n_plus_four_points(n)
        if not verify_certificate(cert):
            failures.append(f"n+4 points certificate fails at n={n}")
        fact = fact_from_certificate(cert)
        want = F((n + 2) * (2 * n - 1) + 2, n * (2 * n - 1))
        if fact.bound != want or fact.profile.npoints != n + 4:
            failures.append(f"n+4 bound mismatch at n={n}: {fact.bound} != {want}")

    _finish(2, "P^5 chain and the n+4-point family at n=6,8,10", started, 1.0, failures)


def test_criterion_3_two_weight_family():
    started = time.monotonic()
    failures = []
    for n in range(5, 10):
        a = aux_multiplier(n)
        cert = two_weight_certificate(n)
        if not verify_certificate(cert):
            failures.append(f"two-weight certificate fails at n={n}")
        merged = block_points_certificate(n)
        fact = fact_from_certificate(merged)
        want = F((n + 3) * a + 1, n * a)
        if fact.bound != want:
            failures.append(f"bound mismatch at n={n}: {fact.bound} != {want}")
        if not fact.bound > F(n + 3, n):
            failures.append(f"bound not strictly above (n+3)/n at n={n}")
        if fact.profile.npoints != binomial(n + 2, 2) + 1:
            failures.append(f"point count mismatch at n={n}")
    _finish(3, "two-weight family certified at the minimal scale, n=5..9", started, 5.0, failures)


def _sweep_all_true(n, start, stop, check):
    code, out = _cli(
        ["sweep", "--n", str(n), "--from", str(start), "--to", str(stop), "--check", check]
    )
    lines = out.strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    all_true = all(row[4] == "true" for row in rows)
    return code == 0 and all_true and len(rows) == stop - start + 1


def test_criterion_4_hh_sweep():
    started = time.monotonic()
    failures = []
    for n in range(4, 9):
        stop = min(3**n, 6600)
        if not _sweep_all_true(n, n + 4, stop, "hh"):
            failures.append(f"hh sweep has a false verdict at n={n}")
    _finish(4, "strict regularity criterion true on the full grid n=4..8", started, 30.0, failures)


def test_criterion_5_chudnovsky_sweep():
    started = time.monotonic()
    failures = []
    for n in (2, 3):
        if not _sweep_all_true(n, 1, 200, "chudnovsky"):
            failures.append(f"chudnovsky sweep has a false verdict at n={n}")
    for n in range(4, 9):
        stop = min(3**n, 6600)
        if not _sweep_all_true(n, n + 4, stop, "chudnovsky"):
            failures.append(f"chudnovsky sweep has a false verdict at n={n}")
    _finish(5, "initial-degree criterion true on the grid plus n=2,3", started, 30.0, failures)


def _entries(claim: FatPointSystem, m: int) -> int:
    degree, mults = claim.instantiate(m)
    if degree < 0:
        return 0
    cols = binomial(degree + claim.n, claim.n)
    rows = sum(binomial(mi - 1 + claim.n, claim.n) for mi in mults if mi > 0)
    return cols * rows


def test_criterion_6_oracle_cross_validation():
    started = time.monotonic()
    failures = []
    pinned = OracleConfig(trials=3, seed=2026)  # default word-sized prime

    checked = 0
    for cert in _shipped_certificates():
        for m in (cert.m0, cert.m0 + 1):
            if not 0 < _entries(cert.claim, m) <= 10**6:
                continue
            degree, mults = cert.claim.instantiate(m)
            report = linear_system_dim(cert.claim.n, degree, mults, pinned)
            checked += 1
            if report.dimension != 0:
                failures.append(f"certified claim has dimension {report.dimension} at m={m}")
    if checked == 0:
        failures.append("no shipped certificate fits the matrix budget")

    # small-plane merged instances, instantiated and oracle-confirmed
    grid = evain_certificate(2, 2, (1, 0))
    two = prove_empty(sysb(2, (2, -1), ((2, 0), 2)))
    half = merge_empty(grid, two)
    full = merge_empty(grid, half)
    for cert in (half, full):
        for m in (1, 2):
            degree, mults = cert.claim.instantiate(m)
            report = linear_system_dim(2, degree, mults, pinned)
            checked += 1
            if report.dimension != 0:
                failures.append(f"merged plane claim nonzero at m={m}")

    # invariance of the oracle dimension under the two dimension-preserving moves
    rng = np.random.default_rng(20260810)
    fast = OracleConfig(prime=FAST_PRIME, trials=2, seed=5)
    done_cremona = done_drop = 0
    while done_cremona < 25 or done_drop < 25:
        n = int(rng.integers(2, 5))
        d = int(rng.integers(2, 9 if n == 4 else 11))
        count = int(rng.integers(n + 1, n + 4))
        mults = sorted((int(rng.integers(1, 6)) for _ in range(count)), reverse=True)
        sys = sysb(n, d, *((m, 1) for m in mults))
        base = None
        if done_cremona < 25:
            pivot = pivot_of_largest(sys, n + 1)
            k = cremona_k(sys, pivot)
            if all(sys.mults[i].value.intercept + k.intercept >= 0 for i in pivot):
                moved = cremona_step(sys, pivot)
                base = linear_system_dim(n, d, mults, fast)
                d2, mults2 = moved.instantiate(1)
                other = linear_system_dim(n, d2, mults2, fast)
                done_cremona += 1
                if base.dimension != other.dimension:
                    failures.append(f"dimension changed under the shift move: {sys}")
        if done_drop < 25:
            gap = (n - 1) * d - sum(mults[:n])
            if gap < 0 and mults[n - 1] > 0:
                moved = degree_drop_step(sys)
                if base is None:
                    base = linear_system_dim(n, d, mults, fast)
                d2, mults2 = moved.instantiate(1)
                other = linear_system_dim(n, d2, mults2, fast)
                done_drop += 1
                if base.dimension != other.dimension:
                    failures.append(f"dimension changed under the drop move: {sys}")

    _finish(
        6,
        f"oracle zeros on {checked} certified instances; both moves dimension-invariant on 50 systems",
        started,
        120.0,
        failures,
    )


def test_criterion_7_sandwich():
    started = time.monotonic()
    failures = []
    cfg = OracleConfig(prime=FAST_PRIME, trials=3, seed=77)
    for n in (2, 3, 4):
        for s in range(1, 41):
            lower = waldschmidt_lower_bound(n, s).bound
            upper = waldschmidt_upper_estimate(n, s, 4, cfg)
            if lower > upper:
                failures.append(f"bound {lower} exceeds oracle estimate {upper} at ({n},{s})")
    for n in (2, 3):
        estimate = waldschmidt_upper_estimate(n, 2**n, 4, cfg)
        if estimate != 2:
            failures.append(f"grid estimate at 2^{n} is {estimate}, expected exactly 2")
    _finish(7, "engine bounds below oracle estimates on n<=4, s<=40; grid value exact", started, 300.0, failures)


def test_criterion_8_containment_thresholds():
    started = time.monotonic()
    failures = []

    def brute(n, s):
        bound = waldschmidt_lower_bound(n, s).bound
        reg = regularity_generic(n, s)
        r = 2
        while not (n * r - n) * bound >= r * (reg + n - 1):
            r += 1
            if r > 10_000:
                raise AssertionError("no threshold below 10000")
        return r

    for n, s, expected in ((4, 71, 46), (4, 16, 8)):
        independent = brute(n, s)
        reported = containment_threshold(n, s)
        if independent != expected:
            failures.append(f"independent solver disagrees with frozen value at ({n},{s})")
        if reported != independent:
            failures.append(f"threshold({n},{s}) = {reported}, solver gives {independent}")
        bound = waldschmidt_lower_bound(n, s).bound
        reg = regularity_generic(n, s)
        for r in range(reported, reported + 101):
            if not (n * r - n) * bound >= r * (reg + n - 1):
                failures.append(f"persistence breaks at r={r} for ({n},{s})")
                break
        if reported > 2:
            r = reported - 1
            if (n * r - n) * bound >= r * (reg + n - 1):
                failures.append(f"threshold not least at ({n},{s})")

    _finish(8, "containment thresholds match independent solving and persist", started, 10.0, failures)


def _mutations():
    c_eight = prove_empty(sysb(4, (8, -1), ((5, 0), 8)))
    c_mixed = prove_empty(sysb(4, (23, -1), ((20, 0), 4), ((10, 0), 7)))
    c_five = prove_empty(sysb(5, (21, -1), ((20, 0), 3), ((10, 0), 31)))
    grid = evain_certificate(4, 2, (25, 0))

    from fatpoints.facts import thirty_six_points_p4

    c_merged = thirty_six_points_p4()

    out = []

    def mutate(cert, expect, label, fn):
        data = certificate_to_dict(cert)
        fn(data)
        out.append((label, data, expect))

    mutate(c_eight, 0, "claim multiplicity +1", lambda d: d["claim"]["mults"].__setitem__(0, [5, 1, 8]))
    mutate(c_eight, 0, "claim degree slope +1", lambda d: d["claim"]["degree"].__setitem__(0, 9))
    mutate(c_eight, 0, "step0 shift k tampered", lambda d: d["steps"][0].__setitem__("k", [-1, -4]))
    mutate(c_eight, 0, "step0 output degree tampered",
           lambda d: d["steps"][0]["output"]["degree"].__setitem__(1, -5))
    mutate(c_eight, 1, "step1 k tampered", lambda d: d["steps"][1].__setitem__("k", [-2, -5]))
    mutate(c_eight, 1, "step1 output count tampered",
           lambda d: d["steps"][1]["output"]["mults"].__setitem__(0, [4, -3, 4]))
    mutate(c_eight, 2, "step2 clamp threshold tampered",
           lambda d: d["steps"][2]["clamps"][0].__setitem__("threshold", 9))
    mutate(c_eight, 2, "step2 clamped run altered",
           lambda d: d["steps"][2]["output"]["mults"].__setitem__(3, [0, 1, 2]))
    mutate(c_eight, 3, "witness index out of range", lambda d: d["steps"][3].__setitem__("witness", 9))
    mutate(c_eight, 3, "final threshold lowered", lambda d: d["steps"][3].__setitem__("threshold", 0))
    mutate(c_eight, 0, "certificate m0 below one", lambda d: d.__setitem__("m0", 0))
    mutate(c_mixed, 0, "pivot swapped to a smaller point",
           lambda d: d["steps"][0].__setitem__("pivot", [0, 0, 0, 1, 1]))
    mutate(c_mixed, 0, "k intercept tampered", lambda d: d["steps"][0].__setitem__("k", [-21, -2]))
    mutate(c_mixed, 1, "witness moved to a clamped run", lambda d: d["steps"][1].__setitem__("witness", 1))
    mutate(c_mixed, 0, "claim count tampered", lambda d: d["claim"]["mults"].__setitem__(1, [10, 0, 8]))
    mutate(c_five, 1, "mid-chain output degree tampered",
           lambda d: d["steps"][1]["output"]["degree"].__setitem__(1, -12))
    mutate(c_five, 2, "final threshold raised", lambda d: d["steps"][2].__setitem__("threshold", 6))
    mutate(grid, 0, "axiom scale tampered", lambda d: d["steps"][0].__setitem__("scale", 3))
    mutate(c_merged, 0, "merge removal index tampered", lambda d: d["steps"][0].__setitem__("removed", 1))
    mutate(c_merged, 0, "nested reference claim tampered",
           lambda d: d["steps"][0]["refs"][0]["claim"]["degree"].__setitem__(1, 0))
    return out


def test_criterion_9_tamper_suite():
    started = time.monotonic()
    failures = []
    mutations = _mutations()
    if len(mutations) != 20:
        failures.append(f"expected 20 mutations, built {len(mutations)}")
    for label, data, expect in mutations:
        result = verify_certificate(certificate_from_dict(data))
        if result.ok:
            failures.append(f"accepted tampered certificate: {label}")
        elif result.failed_step != expect:
            failures.append(
                f"{label}: failed at step {result.failed_step}, expected {expect}"
            )
    _finish(9, "all 20 tampered certificates rejected at the right step", started, 10.0, failures)
