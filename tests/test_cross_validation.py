"""Oracle checks that the coordinate frame brings in reach: shipped catalog
claims beyond criterion 6's matrix budget, and the bound sandwich at n = 5."""

from collections import Counter

from fatpoints.bounds import waldschmidt_lower_bound
from fatpoints.core import binomial
from fatpoints.oracle import (
    FAST_PRIME,
    OracleConfig,
    linear_system_dim,
    waldschmidt_upper_estimate,
)
from helpers import shipped_certificates

FRAMED_ENTRIES = 1_500_000


def framed_columns(n: int, d: int, frame: list[int]) -> int:
    """Monomials of degree d left once the multiplicities `frame` (heaviest
    first) sit at e_0..e_(n-1), where e_i <= d - m_i, and at the origin,
    where |e| >= m_n: coefficients of a product of truncated geometric
    series in the affine exponents."""
    counts = [1]  # counts[k]: exponent vectors so far with |e| = k
    for i in range(n):
        cap = d - frame[i] if i < len(frame) else d
        if cap < 0:
            return 0
        counts = [sum(counts[max(0, k - cap) : k + 1]) for k in range(len(counts) + cap)]
    low = frame[n] if len(frame) > n else 0
    return sum(counts[low : d + 1])


def framed_entries(n: int, d: int, mults: list[int]) -> int:
    heavy = sorted((m for m in mults if m > 0), reverse=True)
    rows = sum(binomial(m - 1 + n, n) for m in heavy[n + 1 :])
    return framed_columns(n, d, heavy[: n + 1]) * rows


def test_catalog_claims_in_reach_of_the_frame_are_empty():
    pinned = OracleConfig(trials=3, seed=2026)  # criterion 6's config
    checked = []
    for cert in shipped_certificates():
        n = cert.claim.n
        for m in (cert.m0, cert.m0 + 1):
            degree, mults = cert.claim.instantiate(m)
            if degree < 0 or framed_entries(n, degree, mults) > FRAMED_ENTRIES:
                continue
            report = linear_system_dim(n, degree, mults, pinned)
            assert report.dims == (0, 0, 0), (str(cert.claim), m, report.dims)
            checked.append((str(cert.claim), m))
    assert {
        ("L_4(8m-1; (5m)^x8)", 2),
        ("L_4(23m-1; (20m)^x4, (10m)^x7)", 1),
        ("L_4(23m-1; (20m)^x4, (10m)^x7)", 2),
    } <= set(checked)


def test_sandwich_at_n5():
    cfg = OracleConfig(prime=FAST_PRIME, trials=3, seed=77)  # criterion 7's config
    rules = Counter()
    for s in range(1, 41):
        fact = waldschmidt_lower_bound(5, s)
        rules[fact.derivation.rule] += 1
        upper = waldschmidt_upper_estimate(5, s, 4, cfg)
        assert fact.bound <= upper, (s, fact.bound, upper)
    # the rule that criterion 7's n <= 4 grid never picks
    assert rules["decompose"] > 0
