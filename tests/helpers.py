"""Shared builders for the test suite."""

from collections import Counter

from fatpoints.core import AffineValue, FatPointSystem
from fatpoints.facts import catalog


def sysb(n, degree, *runs) -> FatPointSystem:
    return FatPointSystem.build(n, degree, runs)


def pivot_matching(sys: FatPointSystem, values) -> list[int]:
    """Run indices (with repetition) selecting the given multiset of values."""
    wanted = Counter(AffineValue.of(v) for v in values)
    pivot: list[int] = []
    for idx, run in enumerate(sys.mults):
        take = min(run.count, wanted[run.value])
        pivot.extend([idx] * take)
        wanted[run.value] -= take
    missing = {str(v): c for v, c in wanted.items() if c}
    assert not missing, f"values not present in {sys}: {missing}"
    return pivot


def shipped_certificates() -> list:
    """Every certificate of the catalogs for n = 4..10, with the ones they
    merge, each once."""
    seen = []

    def walk(cert):
        if cert in seen:
            return
        seen.append(cert)
        for step in cert.steps:
            for ref in step.refs:
                walk(ref)

    for n in range(4, 11):
        for fact in catalog(n):
            walk(fact.certificate)
    return seen
