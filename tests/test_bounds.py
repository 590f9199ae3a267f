"""The lower-bound rule engine, derivation replay, and the numeric criteria."""

from fractions import Fraction

import pytest

from fatpoints import bounds
from fatpoints.bounds import (
    alpha_generic,
    bound_fact_to_dict,
    chudnovsky_check,
    containment_threshold,
    decomposition_bound,
    hh_check,
    proof_tree_to_dict,
    regularity_generic,
    replay_proof_tree,
    report_to_dict,
    waldschmidt_lower_bound,
)
from helpers import SWEEP_STOPS, reference_lower_bound

F = Fraction

# every count up to 1500, then a sparse stride to 20000
REFERENCE_COUNTS = [*range(1, 1501), *range(1501, 20001, 97)]


def test_alpha_generic():
    assert alpha_generic(2, 5) == 2
    for n in (2, 4, 7):
        assert alpha_generic(n, 1) == 1
    assert alpha_generic(4, 126) == 6
    assert alpha_generic(4, 71) == 5
    with pytest.raises(ValueError):
        alpha_generic(1, 5)


def test_regularity_generic():
    assert regularity_generic(4, 82) == 6
    for n in (2, 5, 9):
        assert regularity_generic(n, 1) == 1
    assert regularity_generic(4, 71) == 6
    assert regularity_generic(4, 36) == 5
    assert regularity_generic(4, 16) == 4
    assert regularity_generic(5, 127) == 6


def test_bound_values_frozen():
    cases = {
        (4, 8): F(8, 5),
        (4, 36): F(51, 25),
        (4, 71): F(23, 10),
        (4, 126): F(3),
        (4, 128): F(16, 5),
        (5, 127): F(21, 10),
        (6, 462): F(7, 3),
    }
    for (n, s), expected in cases.items():
        assert waldschmidt_lower_bound(n, s).bound == expected, (n, s)
    for n in range(2, 9):
        assert waldschmidt_lower_bound(n, 2**n).bound == 2


def test_bound_monotone_in_count():
    for n in (2, 3, 4, 5):
        values = [waldschmidt_lower_bound(n, s).bound for s in range(1, 140)]
        assert all(a <= b for a, b in zip(values, values[1:])), n


def test_every_derivation_replays():
    for n in (2, 3, 4, 5, 6):
        for s in range(1, 90, 7):
            fact = waldschmidt_lower_bound(n, s)
            assert replay_proof_tree(fact.derivation) == fact.bound


def test_replay_rejects_tampered_tree():
    from dataclasses import replace

    fact = waldschmidt_lower_bound(4, 71)
    forged = replace(fact.derivation, value=fact.bound + 1)
    with pytest.raises(ValueError):
        replay_proof_tree(forged)


@pytest.mark.parametrize(
    "n, s, case",
    [(4, 9, "bogus"), (5, 9, "n+3-even"), (4, 9, "n+3-odd"), (4, 6, "n+3-even")],
    ids=["unknown-case", "even-case-odd-n", "odd-case-even-n", "too-few-points"],
)
def test_replay_rejects_small_count_cases_that_do_not_hold(n, s, case):
    # a known case stores its own closed form, so only applicability can fail
    value = F(3, 2) if case == "bogus" else bounds._small_count_value(n, case)
    tree = bounds.ProofTree(bounds.RULE_SMALL_COUNT, value, (("n", n), ("s", s), ("case", case)))
    with pytest.raises(ValueError):
        replay_proof_tree(tree)


def test_decomposition_bound_values():
    assert decomposition_bound(5, [(3, F(2)), (4, F(2))], 1) == 2
    # the cross-dimension shape: a1 = (n+l+1)/n, a2 = (n+l)/n
    n, level = 5, 2
    a1, a2 = F(n + level + 1, n), F(n + level, n)
    value = decomposition_bound(n + 1, [(16, a1), (6, a2)], 1)
    assert value == F(level + 1) * (n + level) / ((n + level + 1) * n) + 1
    assert value > 1 + F(level + 1, n + 1)


def test_decomposition_bound_hypotheses():
    with pytest.raises(ValueError):
        decomposition_bound(5, [(3, F(1)), (4, F(2))], 1)  # a1 not > k
    with pytest.raises(ValueError):
        decomposition_bound(5, [(3, F(5, 2)), (4, F(2))], 1)  # a1 > k+1
    with pytest.raises(ValueError):
        decomposition_bound(5, [(3, F(2)), (4, F(3))], 1)  # a_{k+1} > k+1
    with pytest.raises(ValueError):
        decomposition_bound(5, [(3, F(2))], 1)  # arity
    with pytest.raises(ValueError):
        decomposition_bound(2, [(3, F(2)), (4, F(2))], 1)  # no lower dimension


def test_hh_examples():
    report = hh_check(4, 71)
    assert report.verdict and report.bound == F(23, 10) and report.rhs == F(9, 4)
    report = hh_check(4, 36)
    assert report.verdict and report.bound == F(51, 25) and report.rhs == F(2)
    report = hh_check(5, 127)
    assert report.verdict and report.bound == F(21, 10) and report.rhs == F(2)
    # at 126 points the rhs drops to 9/5 and the grid bound 2 already clears it
    report = hh_check(5, 126)
    assert report.verdict and report.bound == F(2) and report.rhs == F(9, 5)


def test_chudnovsky_examples():
    report = chudnovsky_check(4, 126)
    assert report.verdict and report.bound == F(3)
    assert report.alpha == 6 and report.rhs == F(9, 4)
    for n in range(2, 9):
        report = chudnovsky_check(n, n + 2)
        assert report.bound >= F(n + 2, n)
        assert report.rhs == F(n + 1, n)
        assert report.verdict


def test_threshold_values():
    assert containment_threshold(4, 71) == 46
    assert containment_threshold(4, 16) == 8
    with pytest.raises(ValueError):
        containment_threshold(2, 1)  # bound 1 equals rhs 1: not strict


def test_threshold_least_and_persistent():
    for n, s in ((4, 71), (4, 16), (5, 127)):
        r = containment_threshold(n, s)
        bound = waldschmidt_lower_bound(n, s).bound
        reg = regularity_generic(n, s)
        ok = lambda t: (n * t - n) * bound >= t * (reg + n - 1)
        assert ok(r)
        if r > 2:
            assert not ok(r - 1)
        assert all(ok(t) for t in range(r, r + 101))


def test_report_serialization_shape():
    report = hh_check(4, 71)
    data = report_to_dict(report)
    assert data["bound"] == {"num": 23, "den": 10}
    assert data["rhs"] == {"num": 9, "den": 4}
    assert data["verdict"] is True
    assert data["r_threshold"] == 46
    assert data["notes"]["containment_exponent"] == "(n-1)r"
    assert data["proof_tree"]["rule"] in {"monotone", "unit-to-double"}
    fact = waldschmidt_lower_bound(4, 8)
    blob = bound_fact_to_dict(fact)
    assert blob == {
        "N": 4,
        "s": 8,
        "bound": {"num": 8, "den": 5},
        "proof_tree": proof_tree_to_dict(fact.derivation),
    }


def test_certified_leaves_survive_full_replay():
    # derivations that bottom out in certificates re-verify those certificates
    fact = waldschmidt_lower_bound(4, 36)
    tree = fact.derivation
    while tree.certificate is None:
        tree = tree.premises[0]
    assert tree.rule == "certified-system"
    assert replay_proof_tree(fact.derivation) == F(51, 25)


def test_engine_matches_the_reference_engine():
    # the grid has ties (n=4, s=7: two small-count cases at 3/2; n=4, s=16:
    # root-count and block-doubling at 2), where the first maximal candidate
    # must win as it does in the reference
    for n in range(2, 11):
        for s in REFERENCE_COUNTS:
            assert bound_fact_to_dict(waldschmidt_lower_bound(n, s)) == bound_fact_to_dict(
                reference_lower_bound(n, s)
            ), (n, s)


def test_reports_match_the_reference_engine(monkeypatch):
    sample = [(n, s) for n in range(2, 11) for s in (1, n + 1, n + 3, n + 4, 2**n, 700, 6600)]
    checks = (hh_check, chudnovsky_check)
    reports = [report_to_dict(check(n, s)) for n, s in sample for check in checks]
    monkeypatch.setattr(bounds, "waldschmidt_lower_bound", reference_lower_bound)
    expected = [report_to_dict(check(n, s)) for n, s in sample for check in checks]
    assert reports == expected


def _candidate_rule(tree):
    # a bound applied to more points than its own is the same candidate
    return tree.premises[0].rule if tree.rule == "monotone" else tree.rule


def test_bound_is_constant_between_breakpoints():
    for n, stop in SWEEP_STOPS.items():
        cuts = bounds._candidate_table(n).breakpoints(stop)
        assert cuts[0] == 1
        first = None
        for s in range(1, stop + 1):
            fact = waldschmidt_lower_bound(n, s)
            if s in cuts:
                first = fact
            assert fact.bound == first.bound, (n, s)
            assert _candidate_rule(fact.derivation) == _candidate_rule(first.derivation), (n, s)
