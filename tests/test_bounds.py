"""The lower-bound rule engine, derivation replay, and the numeric criteria."""

import dataclasses
import random
from fractions import Fraction
from math import comb

import pytest

from fatpoints import bounds
from fatpoints.bounds import (
    RULE_BLOCK_DOUBLING,
    RULE_DECOMPOSE,
    RULE_MONOTONE,
    RULE_ROOT_COUNT,
    RULE_SMALL_COUNT,
    RULE_TRIVIAL,
    ProofTree,
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
from fatpoints.facts import catalog
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


def test_count_inversions_are_exact_at_any_size():
    # alpha, reg and the floor n-th root by their defining inequalities, where
    # C(m, n) = 0 for m < n
    for n in range(2, 11):
        for s in [*range(1, 3001), 2**62, 2**1100, 10**400]:
            d, reg, k = alpha_generic(n, s), regularity_generic(n, s), bounds._floor_nth_root(s, n)
            assert comb(d - 1 + n, n) <= s < comb(d + n, n), (n, s)
            assert comb(n + reg - 2, n) < s <= comb(n + reg - 1, n), (n, s)
            assert k**n <= s < (k + 1) ** n, (n, s)


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
    # the acceptance grid: every count for n <= 6, every 7th for n >= 7
    for n, stop in SWEEP_STOPS.items():
        for s in range(1, stop + 1, 1 if n <= 6 else 7):
            fact = waldschmidt_lower_bound(n, s)
            assert replay_proof_tree(fact.derivation) == fact.bound, (n, s)
            assert bounds._subject(fact.derivation) == (n, s)


def test_replay_rejects_tampered_tree():
    from dataclasses import replace

    fact = waldschmidt_lower_bound(4, 71)
    forged = replace(fact.derivation, value=fact.bound + 1)
    with pytest.raises(ValueError):
        replay_proof_tree(forged)


ROOT_LEAF = ProofTree(RULE_ROOT_COUNT, F(10), (("n", 4), ("s", 10**4), ("scale", 10)))


def _fat_certified() -> ProofTree:
    fact = next(f for f in catalog(4) if f.profile.runs == ((2, 4), (1, 7)))
    return bounds._certified_system(fact)


def _decompose_5_22(value, **changes) -> ProofTree:
    # the engine's tree for 22 points in P^5: a = (2, 3/2), value 7/4
    tree = waldschmidt_lower_bound(5, 22).derivation
    assert tree.rule == RULE_DECOMPOSE and tree.value == F(7, 4)
    params = tuple((key, changes.get(key, v)) for key, v in tree.params)
    return ProofTree(RULE_DECOMPOSE, value, params, tree.premises)


# trees that no engine run can build, each with the reason replay gives; the
# first three would otherwise replay to bounds above the engine's (20 against
# 2 for 16 points in P^4, 10 against 1 for 3, 23/10 against 8/5 for 12)
FORGED = {
    "block-doubling over another count": (
        lambda: ProofTree(
            RULE_BLOCK_DOUBLING, F(20), (("n", 4), ("s", 16), ("b", 1)), (ROOT_LEAF,)
        ),
        r"block-doubling premise must bound 1 points in P\^4, not \(4, 10000\)",
    ),
    "monotone downward": (
        lambda: ProofTree(RULE_MONOTONE, F(10), (("s", 3), ("s0", 2)), (ROOT_LEAF,)),
        "monotonicity applied downward, from 10000 to 3 points",
    ),
    "monotone over a fat profile": (
        lambda: ProofTree(RULE_MONOTONE, F(23, 10), (("s", 12), ("s0", 11)), (_fat_certified(),)),
        "monotonicity needs a premise about simple points, not a fat profile",
    ),
    "small-count off its own count": (
        lambda: ProofTree(RULE_SMALL_COUNT, F(5, 4), (("n", 4), ("s", 6), ("case", "n+1"))),
        r"rebuilt small-count node 5/4 \(\('n', 4\), \('s', 5\)",
    ),
    "root-count below its scale": (
        lambda: ProofTree(RULE_ROOT_COUNT, F(2), (("n", 4), ("s", 81), ("scale", 2))),
        r"rebuilt root-count node 3 \(\('n', 4\), \('s', 81\), \('scale', 3\)\)",
    ),
    "block-doubling below s >> n": (
        lambda: ProofTree(
            RULE_BLOCK_DOUBLING,
            F(2),
            (("n", 4), ("s", 32), ("b", 1)),
            (waldschmidt_lower_bound(4, 1).derivation,),
        ),
        r"block-doubling premise must bound 2 points in P\^4, not \(4, 1\)",
    ),
    "decompose part below its premise": (
        lambda: _decompose_5_22(F(3, 2), a=((3, 2), (3, 2))),
        r"rebuilt decompose node 7/4 .*\('a', \(\(2, 1\), \(3, 2\)\)\)",
    ),
    "decompose scope altered": (
        lambda: _decompose_5_22(F(7, 4), scope="generic"),
        r"rebuilt decompose node 7/4 .*\('scope', 'very-general-from-generic'\)",
    ),
    "monotone at its own count": (
        lambda: ProofTree(
            RULE_MONOTONE,
            F(5, 4),
            (("s", 5), ("s0", 5)),
            (ProofTree(RULE_SMALL_COUNT, F(5, 4), (("n", 4), ("s", 5), ("case", "n+1"))),),
        ),
        r"stored monotone node 5/4 .* rebuilt small-count node 5/4",
    ),
    "trivial with a text dimension": (
        lambda: ProofTree(RULE_TRIVIAL, F(1), (("n", "4"), ("s", 3))),
        "dimension and point count must be integers, got '4' and 3",
    ),
    "trivial with a bool count": (
        lambda: ProofTree(RULE_TRIVIAL, F(1), (("n", 4), ("s", True))),
        "dimension and point count must be integers, got 4 and True",
    ),
    "small-count with a list case": (
        lambda: ProofTree(RULE_SMALL_COUNT, F(5, 4), (("n", 4), ("s", 5), ("case", ["n+1"]))),
        r"small-count case \['n\+1'\] does not hold in P\^4",
    ),
    "root-count at a float count": (
        lambda: ProofTree(RULE_ROOT_COUNT, F(2), (("n", 2), ("s", 4.0), ("scale", 2))),
        "dimension and point count must be integers, got 2 and 4.0",
    ),
    "root-count at a fractional count": (
        lambda: ProofTree(RULE_ROOT_COUNT, F(2), (("n", 2), ("s", 4.5), ("scale", 2))),
        "dimension and point count must be integers, got 2 and 4.5",
    ),
    "monotone to a fractional count": (
        lambda: ProofTree(
            RULE_MONOTONE,
            F(5, 4),
            (("s", 5.5), ("s0", 5)),
            (ProofTree(RULE_SMALL_COUNT, F(5, 4), (("n", 4), ("s", 5), ("case", "n+1"))),),
        ),
        "dimension and point count must be integers, got 4 and 5.5",
    ),
    "block-doubling at a float count": (
        lambda: ProofTree(
            RULE_BLOCK_DOUBLING,
            F(2),
            (("n", 2), ("s", 4.0), ("b", 1)),
            (waldschmidt_lower_bound(2, 1).derivation,),
        ),
        "dimension and point count must be integers, got 2 and 4.0",
    ),
    "monotone without a premise": (
        lambda: ProofTree(RULE_MONOTONE, F(10), (("s", 3), ("s0", 2))),
        "rule monotone needs exactly one premise",
    ),
    "certified without a certificate": (
        lambda: dataclasses.replace(_fat_certified(), certificate=None),
        "certified rule without a certificate",
    ),
    "unknown rule": (
        lambda: ProofTree("induction", F(1), (("n", 4), ("s", 3))),
        "unknown rule 'induction'",
    ),
}


@pytest.mark.parametrize("build, reason", FORGED.values(), ids=FORGED.keys())
def test_replay_rejects_trees_the_engine_cannot_build(build, reason):
    with pytest.raises(ValueError, match=reason):
        replay_proof_tree(build())


def _monotone_chain(depth: int) -> ProofTree:
    # depth - 1 monotone steps over the 5-point small-count leaf in P^4
    tree = ProofTree(RULE_SMALL_COUNT, F(5, 4), (("n", 4), ("s", 5), ("case", "n+1")))
    for s in range(6, 5 + depth):
        tree = ProofTree(RULE_MONOTONE, tree.value, (("s", s), ("s0", s - 1)), (tree,))
    return tree


def test_replay_rejects_trees_deeper_than_the_limit():
    assert replay_proof_tree(_monotone_chain(bounds.MAX_PROOF_DEPTH)) == F(5, 4)
    for depth in (bounds.MAX_PROOF_DEPTH + 1, 3000):
        with pytest.raises(ValueError, match="derivation is deeper than"):
            replay_proof_tree(_monotone_chain(depth))


def test_replay_visits_a_shared_premise_once():
    # decompose levels share premises: replayed once per path, this tree
    # would take time doubling with n
    fact = waldschmidt_lower_bound(40, 2**40 - 1)
    assert replay_proof_tree(fact.derivation) == fact.bound


def test_replay_names_a_missing_param():
    with pytest.raises(ValueError, match="trivial node has no param 'n'"):
        replay_proof_tree(ProofTree(RULE_TRIVIAL, F(1), ()))


@pytest.mark.parametrize(
    "n, s, case, value",
    [
        (4, 9, "bogus", F(3, 2)),
        (5, 9, "n+3-even", F(7, 5)),
        (4, 9, "n+3-odd", 1 + F(2, 4) + F(2, 4**3 + 2 * 4**2 - 4)),
        (4, 6, "n+3-even", F(6, 4)),
    ],
    ids=["unknown-case", "even-case-odd-n", "odd-case-even-n", "too-few-points"],
)
def test_replay_rejects_small_count_cases_that_do_not_hold(n, s, case, value):
    # a known case stores its own closed form, so only applicability can fail
    tree = bounds.ProofTree(bounds.RULE_SMALL_COUNT, value, (("n", n), ("s", s), ("case", case)))
    with pytest.raises(ValueError):
        replay_proof_tree(tree)


def test_decomposition_bound_values():
    assert decomposition_bound(5, [(3, F(2)), (4, F(2))]) == 2
    # the cross-dimension shape: a1 = (n+l+1)/n, a2 = (n+l)/n
    n, level = 5, 2
    a1, a2 = F(n + level + 1, n), F(n + level, n)
    value = decomposition_bound(n + 1, [(16, a1), (6, a2)])
    assert value == F(level + 1) * (n + level) / ((n + level + 1) * n) + 1
    assert value > 1 + F(level + 1, n + 1)


def test_decomposition_bound_is_at_most_two():
    # why the engine walks decompose levels only below 2, in any dimension
    grid = sorted({F(p, q) for q in range(1, 13) for p in range(q, 2 * q + 1)})
    for n in (3, 11, 20, 64):
        for a1 in (a for a in grid if a > 1):
            for a2 in grid:
                assert decomposition_bound(n, [(1, a1), (1, a2)]) <= 2, (n, a1, a2)


def test_decomposition_bound_hypotheses():
    with pytest.raises(ValueError):
        decomposition_bound(5, [(3, F(1)), (4, F(2))])  # a1 not > 1
    with pytest.raises(ValueError):
        decomposition_bound(5, [(3, F(5, 2)), (4, F(2))])  # a1 > 2
    with pytest.raises(ValueError):
        decomposition_bound(5, [(3, F(2)), (4, F(3))])  # a2 > 2
    with pytest.raises(ValueError):
        decomposition_bound(5, [(3, F(2))])  # arity
    with pytest.raises(ValueError):
        decomposition_bound(2, [(3, F(2)), (4, F(2))])  # no lower dimension


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
        cuts = bounds._breakpoints(n, 0, stop)
        assert cuts[0] == 1
        first = None
        for s in range(1, stop + 1):
            fact = waldschmidt_lower_bound(n, s)
            if s in cuts:
                first = fact
            assert fact.bound == first.bound, (n, s)
            assert _candidate_rule(fact.derivation) == _candidate_rule(first.derivation), (n, s)


def test_breakpoints_of_a_range_are_the_full_ones_inside_it():
    rng = random.Random(7)
    for _ in range(400):
        n, start = rng.randint(2, 10), rng.randint(0, 7000)
        stop = start + rng.randint(-3, 3000)
        inside = [b for b in bounds._breakpoints(n, 0, stop) if b > start]
        assert bounds._breakpoints(n, start, stop) == inside, (n, start, stop)
