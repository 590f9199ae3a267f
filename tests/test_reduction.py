"""Reduction moves, proof search, merging, verification, serialization."""

import dataclasses
import json

import pytest

from fatpoints import reduction
from fatpoints.core import AffineValue, FatPointSystem
from fatpoints.reduction import (
    MAX_NESTING,
    MAX_REASON,
    MergeError,
    PreconditionError,
    ReductionError,
    certificate_from_dict,
    certificate_from_json,
    certificate_to_dict,
    certificate_to_json,
    contradiction_step,
    cremona_step,
    degree_drop_step,
    evain_certificate,
    merge_empty,
    prove_empty,
    prove_with_script,
    reduce_full,
    step_is_reducing,
    system_to_dict,
    verify_certificate,
)
from helpers import merge_chain_script, nested_merges, pivot_matching, sysb
from test_acceptance import _mutations

A = AffineValue


# ---------------------------------------------------------------------------
# dimension-preserving moves


def test_cremona_step_basic():
    s = sysb(2, 2, (1, 5))
    out = cremona_step(s, [0, 0, 0])
    assert out == sysb(2, 1, (0, 3), (1, 2))


def test_cremona_step_involution():
    s = sysb(2, 7, (4, 1), (3, 1), (2, 1))
    out = cremona_step(s, [0, 1, 2])  # k = 7 - 9 = -2
    assert out == sysb(2, 5, (2, 1), (1, 1), (0, 1))
    back = cremona_step(out, pivot_matching(out, [2, 1, 0]))
    assert back == s


def test_cremona_step_parametric_table_row():
    s = sysb(4, (8, -1), ((5, 0), 8))
    out = cremona_step(s, [0] * 5)
    assert out == sysb(4, (7, -4), ((4, -3), 5), ((5, 0), 3))


def test_cremona_step_precondition():
    # k = 3 - 6 = -3 pushes the unit multiplicities negative
    s = sysb(2, 3, ((2, 0), 2), ((1, 0), 1))
    with pytest.raises(PreconditionError):
        cremona_step(s, [0, 0, 1])


def test_degree_drop_examples():
    s = sysb(2, 2, (2, 2), (1, 1))
    assert degree_drop_step(s) == sysb(2, 1, (1, 3))
    s = sysb(2, 1, (1, 2))
    assert degree_drop_step(s) == sysb(2, 0, (0, 2))


def test_degree_drop_preconditions():
    with pytest.raises(PreconditionError):
        degree_drop_step(sysb(2, 5, (1, 3)))  # gap = 5 - 2 > 0
    with pytest.raises(PreconditionError):
        degree_drop_step(sysb(2, 1, ((1, 0), 1), ((0, 0), 1)))  # zero in pivot


# ---------------------------------------------------------------------------
# reduce_full


def test_reduce_full_one_shot_contradiction_shape():
    s = sysb(4, (23, -1), ((20, 0), 4), ((10, 0), 7))
    step = reduce_full(s)
    assert step.k == A(-21, -3)
    assert step.output == sysb(4, (2, -4), ((10, 0), 6), ((0, 0), 5))
    assert len(step.clamps) == 2  # the 20m block and one 10m point go negative
    assert step_is_reducing(step)


def test_reduce_full_table_rows_three_to_four():
    s = sysb(4, (5, -10), ((4, -3), 3), ((3, -6), 3), ((2, -9), 2))
    step = reduce_full(s)
    assert step.k == A(-3, -9)
    assert step.output == sysb(
        4, (2, -19), ((3, -6), 1), ((2, -9), 2), ((1, -12), 3), ((0, 0), 2)
    )


def test_reduce_full_positive_k_flagged():
    s = sysb(2, 5, (1, 3))
    step = reduce_full(s)
    assert step.k == A(0, 2)
    assert not step_is_reducing(step)


def test_reduce_full_matches_drop_then_shift_composite():
    # when one pivot multiplicity lands below zero, the clamped shift agrees
    # with |l| degree drops followed by the exact shift
    s = sysb(2, 7, (5, 2), (2, 1))
    step = reduce_full(s)  # k = 7 - 12 = -5, the mult 2 clamps
    assert step.output == sysb(2, 2, (0, 3))
    via_drops = s
    for _ in range(3):  # l = m3 + k = -3
        via_drops = degree_drop_step(via_drops)
    assert via_drops == sysb(2, 4, (2, 3))
    assert cremona_step(via_drops, [0, 0, 0]) == sysb(2, 2, (0, 3))


def test_reduce_full_rederives_merged_seed_row():
    # the seed reduction behind the 36-point claim; exercises clamping
    s = sysb(4, (51, -1), ((25, 0), 4), ((50, 0), 1), ((40, 0), 2))
    step = reduce_full(s)
    assert step.k == A(-27, -3)
    assert step.output == sysb(
        4, (24, -4), ((25, 0), 2), ((23, -3), 1), ((13, -3), 2), ((0, 0), 2)
    )
    contra = contradiction_step(step.output)
    assert contra is not None and contra.threshold == 1


# ---------------------------------------------------------------------------
# proof search


EIGHT_POINT_ROWS = [
    sysb(4, (8, -1), ((5, 0), 8)),
    sysb(4, (7, -4), ((5, 0), 3), ((4, -3), 5)),
    sysb(4, (5, -10), ((4, -3), 3), ((3, -6), 3), ((2, -9), 2)),
    sysb(4, (2, -19), ((3, -6), 1), ((2, -9), 2), ((1, -12), 3), ((0, 0), 2)),
]


def test_greedy_reproduces_the_eight_point_chain():
    cert = prove_empty(EIGHT_POINT_ROWS[0])
    assert cert is not None and cert.m0 == 1
    assert [s.rule for s in cert.steps] == [
        "reduce_full",
        "reduce_full",
        "reduce_full",
        "contradiction",
    ]
    assert [s.input for s in cert.steps] == EIGHT_POINT_ROWS
    assert [s.k for s in cert.steps[:3]] == [A(-1, -3), A(-2, -6), A(-3, -9)]
    assert verify_certificate(cert)


def test_greedy_p5_chain():
    cert = prove_empty(sysb(5, (21, -1), ((20, 0), 3), ((10, 0), 31)))
    assert cert is not None and cert.m0 == 1
    assert [str(s.k) for s in cert.steps if s.k is not None] == ["-6m-4", "-12m-8"]
    assert verify_certificate(cert)


def test_greedy_fails_on_plainly_nonempty_system():
    assert prove_empty(sysb(2, 100, (1, 5))) is None
    assert prove_empty(sysb(2, 3, (1, 2))) is None  # too few points, no witness


def test_greedy_immediate_contradiction():
    cert = prove_empty(sysb(2, (2, -1), ((2, 0), 2)))
    assert cert is not None
    assert [s.rule for s in cert.steps] == ["contradiction"]


def test_prove_empty_is_deterministic():
    s = sysb(4, (8, -1), ((5, 0), 8))
    c1, c2 = prove_empty(s), prove_empty(s)
    assert c1 == c2
    assert certificate_to_json(c1) == certificate_to_json(c2)


def test_scripted_pivots_replay_a_chain():
    s = sysb(4, (8, -1), ((5, 0), 8))
    greedy = prove_empty(s)
    pivots = [step.pivot for step in greedy.steps if step.pivot]
    scripted = prove_with_script(s, {"how": "pivots", "pivots": [list(p) for p in pivots]})
    assert scripted == greedy


def test_scripted_pivot_need_not_be_the_largest():
    # n+4 points in even dimension: the published chain's second pivot takes
    # only two of the three heaviest points, which verification must accept
    n = 6
    q1, p1 = n * (2 * n - 1) // 2, (n + 2) * (2 * n - 1) // 2 + 1
    s = sysb(n, (p1, -1), ((q1, 0), n + 4))
    cert = prove_with_script(
        s, {"how": "pivots", "pivots": [[0] * (n + 1), [0, 0] + [1] * (n - 1)]})
    assert cert is not None and verify_certificate(cert)
    shift = A(-n, -(n - 1))
    assert [step.k for step in cert.steps[:2]] == [shift, shift]
    assert cert.steps[1].input == sysb(
        n, (p1 - n, -n), ((q1, 0), 3), ((q1 - n, -(n - 1)), n + 1)
    )
    assert cert.steps[2].input == sysb(
        n,
        (q1, -(2 * n - 1)),
        ((q1, 0), 1),
        ((q1 - n, -(n - 1)), 4),
        ((q1 - 2 * n, -2 * (n - 1)), n - 1),
    )
    # the lone heaviest point exceeds the final degree by the constant 2n-1
    witness = cert.steps[-1]
    assert witness.rule == "contradiction"
    assert cert.steps[2].input.mults[witness.witness].value == A(q1, 0)


# ---------------------------------------------------------------------------
# axiom + merge


def test_evain_certificate_pattern():
    cert = evain_certificate(4, 2, (25, 0))
    assert cert.claim == sysb(4, (50, -1), ((25, 0), 16))
    assert cert.m0 == 1
    assert verify_certificate(cert)
    with pytest.raises(ValueError):
        evain_certificate(3, 1, (1, 0))
    with pytest.raises(ValueError):
        evain_certificate(3, 2, (-1, 0))


def test_merge_small_grid_assembly():
    # unit grid in the plane: 2^2 points, degree 2m-1
    grid = evain_certificate(2, 2, (1, 0))
    two = prove_empty(sysb(2, (2, -1), ((2, 0), 2)))
    merged = merge_empty(grid, two)
    assert merged.claim == sysb(2, (2, -1), ((2, 0), 1), ((1, 0), 4))
    merged = merge_empty(grid, merged)
    assert merged.claim == sysb(2, (2, -1), ((1, 0), 8))
    assert verify_certificate(merged)


def test_merge_rejects_mismatch():
    grid = evain_certificate(2, 2, (1, 0))
    other = prove_empty(sysb(2, (3, -1), ((3, 0), 2)))
    assert other is not None
    with pytest.raises(MergeError):
        merge_empty(grid, other)  # no 2m multiplicity to absorb


def test_merge_rejects_broken_input():
    grid = evain_certificate(2, 2, (1, 0))
    two = prove_empty(sysb(2, (2, -1), ((2, 0), 2)))
    broken = certificate_from_dict(_tamper(two, ["claim", "degree"], [2, 0]))
    with pytest.raises(MergeError):
        merge_empty(grid, broken)


# ---------------------------------------------------------------------------
# verification and tampering


def _tamper(cert, path, value):
    data = certificate_to_dict(cert)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


def test_verify_detects_claim_tamper():
    cert = prove_empty(EIGHT_POINT_ROWS[0])
    bad = certificate_from_dict(_tamper(cert, ["claim", "mults", 0], [5, 1, 8]))
    res = verify_certificate(bad)
    assert not res and res.failed_step == 0


def test_verify_detects_midstep_tamper():
    cert = prove_empty(EIGHT_POINT_ROWS[0])
    data = certificate_to_dict(cert)
    data["steps"][1]["k"] = [-2, -7]
    res = verify_certificate(certificate_from_dict(data))
    assert not res and res.failed_step == 1


def test_verify_detects_threshold_tamper():
    cert = prove_empty(EIGHT_POINT_ROWS[0])
    data = certificate_to_dict(cert)
    data["steps"][2]["threshold"] = 5
    res = verify_certificate(certificate_from_dict(data))
    assert not res and res.failed_step == 2


def test_verify_detects_bad_witness():
    cert = prove_empty(sysb(2, (2, -1), ((2, 0), 2)))
    data = certificate_to_dict(cert)
    data["steps"][-1]["witness"] = 7
    res = verify_certificate(certificate_from_dict(data))
    assert not res and res.failed_step == 0


def test_verify_checks_m0_floor():
    cert = prove_empty(EIGHT_POINT_ROWS[0])
    data = certificate_to_dict(cert)
    data["m0"] = 0
    res = verify_certificate(certificate_from_dict(data))
    assert not res and res.failed_step == 0


# the side fields each rule reads; every other one must keep its default
RULE_FIELDS = {
    "reduce_full": {"pivot", "k", "clamps"},
    "contradiction": {"witness"},
    "evain_axiom": {"scale"},
    "merge_empty": {"refs", "removed"},
}


def _side_values():
    """A non-default value for every side field."""
    return {
        "pivot": [0, 1],
        "k": [7, 7],
        "clamps": [{"index": 0, "value": [0, 0], "threshold": 1}],
        "witness": 5,
        "removed": 3,
        "scale": 99,
        "refs": [certificate_to_dict(evain_certificate(2, 2, (1, 0)))],
    }


def _one_step_per_rule():
    """(certificate dict, step index) for a valid step of every rule."""
    eight = certificate_to_dict(prove_empty(EIGHT_POINT_ROWS[0]))
    return [
        (eight, 0),
        (eight, 3),
        (certificate_to_dict(evain_certificate(2, 2, (1, 0))), 0),
        (certificate_to_dict(_plane_merge()), 0),
    ]


def test_verify_rejects_side_fields_the_rule_does_not_read():
    cases = _one_step_per_rule()
    assert {data["steps"][i]["rule"] for data, i in cases} == set(RULE_FIELDS)
    for data, i in cases:
        assert verify_certificate(certificate_from_dict(data))
        rule = data["steps"][i]["rule"]
        for field, value in _side_values().items():
            if field in RULE_FIELDS[rule]:
                continue
            bad = json.loads(json.dumps(data))
            bad["steps"][i][field] = value
            res = verify_certificate(certificate_from_dict(bad))
            assert (res.ok, res.failed_step, res.reason) == (
                False, i, f"{rule} step must leave {field} unset"), (rule, field)


# the (failed_step, reason) that verification reports for each criterion-9
# mutation; a refactor of the replay must keep every one
MUTATION_REASONS = {
    "claim multiplicity +1": (0, "stored k -m-3 differs from replayed -m-8"),
    "claim degree slope +1": (0, "stored k -m-3 differs from replayed 2m-3"),
    "step0 shift k tampered": (0, "stored k -m-4 differs from replayed -m-3"),
    "step0 output degree tampered": (0, "stored output does not match replay"),
    "step1 k tampered": (1, "stored k -2m-5 differs from replayed -2m-6"),
    "step1 output count tampered": (1, "stored output does not match replay"),
    "step2 clamp threshold tampered": (2, "stored clamp records differ from replay"),
    "step2 clamped run altered": (2, "stored output does not match replay"),
    "witness index out of range": (3, "contradiction witness index out of range"),
    "final threshold lowered": (3, "stored threshold 0, replay needs 1"),
    "certificate m0 below one": (0, "m0 must be >= 1"),
    "pivot swapped to a smaller point": (0, "stored k -21m-3 differs from replayed -11m-3"),
    "k intercept tampered": (0, "stored k -21m-2 differs from replayed -21m-3"),
    "witness moved to a clamped run": (
        1, "witness multiplicity does not eventually exceed the degree"),
    "claim count tampered": (0, "stored output does not match replay"),
    "mid-chain output degree tampered": (1, "stored output does not match replay"),
    "final threshold raised": (2, "step threshold 6 exceeds certificate m0 1"),
    "axiom scale tampered": (0, "axiom claim needs 3^4 points, has 16"),
    "merge removal index tampered": (
        0, "removed multiplicity must equal first claim's degree + 1"),
    "nested reference claim tampered": (
        0, "first sub-certificate fails at step 0: axiom degree must be scale*multiplicity - 1"),
}


def test_verify_reasons_of_the_tamper_suite():
    seen = {}
    for label, data, _ in _mutations():
        res = verify_certificate(certificate_from_dict(data))
        seen[label] = (res.ok, res.failed_step, res.reason)
    assert seen == {label: (False, *want) for label, want in MUTATION_REASONS.items()}


def _plane_merge():
    grid = evain_certificate(2, 2, (1, 0))
    return merge_empty(grid, prove_empty(sysb(2, (2, -1), ((2, 0), 2))))


def _first_step(data):
    return data["steps"][0]


@pytest.mark.parametrize(
    "cert, edit, reason",
    [
        (_plane_merge, lambda d: _first_step(d).update(removed=5),
         "merge removal index out of range"),
        (_plane_merge, lambda d: _first_step(d).update(refs=_first_step(d)["refs"][:1]),
         "merge step needs exactly two sub-certificates"),
        (_plane_merge, lambda d: _first_step(d).update(refs=_first_step(d)["refs"][::-1]),
         "removed multiplicity must equal first claim's degree + 1"),
        (_plane_merge, lambda d: _first_step(d)["refs"][1]["claim"].update(degree=[2, 0]),
         "second sub-certificate fails at step 0: "
         "witness multiplicity does not eventually exceed the degree"),
        (_plane_merge, lambda d: d["claim"]["mults"].__setitem__(1, [1, 0, 5]),
         "merged claim does not match the step input"),
        (_plane_merge, lambda d: d["claim"].update(N=3), "merge dimensions do not agree"),
        (lambda: evain_certificate(2, 2, (1, 0)),
         lambda d: d["claim"].update(mults=[[2, 0, 1], [1, 0, 3]]),
         "axiom claim must have a single multiplicity value"),
        (lambda: evain_certificate(2, 2, (1, 0)), lambda d: d["claim"].update(mults=[]),
         "axiom claim must have a single multiplicity value"),
        (lambda: evain_certificate(2, 2, (1, 0)), lambda d: _first_step(d).update(scale=1),
         "axiom scale must be >= 2"),
        (lambda: evain_certificate(2, 2, (1, 0)), lambda d: _first_step(d).update(scale=None),
         "axiom scale must be >= 2"),
        # 99^(10^8) has 6.6e8 bits: the count is refused without computing it
        (lambda: evain_certificate(2, 2, (1, 0)),
         lambda d: (d["claim"].update(N=10**8), _first_step(d).update(scale=99)),
         "axiom claim needs 99^100000000 points, has 4"),
    ],
    ids=["removal-out-of-range", "one-ref", "swapped-refs", "bad-second-ref",
         "wrong-merged-count", "merge-claim-dimension", "evain-two-runs", "evain-no-runs",
         "evain-scale-1", "evain-scale-null", "evain-huge-dimension"],
)
def test_verify_reasons_of_merge_and_axiom_tampers(cert, edit, reason):
    data = certificate_to_dict(cert())
    assert verify_certificate(certificate_from_dict(data))
    edit(data)
    res = verify_certificate(certificate_from_dict(data))
    assert (res.ok, res.failed_step, res.reason) == (False, 0, reason)


@pytest.mark.parametrize(
    "prove, error, reason",
    [
        (lambda: evain_certificate(3, 1, (1, 0)), ValueError, "axiom scale must be >= 2"),
        (lambda: evain_certificate(3, 2, (-1, 0)), ValueError,
         "axiom multiplicity is not eventually >= 1"),
        (lambda: prove_with_script(sysb(2, (2, -1), ((1, 0), 5)), {"how": "evain", "scale": 2}),
         ValueError, "axiom claim needs 2^2 points, has 5"),
        (lambda: merge_empty(
            evain_certificate(2, 2, (1, 0)),
            certificate_from_dict(_tamper(prove_empty(sysb(2, (2, -1), ((2, 0), 2))),
                                          ["claim", "degree"], [2, 0]))),
         MergeError, "second sub-certificate fails at step 0: "
         "witness multiplicity does not eventually exceed the degree"),
        (lambda: merge_empty(evain_certificate(2, 2, (1, 0)),
                             prove_empty(sysb(3, (2, -1), ((2, 0), 2)))),
         MergeError, "merge dimensions do not agree"),
    ],
    ids=["evain-scale-1", "evain-negative-multiplicity", "script-evain-off-pattern",
         "merge-broken-second", "merge-across-dimensions"],
)
def test_provers_raise_the_verifier_reasons(prove, error, reason):
    with pytest.raises(error) as info:
        prove()
    assert str(info.value) == reason


def test_verify_checks_each_certificate_once(monkeypatch):
    calls = []
    verify = reduction.verify_certificate

    def counting(cert):
        calls.append(cert)
        return verify(cert)

    monkeypatch.setattr(reduction, "verify_certificate", counting)
    merges = MAX_NESTING - 1
    script, _ = merge_chain_script(merges)
    cert = prove_with_script(sysb(2, (2, -1), ((2, 0), 1), ((1, 0), 4 * merges)), script)
    # each merge verifies its two references, and a reference that is itself
    # a merge looks its own two up once more: linear, not quadratic
    assert len(calls) <= 4 * merges
    assert reduction.verify_certificate(cert)
    calls.clear()
    assert reduction.verify_certificate(cert)
    assert calls == [cert]
    # a failure is not remembered: the second call replays as deep as the first
    leaf = certificate_to_dict(evain_certificate(2, 2, (1, 0)))
    broken = certificate_from_dict(nested_merges(leaf, 3))
    seen = []
    for _ in range(2):
        calls.clear()
        res = reduction.verify_certificate(broken)
        seen.append((res.ok, res.failed_step, res.reason, len(calls)))
    assert seen[0] == seen[1] and seen[0][0] is False and seen[0][3] > 1


def _contradiction_before_the_end(data):
    steps = data["steps"]
    early = dict(steps[3], output=steps[2]["output"])
    data["steps"] = [*steps[:3], early, steps[3]]


@pytest.mark.parametrize(
    "edit, failed_step, reason",
    [
        (lambda d: _first_step(d).update(pivot=None), 0, "reduce step is missing its pivot"),
        (_contradiction_before_the_end, 3,
         "rule yields an empty verdict but the step stores a system"),
    ],
    ids=["reduce-without-pivot", "contradiction-before-the-end"],
)
def test_verify_reasons_of_reduce_and_contradiction_tampers(edit, failed_step, reason):
    data = certificate_to_dict(prove_empty(EIGHT_POINT_ROWS[0]))
    assert data["steps"][3]["rule"] == "contradiction"
    edit(data)
    res = verify_certificate(certificate_from_dict(data))
    assert (res.ok, res.failed_step, res.reason) == (False, failed_step, reason)


def test_verify_rejects_a_step_that_does_not_chain():
    # JSON cannot break the chain (each step's input is its predecessor's
    # output), so step 1 is given step 0's input in Python
    cert = prove_empty(EIGHT_POINT_ROWS[0])
    steps = list(cert.steps)
    assert steps[0].input != steps[0].output
    steps[1] = dataclasses.replace(steps[1], input=steps[0].input)
    res = verify_certificate(dataclasses.replace(cert, steps=tuple(steps)))
    assert (res.ok, res.failed_step, res.reason) == (
        False, 1, "step input does not chain from the previous system"
    )


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip_is_identity():
    for cert in (
        prove_empty(EIGHT_POINT_ROWS[0]),
        evain_certificate(3, 2, (7, 0)),
        merge_empty(
            evain_certificate(2, 2, (1, 0)), prove_empty(sysb(2, (2, -1), ((2, 0), 2)))
        ),
    ):
        blob = certificate_to_json(cert)
        again = certificate_from_json(blob)
        assert again == cert
        assert certificate_to_json(again) == blob


def test_serialized_form_is_canonical():
    cert = prove_empty(EIGHT_POINT_ROWS[0])
    blob = certificate_to_json(cert)
    assert blob == json.dumps(json.loads(blob), sort_keys=True, separators=(",", ":"))


def test_rejects_unknown_version():
    cert = prove_empty(EIGHT_POINT_ROWS[0])
    data = certificate_to_dict(cert)
    data["version"] = 99
    with pytest.raises(ReductionError):
        certificate_from_dict(data)


@pytest.mark.parametrize(
    "cert, edit",
    [
        (lambda: evain_certificate(2, 2, (1, 0)),
         lambda d: d["claim"].update(mults=[[1, 0, 3], [2, 0, 1]])),
        (lambda: evain_certificate(2, 2, (1, 0)),
         lambda d: d["claim"].update(mults=[[1, 0, 2], [1, 0, 2]])),
        (lambda: prove_empty(EIGHT_POINT_ROWS[0]),
         lambda d: d["steps"][0]["output"]["mults"].reverse()),
        (lambda: prove_empty(EIGHT_POINT_ROWS[0]), lambda d: d.update(note=1)),
        (lambda: prove_empty(EIGHT_POINT_ROWS[0]), lambda d: d["steps"][1].update(note=1)),
        (lambda: prove_empty(EIGHT_POINT_ROWS[0]),
         lambda d: d["steps"][2]["clamps"][0].update(note=1)),
        (_plane_merge, lambda d: _first_step(d)["refs"][1]["steps"][0].update(note=1)),
    ],
    ids=["runs-out-of-order", "unmerged-runs", "output-runs-out-of-order",
         "unknown-certificate-key", "unknown-step-key", "unknown-clamp-key",
         "unknown-key-in-ref"],
)
def test_parse_rejects_documents_that_do_not_re_encode(cert, edit):
    data = certificate_to_dict(cert())
    edit(data)
    with pytest.raises(ReductionError, match="^certificate does not re-encode to itself$"):
        certificate_from_dict(data)


def test_parse_limits_merge_nesting():
    leaf = certificate_to_dict(evain_certificate(2, 2, (1, 0)))
    res = verify_certificate(certificate_from_dict(nested_merges(leaf, MAX_NESTING - 1)))
    assert res.reason == (
        "second sub-certificate fails at step 0: " * (MAX_NESTING - 2)
        + "removed multiplicity must equal first claim's degree + 1"
    )
    with pytest.raises(ReductionError, match=f"^merges nest more than {MAX_NESTING} levels deep$"):
        certificate_from_dict(nested_merges(leaf, MAX_NESTING))


def test_verify_cuts_long_reasons():
    data = certificate_to_dict(evain_certificate(2, 2, (1, 0)))
    _first_step(data)["rule"] = "x" * (2 * MAX_REASON)
    res = verify_certificate(certificate_from_dict(data))
    assert res.reason == "unknown rule '" + "x" * (MAX_REASON - 17) + "..."


# ---------------------------------------------------------------------------
# proof scripts


def test_script_greedy_and_merge():
    target = sysb(2, (2, -1), ((1, 0), 8))
    script = {
        "how": "merge",
        "part": {
            "system": {"N": 2, "degree": [2, -1], "mults": [[1, 0, 4]]},
            "prove": {"how": "evain", "scale": 2},
        },
        "rest": {
            "system": {"N": 2, "degree": [2, -1], "mults": [[2, 0, 1], [1, 0, 4]]},
            "prove": {
                "how": "merge",
                "part": {
                    "system": {"N": 2, "degree": [2, -1], "mults": [[1, 0, 4]]},
                    "prove": {"how": "evain", "scale": 2},
                },
                "rest": {
                    "system": {"N": 2, "degree": [2, -1], "mults": [[2, 0, 2]]},
                    "prove": {"how": "greedy"},
                },
            },
        },
    }
    cert = prove_with_script(target, script)
    assert cert is not None and cert.claim == target
    assert verify_certificate(cert)


def test_script_rejects_wrong_assembly():
    target = sysb(2, (2, -1), ((1, 0), 9))
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
    with pytest.raises(ReductionError):
        prove_with_script(target, script)
