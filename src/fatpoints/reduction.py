"""Reduction calculus on fat-point systems and replayable emptiness certificates.

Two dimension-preserving moves are library functions only; no certificate
step records them:

* `cremona_step` shifts an n+1 point pivot and the degree by
  k = (n-1)d - sum(pivot), a linear isomorphism when every shifted
  multiplicity stays >= 0;
* `degree_drop_step`: when (n-1)d - sum of n positive multiplicities is
  negative, those n multiplicities and the degree drop by one without
  changing the dimension.

A certificate is a chain of steps under four rules, each a prover's move:

* `reduce_full` applies the shift with eventually-negative results clamped
  to 0: nonzero input implies nonzero output, so an empty output certifies
  an empty input;
* the chain ends in a `contradiction` (some multiplicity eventually exceeds
  the degree), an `evain_axiom` instance, or a `merge_empty` of two
  previously certified claims.

Each rule has one constructor (`reduce_full`, `_contradiction`, `_evain`,
`_merge`) that checks its hypotheses, raising with the verifier's reason, and
builds the step; the provers call it, and `verify_certificate` rebuilds every
step with it and compares the rebuilt step with the stored one.

Certificates serialize to canonical JSON and replay exactly; the parser
accepts only a document that re-encodes to itself.  A step sets only the
side fields its rule reads; the verifier rejects any other field that does
not hold its default.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any, Mapping, Sequence

from .core import (
    ONE,
    ZERO,
    AffineValue,
    FatPointSystem,
    Run,
    Sign,
    cremona_k,
    eventual_sign,
    nonneg_threshold,
    nonpositive_threshold,
    pivot_counts,
    pivot_of_largest,
    positive_threshold,
)

FORMAT_VERSION = 1
MAX_NESTING = 32  # levels of merge references, the top certificate's included
MAX_REASON = 2000  # characters in the reason of a failed verification
GREEDY_BUDGET = 64  # reducing steps greedy proof search tries

RULE_MERGE = "merge_empty"
RULE_REDUCE = "reduce_full"
RULE_CONTRADICTION = "contradiction"
RULE_EVAIN = "evain_axiom"

# the side fields each rule reads; a step leaves every other one at its default
_RULES = {
    RULE_MERGE: {"refs", "removed"},
    RULE_REDUCE: {"pivot", "k", "clamps"},
    RULE_CONTRADICTION: {"witness"},
    RULE_EVAIN: {"scale"},
}


class ReductionError(Exception):
    pass


class PreconditionError(ReductionError):
    pass


class MergeError(ReductionError):
    pass


@dataclass(frozen=True)
class ClampRecord:
    """One multiplicity stored as 0 because its shifted value is eventually <= 0.

    `index` points into the raw (pre-canonicalization) expanded run list of the
    producing step; `value` is the shifted value before clamping.
    """

    index: int
    value: AffineValue
    threshold: int


@dataclass(frozen=True)
class ReductionStep:
    rule: str
    input: FatPointSystem
    output: FatPointSystem | None
    pivot: tuple[int, ...] | None = None
    k: AffineValue | None = None
    clamps: tuple[ClampRecord, ...] = ()
    witness: int | None = None
    removed: int | None = None
    scale: int | None = None
    refs: tuple["Certificate", ...] = ()
    threshold: int = 1


_SIDE_DEFAULTS = {
    f.name: f.default for f in fields(ReductionStep) if f.name in set().union(*_RULES.values())
}


@dataclass(frozen=True)
class Certificate:
    """Claim that a parametric system is empty for every m >= m0, with the
    replayable step chain establishing it."""

    claim: FatPointSystem
    steps: tuple[ReductionStep, ...]
    m0: int


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    failed_step: int | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


# ---------------------------------------------------------------------------
# dimension-preserving moves


def cremona_step(sys: FatPointSystem, pivot: Sequence[int]) -> FatPointSystem:
    """Apply the degree/multiplicity shift by k to an n+1 point pivot.

    Dimension-preserving; requires every pivoted multiplicity plus k to be
    eventually >= 0, otherwise raises PreconditionError (the caller should use
    reduce_full, which clamps).
    """
    k = cremona_k(sys, pivot)
    counts = pivot_counts(sys, pivot)
    for idx, taken in enumerate(counts):
        if taken and nonneg_threshold(sys.mults[idx].value + k) is None:
            raise PreconditionError(
                f"pivot multiplicity {sys.mults[idx].value} + k={k} is eventually negative"
            )
    runs = _shift_pivot(sys, counts, k)
    return FatPointSystem(sys.n, sys.degree + k, tuple(runs))


def degree_drop_step(sys: FatPointSystem) -> FatPointSystem:
    """Decrement the n eventually-largest multiplicities and the degree.

    Requires (n-1)d - sum(pivot) eventually negative and every pivot
    multiplicity eventually positive; dimension-preserving.
    """
    pivot = pivot_of_largest(sys, sys.n)
    counts = pivot_counts(sys, pivot)
    total = ZERO
    for idx, taken in enumerate(counts):
        if taken:
            total = total + sys.mults[idx].value.scaled(taken)
            if positive_threshold(sys.mults[idx].value) is None:
                raise PreconditionError(
                    f"pivot multiplicity {sys.mults[idx].value} is not eventually positive"
                )
    gap = sys.degree.scaled(sys.n - 1) - total
    if eventual_sign(gap).sign is not Sign.NEGATIVE:
        raise PreconditionError(f"(n-1)d - sum(pivot) = {gap} is not eventually negative")
    runs = _shift_pivot(sys, counts, -ONE)
    return FatPointSystem(sys.n, sys.degree - ONE, tuple(runs))


def _shift_pivot(sys: FatPointSystem, counts: Sequence[int], k: AffineValue) -> list[Run]:
    runs: list[Run] = []
    for idx, run in enumerate(sys.mults):
        taken = counts[idx]
        if taken:
            runs.append(Run(run.value + k, taken))
        if run.count - taken:
            runs.append(Run(run.value, run.count - taken))
    return runs


# ---------------------------------------------------------------------------
# the one-directional engine move


def reduce_full(sys: FatPointSystem, pivot: Sequence[int] | None = None) -> ReductionStep:
    """Shift a pivot of n+1 points by k, clamping eventually-negative results.

    Sound for any pivot: nonzero input forces nonzero output, so an empty
    output certifies the input empty.  The default pivot takes the n+1
    eventually-largest multiplicities.  A step whose k is eventually >= 0
    grows the system; callers detect that with `step_is_reducing`.
    """
    if pivot is None:
        pivot = pivot_of_largest(sys, sys.n + 1)
    else:
        pivot = tuple(pivot)
    k = cremona_k(sys, pivot)
    counts = pivot_counts(sys, pivot)
    raw = _shift_pivot(sys, counts, k)
    clamped: list[Run] = []
    clamps: list[ClampRecord] = []
    for idx, run in enumerate(raw):
        if eventual_sign(run.value).sign is Sign.NEGATIVE:
            t = nonpositive_threshold(run.value)
            clamps.append(ClampRecord(idx, run.value, t))
            clamped.append(Run(ZERO, run.count))
        else:
            clamped.append(run)
    output = FatPointSystem(sys.n, sys.degree + k, tuple(clamped))
    threshold = max([1] + [c.threshold for c in clamps])
    return ReductionStep(
        rule=RULE_REDUCE,
        input=sys,
        output=output,
        pivot=pivot,
        k=k,
        clamps=tuple(clamps),
        threshold=threshold,
    )


def step_is_reducing(step: ReductionStep) -> bool:
    """True when the step's k is eventually negative (the step shrinks)."""
    return step.k is not None and eventual_sign(step.k).sign is Sign.NEGATIVE


def contradiction_step(sys: FatPointSystem) -> ReductionStep | None:
    """Step declaring the system empty: some multiplicity eventually exceeds
    the degree.  Among qualifying runs the one with the least threshold wins."""
    best: tuple[int, int] | None = None
    for idx, run in enumerate(sys.mults):
        t = positive_threshold(run.value - sys.degree)
        if t is not None and (best is None or t < best[1]):
            best = (idx, t)
    return None if best is None else _contradiction(sys, best[0])


def _contradiction(sys: FatPointSystem, witness: int | None) -> ReductionStep:
    if witness is None or not 0 <= witness < len(sys.mults):
        raise ReductionError("contradiction witness index out of range")
    t = positive_threshold(sys.mults[witness].value - sys.degree)
    if t is None:
        raise ReductionError("witness multiplicity does not eventually exceed the degree")
    return ReductionStep(
        rule=RULE_CONTRADICTION,
        input=sys,
        output=None,
        witness=witness,
        threshold=t,
    )


# ---------------------------------------------------------------------------
# proof search


def prove_empty(sys: FatPointSystem) -> Certificate | None:
    """Search for an emptiness certificate greedily.

    Repeatedly reduces on the n+1 eventually-largest multiplicities while k
    stays eventually negative, stopping at the first contradiction.  Returns
    None on failure (GREEDY_BUDGET exhausted or no reducing move) -- not a
    disproof.
    """
    steps: list[ReductionStep] = []
    current = sys
    for _ in range(GREEDY_BUDGET):
        contra = contradiction_step(current)
        if contra is not None:
            return _certificate(sys, [*steps, contra])
        if current.point_count < current.n + 1:
            return None
        step = reduce_full(current)
        if not step_is_reducing(step):
            return None
        steps.append(step)
        current = step.output
    return None


def _prove_by_pivots(sys: FatPointSystem, pivots: Sequence[Sequence[int]]) -> Certificate | None:
    """Reduce on each pivot in turn, then look for a contradiction."""
    steps: list[ReductionStep] = []
    current = sys
    for pivot in pivots:
        step = reduce_full(current, pivot)
        steps.append(step)
        current = step.output
    contra = contradiction_step(current)
    return None if contra is None else _certificate(sys, [*steps, contra])


def _certificate(claim: FatPointSystem, steps: Sequence[ReductionStep]) -> Certificate:
    return Certificate(claim, tuple(steps), max(step.threshold for step in steps))


def evain_certificate(n: int, scale: int, value) -> Certificate:
    """Axiom certificate: scale^n points of multiplicity v have no form of
    degree scale*v - 1, for any integer scale >= 2 and v eventually >= 1."""
    v = AffineValue.of(value)
    claim = FatPointSystem.build(n, v.scaled(scale) - ONE, [(v, scale**n)])
    return _certificate(claim, [_evain(claim, scale)])


def _evain(sys: FatPointSystem, scale: int | None) -> ReductionStep:
    if scale is None or scale < 2:
        raise ValueError("axiom scale must be >= 2")
    if len(sys.mults) != 1:
        raise ValueError("axiom claim must have a single multiplicity value")
    run = sys.mults[0]
    # scale^n >= 2^(n * (bits of scale - 1)): skip the power, huge at a forged n
    if sys.n * (scale.bit_length() - 1) >= run.count.bit_length() or run.count != scale**sys.n:
        raise ValueError(f"axiom claim needs {scale}^{sys.n} points, has {run.count}")
    if sys.degree != run.value.scaled(scale) - ONE:
        raise ValueError("axiom degree must be scale*multiplicity - 1")
    t = nonneg_threshold(run.value - ONE)
    if t is None:
        raise ValueError("axiom multiplicity is not eventually >= 1")
    return ReductionStep(
        rule=RULE_EVAIN, input=sys, output=None, scale=scale, threshold=t
    )


def merge_empty(cert_a: Certificate, cert_b: Certificate) -> Certificate:
    """Combine: if I(A)_K = 0 and I(B', K+1)_t = 0 then I(A, B')_t = 0.

    cert_b's claim must contain a multiplicity equal to cert_a's claimed
    degree plus one; that point is replaced by all of cert_a's points.  The
    merged certificate may nest at most MAX_NESTING levels deep, the limit
    that the parser accepts.
    """
    if 1 + max(_nesting(cert_a), _nesting(cert_b)) > MAX_NESTING:
        raise MergeError(f"merged certificate would nest more than {MAX_NESTING} levels deep")
    key = cert_a.claim.degree + ONE
    removed = None
    for idx, run in enumerate(cert_b.claim.mults):
        if run.value == key:
            removed = idx
            break
    if removed is None:
        raise MergeError(
            f"no multiplicity {key} (= first claim's degree + 1) in second claim"
        )
    step = _merge((cert_a, cert_b), removed, cert_b.claim.n)
    return _certificate(step.input, [step])


def _nesting(cert: Certificate) -> int:
    """Levels of merge references in cert, its own level included."""
    return 1 + max((_nesting(ref) for step in cert.steps for ref in step.refs), default=0)


def _merge(refs: Sequence[Certificate], removed: int | None, n: int) -> ReductionStep:
    """The merge of two verified claims in P^n: the second claim with one
    point of its run `removed` replaced by all of the first claim's points."""
    if len(refs) != 2:
        raise MergeError("merge step needs exactly two sub-certificates")
    cert_a, cert_b = refs
    for name, ref in (("first", cert_a), ("second", cert_b)):
        res = verify_certificate(ref)
        if not res:
            raise MergeError(
                f"{name} sub-certificate fails at step {res.failed_step}: {res.reason}"
            )
    if cert_a.claim.n != cert_b.claim.n or cert_a.claim.n != n:
        raise MergeError("merge dimensions do not agree")
    if removed is None or not 0 <= removed < len(cert_b.claim.mults):
        raise MergeError("merge removal index out of range")
    if cert_b.claim.mults[removed].value != cert_a.claim.degree + ONE:
        raise MergeError("removed multiplicity must equal first claim's degree + 1")
    runs = list(cert_a.claim.mults)
    for idx, run in enumerate(cert_b.claim.mults):
        if idx != removed:
            runs.append(run)
        elif run.count > 1:
            runs.append(Run(run.value, run.count - 1))
    return ReductionStep(
        rule=RULE_MERGE,
        input=FatPointSystem(n, cert_b.claim.degree, tuple(runs)),
        output=None,
        removed=removed,
        refs=(cert_a, cert_b),
        threshold=max(cert_a.m0, cert_b.m0),
    )


def prove_with_script(sys: FatPointSystem, script: Mapping[str, Any]) -> Certificate | None:
    """Drive the engine from a declarative proof script.

    Script forms:
      {"how": "greedy"}
      {"how": "pivots", "pivots": [[...], ...]}
      {"how": "evain", "scale": k}
      {"how": "merge", "part": {"system": ..., "prove": ...},
                       "rest": {"system": ..., "prove": ...}}

    "merge" proves the two sub-claims and combines them; the assembled claim
    must equal `sys`.  A node may hold only the keys of its form, and
    `scale` must be a JSON integer.
    """
    how = script.get("how")
    if not isinstance(how, str) or how not in _SCRIPT_KEYS:
        raise ReductionError(f"unknown script form {how!r}")
    _known_keys(script, _SCRIPT_KEYS[how], f"{how} script")
    if how == "greedy":
        return prove_empty(sys)
    if how == "pivots":
        pivots = script["pivots"]
        if not isinstance(pivots, list):
            raise ReductionError("script pivots must be a list")
        return _prove_by_pivots(
            sys, [_pivot_from_list(p, f"script pivot {i}") for i, p in enumerate(pivots)]
        )
    if how == "evain":
        return _certificate(sys, [_evain(sys, _int(script["scale"], "script scale"))])
    part = _scripted_branch(script["part"])
    rest = _scripted_branch(script["rest"])
    if part is None or rest is None:
        return None
    cert = merge_empty(part, rest)
    if cert.claim != sys:
        raise ReductionError(f"merge assembles {cert.claim}, not the requested {sys}")
    return cert


def _scripted_branch(spec: Mapping[str, Any]) -> Certificate | None:
    _known_keys(spec, _BRANCH_KEYS, "merge branch")
    return prove_with_script(system_from_dict(spec["system"]), spec["prove"])


# ---------------------------------------------------------------------------
# verification


def verify_certificate(cert: Certificate) -> VerificationResult:
    """Rebuild every step with its rule's constructor from the step's input
    and side fields, and compare the rebuilt step with the stored one: side
    fields the rule does not read must hold their defaults, every
    eventual-sign precondition must hold with the stored threshold, and the
    chain must end in an empty verdict covered by the certificate's m0.  A
    reason longer than MAX_REASON characters is cut to that length.  A pass is
    marked on the object outside its fields and returned at once on a second
    call; a failure is not remembered."""

    def fail(i: int, reason: str) -> VerificationResult:
        if len(reason) > MAX_REASON:
            reason = reason[: MAX_REASON - 3] + "..."
        return VerificationResult(False, i, reason)

    if getattr(cert, "_verified", False):
        return VerificationResult(True)
    if not cert.steps:
        return fail(0, "certificate has no steps")
    if cert.m0 < 1:
        return fail(0, "m0 must be >= 1")
    current = cert.claim
    last = len(cert.steps) - 1
    for i, step in enumerate(cert.steps):
        if step.rule not in _RULES:
            return fail(i, f"unknown rule {step.rule!r}")
        for name, default in _SIDE_DEFAULTS.items():
            if name not in _RULES[step.rule] and getattr(step, name) != default:
                return fail(i, f"{step.rule} step must leave {name} unset")
        if step.input != current:
            return fail(i, "step input does not chain from the previous system")
        if step.threshold > cert.m0:
            return fail(i, f"step threshold {step.threshold} exceeds certificate m0 {cert.m0}")
        if (step.output is None) != (i == last):
            return fail(i, "empty verdict must appear exactly at the final step")
        try:
            rebuilt = _rebuild(step)
        except (ReductionError, ValueError) as exc:
            return fail(i, str(exc))
        if step.k != rebuilt.k:
            return fail(i, f"stored k {step.k} differs from replayed {rebuilt.k}")
        if step.clamps != rebuilt.clamps:
            return fail(i, "stored clamp records differ from replay")
        if step.input != rebuilt.input:
            return fail(i, "merged claim does not match the step input")
        if step.threshold != rebuilt.threshold:
            return fail(i, f"stored threshold {step.threshold}, replay needs {rebuilt.threshold}")
        if rebuilt.output is None and step.output is not None:
            return fail(i, "rule yields an empty verdict but the step stores a system")
        if step.output != rebuilt.output:
            return fail(i, "stored output does not match replay")
        current = rebuilt.output
    # the last step stores no output, so a rebuilt step that yields a system
    # fails there: a chain that passes ends in an empty verdict
    object.__setattr__(cert, "_verified", True)
    return VerificationResult(True)


def _rebuild(step: ReductionStep) -> ReductionStep:
    """The step its rule's constructor builds from the stored input and side
    fields; raises ReductionError or ValueError when a hypothesis fails."""
    if step.rule == RULE_REDUCE:
        if step.pivot is None:
            raise ReductionError("reduce step is missing its pivot")
        return reduce_full(step.input, step.pivot)
    if step.rule == RULE_CONTRADICTION:
        return _contradiction(step.input, step.witness)
    if step.rule == RULE_EVAIN:
        return _evain(step.input, step.scale)
    # RULE_MERGE: verify_certificate lets no other rule through; only a merge
    # derives its input, from the claims of its references
    return _merge(step.refs, step.removed, step.input.n)


# ---------------------------------------------------------------------------
# serialization (canonical JSON; serialize . parse == identity)


def _affine_to_list(v: AffineValue | None):
    return None if v is None else [v.slope, v.intercept]


# Parsing trusts nothing: every number must be a JSON integer (JSON true and
# false parse as bool, a subclass of int).  `--script` systems have no writer
# to re-encode with, so system keys are checked by name.
_SYSTEM_KEYS = frozenset({"N", "degree", "mults"})
_SCRIPT_KEYS = {
    "greedy": frozenset({"how"}),
    "pivots": frozenset({"how", "pivots"}),
    "evain": frozenset({"how", "scale"}),
    "merge": frozenset({"how", "part", "rest"}),
}
_BRANCH_KEYS = frozenset({"system", "prove"})


def _int(value, what: str) -> int:
    if type(value) is not int:
        raise ReductionError(f"{what} must be an integer, got {type(value).__name__}")
    return value


def _optional_int(value, what: str) -> int | None:
    return None if value is None else _int(value, what)


def _known_keys(data: Mapping[str, Any], keys: frozenset, what: str) -> None:
    unknown = set(data) - keys
    if unknown:
        raise ReductionError(f"unknown {what} key {min(unknown)!r:.40}")


def _affine_from_list(data) -> AffineValue:
    # a shorter list fails on indexing, a longer one here
    value = AffineValue(_int(data[0], "slope"), _int(data[1], "intercept"))
    if len(data) != 2:
        raise ReductionError(f"an affine value has two entries, got {len(data)}")
    return value


def _pivot_from_list(data, what: str) -> tuple[int, ...]:
    if not isinstance(data, list):
        raise ReductionError(f"{what} must be a list")
    return tuple(_int(idx, f"{what} index") for idx in data)


def system_to_dict(sys: FatPointSystem) -> dict:
    return {
        "N": sys.n,
        "degree": _affine_to_list(sys.degree),
        "mults": [[r.value.slope, r.value.intercept, r.count] for r in sys.mults],
    }


def system_from_dict(data: Mapping[str, Any]) -> FatPointSystem:
    _known_keys(data, _SYSTEM_KEYS, "system")
    runs = tuple(
        Run(AffineValue(_int(s, "slope"), _int(i, "intercept")), _int(c, "run count"))
        for s, i, c in data["mults"]
    )
    return FatPointSystem(_int(data["N"], "N"), _affine_from_list(data["degree"]), runs)


def _step_to_dict(step: ReductionStep) -> dict:
    return {
        "rule": step.rule,
        "pivot": list(step.pivot) if step.pivot is not None else None,
        "k": _affine_to_list(step.k),
        "output": "empty" if step.output is None else system_to_dict(step.output),
        "refs": [certificate_to_dict(ref) for ref in step.refs],
        "clamps": [
            {"index": c.index, "value": _affine_to_list(c.value), "threshold": c.threshold}
            for c in step.clamps
        ],
        "witness": step.witness,
        "removed": step.removed,
        "scale": step.scale,
        "threshold": step.threshold,
    }


def _clamp_from_dict(data: Mapping[str, Any]) -> ClampRecord:
    return ClampRecord(
        _int(data["index"], "clamp index"),
        _affine_from_list(data["value"]),
        _int(data["threshold"], "clamp threshold"),
    )


def _step_from_dict(
    data: Mapping[str, Any], input_sys: FatPointSystem, depth: int
) -> ReductionStep:
    if not isinstance(data["rule"], str):
        raise ReductionError("step rule must be a string")
    pivot = None if data["pivot"] is None else _pivot_from_list(data["pivot"], "pivot")
    output = None if data["output"] == "empty" else system_from_dict(data["output"])
    return ReductionStep(
        rule=data["rule"],
        input=input_sys,
        output=output,
        pivot=pivot,
        k=None if data["k"] is None else _affine_from_list(data["k"]),
        clamps=tuple(_clamp_from_dict(c) for c in data["clamps"]),
        witness=_optional_int(data["witness"], "witness"),
        removed=_optional_int(data["removed"], "removed"),
        scale=_optional_int(data["scale"], "scale"),
        refs=tuple(_certificate_from_dict(ref, depth + 1) for ref in data["refs"]),
        threshold=_int(data["threshold"], "step threshold"),
    )


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "version": FORMAT_VERSION,
        "claim": system_to_dict(cert.claim),
        "m0": cert.m0,
        "steps": [_step_to_dict(s) for s in cert.steps],
    }


def certificate_from_dict(data: Mapping[str, Any]) -> Certificate:
    """Parse a certificate; ReductionError if the document does not re-encode
    to itself (an unknown key, an extra list entry, runs out of canonical
    order) or nests merges more than MAX_NESTING levels deep."""
    cert = _certificate_from_dict(data, 1)
    if certificate_to_json(cert) != to_canonical_json(data):
        raise ReductionError("certificate does not re-encode to itself")
    return cert


def _certificate_from_dict(data: Mapping[str, Any], depth: int) -> Certificate:
    if depth > MAX_NESTING:
        raise ReductionError(f"merges nest more than {MAX_NESTING} levels deep")
    version = data.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ReductionError(f"unsupported certificate version {version!r:.40}")
    claim = system_from_dict(data["claim"])
    steps: list[ReductionStep] = []
    current = claim
    for raw in data["steps"]:
        step = _step_from_dict(raw, current, depth)
        steps.append(step)
        current = step.output
    return Certificate(claim, tuple(steps), _int(data["m0"], "m0"))


def to_canonical_json(data: Mapping[str, Any]) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def certificate_to_json(cert: Certificate) -> str:
    return to_canonical_json(certificate_to_dict(cert))


def certificate_from_json(text: str) -> Certificate:
    return certificate_from_dict(json.loads(text))
