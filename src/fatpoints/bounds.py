"""Rational lower bounds on Waldschmidt constants of s generic points in P^n,
plus the asymptotic-initial-degree checks built on them.

The engine evaluates every applicable rule and keeps the maximum:

  trivial        alpha-hat >= 1 for any nonempty point set
  monotone       more points never lower the constant
  root-count     k^n points have constant exactly k (k >= 2)
  small-count    closed forms for n+1, n+2, n+3 points (parity-split at n+3)
  block-doubling 2^n*b or more points are worth twice the bound for b
  unit-to-double b*2^n simple points may be traded for b double points
  certified      a cataloged emptiness certificate for a scaled profile
  decompose      split the points across a hyperplane section: premises in
                 dimension n-1 combine to a bound one dimension up

Every returned bound carries a derivation tree; `replay_proof_tree`
rebuilds each node with the engine's own rule constructors and ties each
premise to its parent.

Each call builds its candidates afresh from the small-count table and
catalog(n); the only memo is the engine's own cache.  A decompose value
(1 - 1/a1) * a2 + 1 with a1, a2 <= 2 is never above 2, so the engine walks
the decompose levels, whose premises are bounds one dimension down, only
when every other candidate is below 2.

Constant segments.  As a function of s, every candidate is a nondecreasing
step function whose steps sit at counts known in advance (a candidate that
does not apply yet counts as absent; absent, then present with a fixed
value, is a step at the count it starts to apply from):

  trivial                     1 for every s: no step
  small-count, certified,     a fixed value from its s0 on: one step, at s0
    unit-to-double
  decompose                   a fixed value from its level size
                              C(n+l, n) + 1 on: one step there
  root-count                  k = floor(s^(1/n)), present for k >= 2: steps
                              at k^n, k >= 2
  block-doubling              2 * bound(n, floor(s / 2^n)), present from
                              2^n on: the inner bound is constant for
                              floor(s / 2^n) between two consecutive
                              breakpoints b < b' of the same n, so steps
                              only at b * 2^n

The last line is an induction on s (floor(s / 2^n) < s), and with it the
bound, the maximum over present candidates, is nondecreasing with every step
at 1 or at one of those counts.  `_breakpoints(n, start, stop)` lists those
in start+1..stop, its block-doubling ones from (start >> n, stop >> n), so a
narrow range is cheap at any count.  Between two consecutive breakpoints the
set of present candidates and their values are fixed, so the bound and the
winning rule (the first maximal candidate in a fixed order) are too; only the
params that record s differ.  The Chudnovsky rhs depends on s through alpha
alone, which steps only at C(d+n, n); the HH rhs through reg alone, which
steps only at C(n+l, n) + 1.  So on a segment that has no breakpoint of the
bound, nor a step of its check's rhs, inside it, the check's bound, rhs and
verdict are constant: `verdict_segments` cuts a sweep there, and the sweep
runs one check per segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Any, Callable, Sequence

from .core import binomial
from .facts import Profile, WaldschmidtFact, catalog, fact_from_certificate
from .reduction import Certificate, certificate_to_dict

RULE_TRIVIAL = "trivial"
RULE_MONOTONE = "monotone"
RULE_ROOT_COUNT = "root-count"
RULE_SMALL_COUNT = "small-count"
RULE_BLOCK_DOUBLING = "block-doubling"
RULE_UNIT_TO_DOUBLE = "unit-to-double"
RULE_CERTIFIED = "certified-system"
RULE_DECOMPOSE = "decompose"

# premises proved for generic points are used for very-general points when
# decomposing across dimensions; the generic constant dominates.
DECOMPOSE_SCOPE = "very-general-from-generic"


@dataclass(frozen=True)
class ProofTree:
    rule: str
    value: Fraction
    params: tuple[tuple[str, Any], ...] = ()
    premises: tuple["ProofTree", ...] = ()
    certificate: Certificate | None = None

    def param(self, key: str) -> Any:
        for k, v in self.params:
            if k == key:
                return v
        raise ValueError(f"{self.rule} node has no param {key!r}")


@dataclass(frozen=True)
class BoundFact:
    n: int
    profile: Profile
    bound: Fraction
    derivation: ProofTree


@dataclass(frozen=True)
class CheckReport:
    """One numeric criterion at s points in P^n: `check` is "hh" or
    "chudnovsky", and `r_threshold` is None for chudnovsky."""

    check: str
    n: int
    s: int
    bound: Fraction
    alpha: int
    reg: int
    rhs: Fraction
    verdict: bool
    r_threshold: int | None
    derivation: ProofTree


def alpha_generic(n: int, s: int) -> int:
    """Least degree d with C(d+n,n) > s: the initial degree of s generic points."""
    _validate(n, s)
    return _least(lambda d: binomial(d + n, n) > s)


def regularity_generic(n: int, s: int) -> int:
    """l+1 for the unique l with C(n+l-1,n) < s <= C(n+l,n)."""
    _validate(n, s)
    return _least(lambda level: binomial(n + level, n) >= s) + 1


def _validate(n: int, s: int) -> None:
    if type(n) is not int or type(s) is not int:
        raise ValueError(f"dimension and point count must be integers, got {n!r} and {s!r}")
    if n < 2:
        raise ValueError(f"ambient dimension must be >= 2, got {n}")
    if s < 1:
        raise ValueError(f"point count must be >= 1, got {s}")


def _least(holds: Callable[[int], bool]) -> int:
    """The least x >= 0 with holds(x), for a predicate that stays true once
    it holds: doubling finds a bound, bisection the edge, exact at any size."""
    lo, hi = -1, 1  # holds(lo) is false by convention
    while not holds(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


def _floor_nth_root(s: int, n: int) -> int:
    return _least(lambda k: (k + 1) ** n > s)


def _small_counts(n: int) -> dict[str, tuple[int, Fraction]]:
    """case -> (s0, value) for the small-count cases that hold in P^n: s0
    points have constant at least value.  The n+3 case is split by parity."""
    if n % 2:
        # 1 + 2/n + 2/(n^3 + 2n^2 - n), as one fraction
        n3 = {"n+3-odd": (n + 3, Fraction((n + 1) * (n + 3), n**2 + 2 * n - 1))}
    else:
        n3 = {"n+3-even": (n + 3, Fraction(n + 2, n))}
    return {"n+1": (n + 1, Fraction(n + 1, n)), "n+2": (n + 2, Fraction(n + 2, n)), **n3}


def _subject(tree: ProofTree) -> tuple[int, int] | None:
    """(n, s) when `tree` bounds s simple points in P^n; None for a
    certified fat profile."""
    if tree.rule == RULE_CERTIFIED:
        runs = tree.param("profile")
        return (tree.param("n"), runs[0][1]) if len(runs) == 1 and runs[0][0] == 1 else None
    if tree.rule == RULE_MONOTONE:
        return _subject(tree.premises[0])[0], tree.param("s")
    if tree.rule == RULE_UNIT_TO_DOUBLE:
        return tree.param("n"), tree.param("s0")
    return tree.param("n"), tree.param("s")


# ---------------------------------------------------------------------------
# the rules, one constructor each, which the engine and replay both build with;
# it raises ValueError when a hypothesis fails


def _trivial(n: int, s: int) -> ProofTree:
    _validate(n, s)
    return ProofTree(RULE_TRIVIAL, Fraction(1), (("n", n), ("s", s)))


def _small_count(n: int, case: str) -> ProofTree:
    """The closed form of `case` at its own point count in P^n."""
    _validate(n, 1)
    cases = _small_counts(n)
    if type(case) is not str or case not in cases:
        raise ValueError(f"small-count case {case!r} does not hold in P^{n}")
    s0, value = cases[case]
    return ProofTree(RULE_SMALL_COUNT, value, (("n", n), ("s", s0), ("case", case)))


def _root_count(n: int, s: int) -> ProofTree:
    """k = floor(s^(1/n)) >= 2 for s points: k^n of them have constant k."""
    _validate(n, s)
    k = _floor_nth_root(s, n)
    if k < 2:
        raise ValueError(f"root-count needs s >= 2^n, got {s} points in P^{n}")
    return ProofTree(RULE_ROOT_COUNT, Fraction(k), (("n", n), ("s", s), ("scale", k)))


def _certified_system(fact: WaldschmidtFact) -> ProofTree:
    """The bound of a fact that `fact_from_certificate` read off its certificate."""
    num, den = fact.bound.numerator, fact.bound.denominator
    params = (("n", fact.n), ("profile", fact.profile.runs), ("num", num), ("den", den))
    return ProofTree(RULE_CERTIFIED, fact.bound, params, certificate=fact.certificate)


def _unit_to_double(premise: ProofTree) -> ProofTree:
    """b*2^n + c simple points from a certified profile (2^b, 1^c) in P^n."""
    pair = None
    if premise.rule == RULE_CERTIFIED:
        pair = Profile(premise.param("profile")).doubles_and_singles()
    if pair is None:
        raise ValueError("unit-to-double must rest on a certified profile (2^b, 1^c)")
    n, (b, c) = premise.param("n"), pair
    params = (("n", n), ("s0", b * 2**n + c), ("doubles", b), ("singles", c))
    return ProofTree(RULE_UNIT_TO_DOUBLE, premise.value, params, (premise,))


def _monotone(s: int, premise: ProofTree) -> ProofTree:
    """s points from a premise about s0 <= s simple points; the premise itself if s = s0."""
    subject = _subject(premise)
    if subject is None:
        raise ValueError("monotonicity needs a premise about simple points, not a fat profile")
    _validate(subject[0], s)
    s0 = subject[1]
    if s < s0:
        raise ValueError(f"monotonicity applied downward, from {s0} to {s} points")
    if s == s0:
        return premise
    return ProofTree(RULE_MONOTONE, premise.value, (("s", s), ("s0", s0)), (premise,))


def _block_doubling(n: int, s: int, premise: ProofTree) -> ProofTree:
    """Twice the bound of a premise about floor(s / 2^n) >= 1 points in P^n."""
    _validate(n, s)
    b, subject = s >> n, _subject(premise)
    if subject != (n, b):
        raise ValueError(f"block-doubling premise must bound {b} points in P^{n}, not {subject}")
    params = (("n", n), ("s", s), ("b", b))
    return ProofTree(RULE_BLOCK_DOUBLING, 2 * premise.value, params, (premise,))


def _decompose(n: int, s: int, premises: tuple[ProofTree, ...]) -> ProofTree:
    """s >= r1 + r2 points split across a hyperplane, from premises about r1
    and r2 simple points in P^(n-1), each used at a_j = min(its bound, 2)."""
    _validate(n, s)
    subjects = tuple(map(_subject, premises))
    if len(subjects) != 2 or None in subjects or {m for m, _ in subjects} != {n - 1}:
        raise ValueError(f"decompose needs two premises about simple points in P^{n - 1}")
    rs = (subjects[0][1], subjects[1][1])
    if s < sum(rs):
        raise ValueError(f"decompose needs s >= r1 + r2 = {sum(rs)}, got {s}")
    parts = [min(premise.value, Fraction(2)) for premise in premises]
    a = tuple((part.numerator, part.denominator) for part in parts)
    params = (("n", n), ("s", s), ("k", 1), ("r", rs), ("a", a), ("scope", DECOMPOSE_SCOPE))
    value = decomposition_bound(n, list(zip(rs, parts)))
    return ProofTree(RULE_DECOMPOSE, value, params, premises)


def _certified_candidates(n: int) -> list[tuple[int, ProofTree]]:
    """(s0, tree) for each cataloged fact that bounds simple points in P^n:
    it applies from s0 points on, by monotonicity over `tree`."""
    certified = []
    for fact in catalog(n):
        tree = _certified_system(fact)
        if fact.profile.doubles_and_singles() is not None:
            tree = _unit_to_double(tree)
        elif not fact.profile.is_simple:
            continue
        certified.append((_subject(tree)[1], tree))
    return certified


def _breakpoints(n: int, start: int, stop: int) -> list[int]:
    """The counts in start+1..stop at which a candidate for P^n may step;
    the bound and the winning rule are constant from one to the next."""
    if stop <= start:
        return []
    steps = {1}
    steps.update(s0 for s0, _ in _small_counts(n).values())
    steps.update(s0 for s0, _ in _certified_candidates(n))
    # decompose level l splits C(n+l, n) + 1 points across a hyperplane
    level = 2
    while level < n - 1 and binomial(n + level, n) + 1 <= stop:
        steps.add(binomial(n + level, n) + 1)
        level += 1
    roots = range(max(2, _floor_nth_root(start, n) + 1), _floor_nth_root(stop, n) + 1)
    steps.update(k**n for k in roots)
    # b * 2^n lies in start+1..stop exactly when b lies in (start >> n)+1..(stop >> n)
    steps.update(b << n for b in _breakpoints(n, start >> n, stop >> n))
    return sorted(s for s in steps if start < s <= stop)


@lru_cache(maxsize=None)
def waldschmidt_lower_bound(n: int, s: int) -> BoundFact:
    """Best derivable lower bound for s generic simple points in P^n.

    The candidates are listed in the order trivial, small-count, root-count,
    certified, block-doubling, decompose (one per level, in level order);
    the first maximal one wins.
    """
    candidates = [_trivial(n, s)]
    for case, (s0, _) in _small_counts(n).items():
        if s >= s0:
            candidates.append(_monotone(s, _small_count(n, case)))
    if s >= 2**n:
        candidates.append(_root_count(n, s))
    candidates += [_monotone(s, tree) for s0, tree in _certified_candidates(n) if s >= s0]
    if s >> n:
        candidates.append(_block_doubling(n, s, waldschmidt_lower_bound(n, s >> n).derivation))
    tree = max(candidates, key=lambda t: t.value)
    # a decompose value (1 - 1/a1) * a2 + 1 with a1, a2 <= 2 is at most 2
    if tree.value < 2:
        for level in range(2, n - 1):
            rs = (binomial(n - 1 + level, n - 1) + 1, binomial(n - 1 + level, n))
            if s < sum(rs):
                break
            premises = tuple(waldschmidt_lower_bound(n - 1, r).derivation for r in rs)
            if premises[0].value > 1:
                decomposed = _decompose(n, s, premises)
                tree = decomposed if decomposed.value > tree.value else tree
    return BoundFact(n, Profile.simple(s), tree.value, tree)


def verdict_segments(n: int, start: int, stop: int, check: str) -> list[tuple[int, int]]:
    """Split start..stop into (first, last) runs of counts that share the
    bound and the rhs of `check` ("hh" or "chudnovsky"), hence its verdict."""
    if start > stop:
        return []
    _validate(n, start)
    cuts = set(_breakpoints(n, start, stop))
    # the hh rhs steps with reg at C(n+l, n) + 1, the chudnovsky one with
    # alpha at C(n+d, n)
    shift = {"hh": 1, "chudnovsky": 0}[check]
    level = _least(lambda level: binomial(n + level, n) + shift > start)
    while binomial(n + level, n) + shift <= stop:
        cuts.add(binomial(n + level, n) + shift)
        level += 1
    firsts = [start, *sorted(s for s in cuts if start < s <= stop)]
    return list(zip(firsts, [s - 1 for s in firsts[1:]] + [stop]))


def decomposition_bound(n: int, facts: Sequence[tuple[int, Fraction]]) -> Fraction:
    """(1 - 1/a_1) * a_2 + 1 for point count r_1 + r_2.

    `facts` supplies (r_j, a_j) with a_j a valid lower bound for r_j
    very-general points in P^{n-1}.  Hypotheses are hard constraints:
    1 < a_1 <= 2 and a_2 <= 2.
    """
    if n < 3:
        raise ValueError("decomposition needs ambient dimension >= 3")
    if len(facts) != 2:
        raise ValueError("decomposition needs exactly 2 facts")
    (r1, a1), (r2, a2) = facts
    if r1 < 1 or r2 < 1:
        raise ValueError("point counts must be positive")
    a1, a2 = Fraction(a1), Fraction(a2)
    if not 1 < a1 <= 2:
        raise ValueError(f"hypothesis 1 < a_1 <= 2 fails: a_1 = {a1}")
    if a2 > 2:
        raise ValueError(f"hypothesis a_2 <= 2 fails: a_2 = {a2}")
    return (1 - 1 / a1) * a2 + 1


# ---------------------------------------------------------------------------
# replay: every node rebuilt by its rule's constructor


# the engine's trees are 7 deep over the acceptance grid and n - 3 deep at
# s = 2^n - 1: 61 at n = 64
MAX_PROOF_DEPTH = 128


def replay_proof_tree(tree: ProofTree) -> Fraction:
    """Replay each premise, then rebuild the node with its rule's constructor
    from its params and premises; raises ValueError if the tree is deeper
    than MAX_PROOF_DEPTH or unless every rebuilt node equals the stored one,
    and returns the bound."""
    level = [tree]
    for _ in range(MAX_PROOF_DEPTH):
        # premises shared by several nodes are counted once
        level = list({id(p): p for node in level for p in node.premises}.values())
        if not level:
            return _replay(tree, set())
    raise ValueError(f"derivation is deeper than {MAX_PROOF_DEPTH} levels")


def _replay(tree: ProofTree, replayed: set[int]) -> Fraction:
    for premise in tree.premises:
        if id(premise) not in replayed:
            _replay(premise, replayed)
    rule, param, premises = tree.rule, tree.param, tree.premises
    if rule in (RULE_UNIT_TO_DOUBLE, RULE_MONOTONE, RULE_BLOCK_DOUBLING) and len(premises) != 1:
        raise ValueError(f"rule {rule} needs exactly one premise")
    if rule == RULE_TRIVIAL:
        rebuilt = _trivial(param("n"), param("s"))
    elif rule == RULE_SMALL_COUNT:
        rebuilt = _small_count(param("n"), param("case"))
    elif rule == RULE_ROOT_COUNT:
        rebuilt = _root_count(param("n"), param("s"))
    elif rule == RULE_CERTIFIED:
        if tree.certificate is None:
            raise ValueError("certified rule without a certificate")
        rebuilt = _certified_system(fact_from_certificate(tree.certificate))
    elif rule == RULE_UNIT_TO_DOUBLE:
        rebuilt = _unit_to_double(premises[0])
    elif rule == RULE_MONOTONE:
        rebuilt = _monotone(param("s"), premises[0])
    elif rule == RULE_BLOCK_DOUBLING:
        rebuilt = _block_doubling(param("n"), param("s"), premises[0])
    elif rule == RULE_DECOMPOSE:
        rebuilt = _decompose(param("n"), param("s"), premises)
    else:
        raise ValueError(f"unknown rule {rule!r}")
    if rebuilt != tree:
        raise ValueError(
            f"stored {rule} node {tree.value} {tree.params} differs from the "
            f"rebuilt {rebuilt.rule} node {rebuilt.value} {rebuilt.params}"
        )
    replayed.add(id(tree))
    return tree.value


# ---------------------------------------------------------------------------
# the numeric criteria


_NOTES = {
    "containment_exponent": "(n-1)r",
    "chudnovsky_form": "initial-degree inequality",
}


def hh_check(n: int, s: int) -> CheckReport:
    """Strict test bound > (reg + n - 1)/n, exact rational arithmetic."""
    fact = waldschmidt_lower_bound(n, s)
    reg = regularity_generic(n, s)
    alpha = alpha_generic(n, s)
    rhs = Fraction(reg + n - 1, n)
    verdict = fact.bound > rhs
    r_threshold = _threshold(n, fact.bound, reg) if verdict else None
    return CheckReport(
        "hh", n, s, fact.bound, alpha, reg, rhs, verdict, r_threshold, fact.derivation
    )


def chudnovsky_check(n: int, s: int) -> CheckReport:
    """Test bound >= (alpha + n - 1)/n, exact rational arithmetic."""
    fact = waldschmidt_lower_bound(n, s)
    reg = regularity_generic(n, s)
    alpha = alpha_generic(n, s)
    rhs = Fraction(alpha + n - 1, n)
    return CheckReport(
        "chudnovsky", n, s, fact.bound, alpha, reg, rhs, fact.bound >= rhs, None, fact.derivation
    )


def containment_threshold(n: int, s: int) -> int:
    """Least r >= 2 with (n*r - n)*bound >= r*(reg + n - 1); monotone in r.

    Defined only when the strict inequality bound > (reg + n - 1)/n holds.
    """
    return _threshold(n, waldschmidt_lower_bound(n, s).bound, regularity_generic(n, s))


def _threshold(n: int, bound: Fraction, reg: int) -> int:
    margin = n * bound - (reg + n - 1)
    if margin <= 0:
        raise ValueError(
            f"threshold undefined: bound {bound} does not strictly exceed "
            f"{Fraction(reg + n - 1, n)}"
        )
    need = n * bound / margin
    return max(2, -(-need.numerator // need.denominator))


# ---------------------------------------------------------------------------
# JSON encodings


def _fraction_to_dict(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def _params_to_dict(params: tuple[tuple[str, Any], ...]) -> dict:
    out: dict[str, Any] = {}
    for key, value in params:
        out[key] = list(value) if isinstance(value, tuple) else value
    return out


def proof_tree_to_dict(tree: ProofTree) -> dict:
    return {
        "rule": tree.rule,
        "value": _fraction_to_dict(tree.value),
        "params": _params_to_dict(tree.params),
        "premises": [proof_tree_to_dict(p) for p in tree.premises],
        "certificate": None
        if tree.certificate is None
        else certificate_to_dict(tree.certificate),
    }


def bound_fact_to_dict(fact: BoundFact) -> dict:
    return {
        "N": fact.n,
        "s": fact.profile.npoints,
        "bound": _fraction_to_dict(fact.bound),
        "proof_tree": proof_tree_to_dict(fact.derivation),
    }


def report_to_dict(report: CheckReport) -> dict:
    out = {
        "N": report.n,
        "s": report.s,
        "bound": _fraction_to_dict(report.bound),
        "alpha": report.alpha,
        "reg": report.reg,
        "rhs": _fraction_to_dict(report.rhs),
        "verdict": report.verdict,
        "proof_tree": proof_tree_to_dict(report.derivation),
        "notes": dict(_NOTES),
    }
    if report.check == "hh":
        out["r_threshold"] = report.r_threshold
    return out
