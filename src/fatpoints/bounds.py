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
re-evaluates a tree from scratch, independently of the search.

Most candidates do not depend on s: the small-count values, the certified
facts with the point count each applies from, and each decompose level's
value and premises.  They sit in a per-n candidate table, built once per
catalog(n) (decompose levels when a point count first reaches them).

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
at 1 or at one of those counts (`_CandidateTable.breakpoints`).  Between two
consecutive breakpoints the set of present candidates and their values are
fixed, so the bound and the winning rule (the first maximal candidate in a
fixed order) are too; only the params that record s differ.  The Chudnovsky
rhs depends on s through alpha alone, which steps only at C(d+n, n); the HH
rhs through reg alone, which steps only at C(n+l, n) + 1.  So on a segment
that has no breakpoint of the bound, nor a step of its check's rhs, inside
it, the check's bound, rhs and verdict are constant: `verdict_segments` cuts
a sweep there, and the sweep runs one check per segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Any, Sequence

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
        raise KeyError(key)


@dataclass(frozen=True)
class BoundFact:
    n: int
    profile: Profile
    bound: Fraction
    derivation: ProofTree


@dataclass(frozen=True)
class ChudnovskyReport:
    n: int
    s: int
    bound: Fraction
    alpha: int
    reg: int
    rhs: Fraction
    verdict: bool
    derivation: ProofTree


@dataclass(frozen=True)
class HHReport:
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
    d = 0
    while binomial(d + n, n) <= s:
        d += 1
    return d


def regularity_generic(n: int, s: int) -> int:
    """l+1 for the unique l with C(n+l-1,n) < s <= C(n+l,n)."""
    _validate(n, s)
    level = 0
    while binomial(n + level, n) < s:
        level += 1
    return level + 1


def _validate(n: int, s: int) -> None:
    if n < 2:
        raise ValueError(f"ambient dimension must be >= 2, got {n}")
    if s < 1:
        raise ValueError(f"point count must be >= 1, got {s}")


def _floor_nth_root(s: int, n: int) -> int:
    k = max(1, int(round(s ** (1.0 / n))))
    while (k + 1) ** n <= s:
        k += 1
    while k**n > s:
        k -= 1
    return k


def _small_count_value(n: int, case: str) -> Fraction:
    if case == "n+1":
        return Fraction(n + 1, n)
    if case == "n+2":
        return Fraction(n + 2, n)
    if case == "n+3-even":
        return Fraction(n + 2, n)
    if case == "n+3-odd":
        return 1 + Fraction(2, n) + Fraction(2, n**3 + 2 * n**2 - n)
    raise ValueError(f"unknown small-count case {case!r}")


def _small_counts(n: int) -> dict[str, tuple[int, Fraction]]:
    """case -> (s0, value) for the small-count cases that hold in P^n: s0
    points have constant at least value.  The n+3 case is split by parity."""
    cases = (("n+1", n + 1), ("n+2", n + 2), ("n+3-odd" if n % 2 else "n+3-even", n + 3))
    return {case: (s0, _small_count_value(n, case)) for case, s0 in cases}


def _certified_tree(fact: WaldschmidtFact) -> ProofTree:
    return ProofTree(
        RULE_CERTIFIED,
        fact.bound,
        params=(
            ("n", fact.n),
            ("profile", fact.profile.runs),
            ("num", fact.bound.numerator),
            ("den", fact.bound.denominator),
        ),
        certificate=fact.certificate,
    )


def _monotone(s: int, s0: int, inner: ProofTree) -> ProofTree:
    if s == s0:
        return inner
    return ProofTree(RULE_MONOTONE, inner.value, params=(("s", s), ("s0", s0)), premises=(inner,))


class _CandidateTable:
    """The candidates for s points in P^n whose value does not depend on s.

    `small_counts` and `certified` hold (s0, tree): each applies from s0
    points on, by monotonicity over `tree`.  Decompose levels are built
    the first time a point count reaches them, since their premises are
    bounds one dimension down.
    """

    def __init__(self, n: int, facts: tuple[WaldschmidtFact, ...]) -> None:
        self.n = n
        self.facts = facts
        self.small_counts = [
            (s0, ProofTree(RULE_SMALL_COUNT, value, params=(("n", n), ("s", s0), ("case", case))))
            for case, (s0, value) in _small_counts(n).items()
        ]

        self.certified = []
        for fact in facts:
            tree = _certified_tree(fact)
            if fact.profile.is_simple:
                self.certified.append((fact.profile.npoints, tree))
                continue
            pair = fact.profile.doubles_and_singles()
            if pair is not None:
                b, c = pair
                s0 = b * 2**n + c
                lifted = ProofTree(
                    RULE_UNIT_TO_DOUBLE,
                    fact.bound,
                    params=(("n", n), ("s0", s0), ("doubles", b), ("singles", c)),
                    premises=(tree,),
                )
                self.certified.append((s0, lifted))

        # level l splits C(n+l, n) + 1 points as r1 + r2 across a hyperplane
        self._level_sizes = [(level, binomial(n + level, n) + 1) for level in range(2, n - 1)]
        self._levels: dict[int, tuple[Fraction, tuple, tuple] | None] = {}

    def breakpoints(self, stop: int) -> list[int]:
        """The counts in 1..stop at which a candidate above may step; the
        bound and the winning rule are constant from one to the next."""
        if stop < 1:
            return []
        n = self.n
        steps = {1}
        steps.update(s0 for s0, _ in self.small_counts)
        steps.update(s0 for s0, _ in self.certified)
        steps.update(size for _, size in self._level_sizes)
        k = 2
        while k**n <= stop:
            steps.add(k**n)
            k += 1
        steps.update(b << n for b in self.breakpoints(stop >> n))
        return sorted(s for s in steps if s <= stop)

    def decompose_levels(self, s: int):
        """(value, params after n and s, premises) of each decompose level
        that applies to s points and has a first part worth more than 1."""
        for level, size in self._level_sizes:
            if s < size:
                return
            if level not in self._levels:
                self._levels[level] = _decompose_level(self.n, level)
            if self._levels[level] is not None:
                yield self._levels[level]


def _decompose_level(n: int, level: int) -> tuple[Fraction, tuple, tuple] | None:
    r1 = binomial(n - 1 + level, n - 1) + 1
    r2 = binomial(n - 1 + level, n)
    f1 = waldschmidt_lower_bound(n - 1, r1)
    f2 = waldschmidt_lower_bound(n - 1, r2)
    a1 = min(f1.bound, Fraction(2))
    a2 = min(f2.bound, Fraction(2))
    if a1 <= 1:
        return None
    params = (
        ("k", 1),
        ("r", (r1, r2)),
        ("a", ((a1.numerator, a1.denominator), (a2.numerator, a2.denominator))),
        ("scope", DECOMPOSE_SCOPE),
    )
    value = decomposition_bound(n, [(r1, a1), (r2, a2)], 1)
    return value, params, (f1.derivation, f2.derivation)


_tables: dict[int, _CandidateTable] = {}


def _candidate_table(n: int) -> _CandidateTable:
    # rebuilt whenever catalog(n) is, so clearing the catalog cache also
    # clears the table and the bounds its decompose premises hold
    facts = catalog(n)
    table = _tables.get(n)
    if table is None or table.facts is not facts:
        table = _tables[n] = _CandidateTable(n, facts)
    return table


@lru_cache(maxsize=None)
def waldschmidt_lower_bound(n: int, s: int) -> BoundFact:
    """Best derivable lower bound for s generic simple points in P^n.

    The candidates are listed in the order trivial, small-count, root-count,
    certified, block-doubling, decompose; the first maximal one wins.
    """
    _validate(n, s)
    table = _candidate_table(n)
    candidates = [ProofTree(RULE_TRIVIAL, Fraction(1), (("n", n), ("s", s)))]
    candidates += [_monotone(s, s0, tree) for s0, tree in table.small_counts if s >= s0]
    k = _floor_nth_root(s, n)
    if k >= 2:
        candidates.append(
            ProofTree(RULE_ROOT_COUNT, Fraction(k), (("n", n), ("s", s), ("scale", k)))
        )
    candidates += [_monotone(s, s0, tree) for s0, tree in table.certified if s >= s0]
    b = s >> n
    if b >= 1:
        inner = waldschmidt_lower_bound(n, b).derivation
        candidates.append(
            ProofTree(
                RULE_BLOCK_DOUBLING, 2 * inner.value, (("n", n), ("s", s), ("b", b)), (inner,)
            )
        )
    candidates += [
        ProofTree(RULE_DECOMPOSE, value, (("n", n), ("s", s)) + params, premises)
        for value, params, premises in table.decompose_levels(s)
    ]
    tree = max(candidates, key=lambda t: t.value)
    return BoundFact(n, Profile.simple(s), tree.value, tree)


def verdict_segments(n: int, start: int, stop: int, check: str) -> list[tuple[int, int]]:
    """Split start..stop into (first, last) runs of counts that share the
    bound and the rhs of `check` ("hh" or "chudnovsky"), hence its verdict."""
    if start > stop:
        return []
    _validate(n, start)
    cuts = set(_candidate_table(n).breakpoints(stop))
    # the hh rhs steps with reg at C(n+l, n) + 1, the chudnovsky one with
    # alpha at C(n+d, n)
    shift = {"hh": 1, "chudnovsky": 0}[check]
    level = 0
    while binomial(n + level, n) + shift <= stop:
        cuts.add(binomial(n + level, n) + shift)
        level += 1
    firsts = [start, *sorted(s for s in cuts if start < s <= stop)]
    return list(zip(firsts, [s - 1 for s in firsts[1:]] + [stop]))


def decomposition_bound(
    n: int, facts: Sequence[tuple[int, Fraction]], k: int
) -> Fraction:
    """(1 - sum_{j<=k} 1/a_j) * a_{k+1} + k for point count sum r_j.

    `facts` supplies (r_j, a_j) with a_j a valid lower bound for r_j
    very-general points in P^{n-1}.  Hypotheses are hard constraints:
    k <= a_j <= k+1 for j <= k, a_1 > k, a_{k+1} <= k+1.
    """
    if n < 3:
        raise ValueError("decomposition needs ambient dimension >= 3")
    if k < 1:
        raise ValueError("decomposition needs k >= 1")
    if len(facts) != k + 1:
        raise ValueError(f"decomposition with k={k} needs exactly {k + 1} facts")
    parts = [Fraction(a) for _, a in facts]
    for r, _ in facts:
        if r < 1:
            raise ValueError("point counts must be positive")
    for j, a in enumerate(parts[:k]):
        if not (k <= a <= k + 1):
            raise ValueError(f"hypothesis k <= a_{j + 1} <= k+1 fails: a = {a}")
    if parts[0] <= k:
        raise ValueError(f"hypothesis a_1 > k fails: a_1 = {parts[0]}")
    if parts[k] > k + 1:
        raise ValueError(f"hypothesis a_{k + 1} <= k+1 fails: a = {parts[k]}")
    return (1 - sum(1 / a for a in parts[:k])) * parts[k] + k


# ---------------------------------------------------------------------------
# replay: independent re-evaluation of a derivation tree


def replay_proof_tree(tree: ProofTree) -> Fraction:
    """Recompute a derivation from its leaves; raises ValueError on any
    inconsistency and returns the (re-verified) bound."""
    value = _replay(tree)
    if value != tree.value:
        raise ValueError(f"stored value {tree.value} differs from replayed {value}")
    return value


def _replay(tree: ProofTree) -> Fraction:
    rule = tree.rule
    if rule == RULE_TRIVIAL:
        if tree.param("s") < 1:
            raise ValueError("trivial bound needs at least one point")
        return Fraction(1)
    if rule == RULE_MONOTONE:
        if tree.param("s") < tree.param("s0"):
            raise ValueError("monotonicity applied downward")
        return _replay_one(tree)
    if rule == RULE_ROOT_COUNT:
        k, n, s = tree.param("scale"), tree.param("n"), tree.param("s")
        if k < 2 or k**n > s:
            raise ValueError(f"root-count needs 2 <= k with k^n <= s, got k={k}")
        return Fraction(k)
    if rule == RULE_SMALL_COUNT:
        n, s, case = tree.param("n"), tree.param("s"), tree.param("case")
        cases = _small_counts(n)
        if case not in cases:
            raise ValueError(f"small-count case {case!r} does not hold in P^{n}")
        s0, value = cases[case]
        if s < s0:
            raise ValueError(f"small-count case {case} needs s >= {s0}")
        return value
    if rule == RULE_BLOCK_DOUBLING:
        n, s, b = tree.param("n"), tree.param("s"), tree.param("b")
        if b < 1 or b * 2**n > s:
            raise ValueError("block-doubling needs b >= 1 with b*2^n <= s")
        return 2 * _replay_one(tree)
    if rule == RULE_UNIT_TO_DOUBLE:
        n, s0 = tree.param("n"), tree.param("s0")
        b, c = tree.param("doubles"), tree.param("singles")
        inner = tree.premises[0]
        if inner.rule != RULE_CERTIFIED:
            raise ValueError("unit-to-double must rest on a certified profile")
        if inner.param("profile") != ((2, b), (1, c)):
            raise ValueError("certified profile is not (2^b, 1^c)")
        if s0 != b * 2**n + c:
            raise ValueError("unit-to-double point count mismatch")
        return _replay_one(tree)
    if rule == RULE_CERTIFIED:
        if tree.certificate is None:
            raise ValueError("certified rule without a certificate")
        fact = fact_from_certificate(tree.certificate)
        if fact.n != tree.param("n") or fact.profile.runs != tree.param("profile"):
            raise ValueError("certificate does not match the recorded profile")
        if fact.bound != Fraction(tree.param("num"), tree.param("den")):
            raise ValueError("certificate bound differs from the recorded value")
        return fact.bound
    if rule == RULE_DECOMPOSE:
        n, s, k = tree.param("n"), tree.param("s"), tree.param("k")
        rs = tree.param("r")
        parts = [Fraction(num, den) for num, den in tree.param("a")]
        if len(tree.premises) != k + 1 or len(rs) != k + 1:
            raise ValueError("decomposition arity mismatch")
        if s < sum(rs):
            raise ValueError("decomposition needs s >= sum of the parts")
        for a, premise in zip(parts, tree.premises):
            if a > _replay(premise):
                raise ValueError("decomposition premise weaker than its use")
        return decomposition_bound(n, list(zip(rs, parts)), k)
    raise ValueError(f"unknown rule {rule!r}")


def _replay_one(tree: ProofTree) -> Fraction:
    if len(tree.premises) != 1:
        raise ValueError(f"rule {tree.rule} needs exactly one premise")
    return _replay(tree.premises[0])


# ---------------------------------------------------------------------------
# the numeric criteria


_NOTES = {
    "containment_exponent": "(n-1)r",
    "chudnovsky_form": "initial-degree inequality",
}


def hh_check(n: int, s: int) -> HHReport:
    """Strict test bound > (reg + n - 1)/n, exact rational arithmetic."""
    fact = waldschmidt_lower_bound(n, s)
    reg = regularity_generic(n, s)
    alpha = alpha_generic(n, s)
    rhs = Fraction(reg + n - 1, n)
    verdict = fact.bound > rhs
    r_threshold = _threshold(n, fact.bound, reg) if verdict else None
    return HHReport(n, s, fact.bound, alpha, reg, rhs, verdict, r_threshold, fact.derivation)


def chudnovsky_check(n: int, s: int) -> ChudnovskyReport:
    """Test bound >= (alpha + n - 1)/n, exact rational arithmetic."""
    fact = waldschmidt_lower_bound(n, s)
    reg = regularity_generic(n, s)
    alpha = alpha_generic(n, s)
    rhs = Fraction(alpha + n - 1, n)
    return ChudnovskyReport(n, s, fact.bound, alpha, reg, rhs, fact.bound >= rhs, fact.derivation)


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


def report_to_dict(report: ChudnovskyReport | HHReport) -> dict:
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
    if isinstance(report, HHReport):
        out["r_threshold"] = report.r_threshold
    return out
