"""Shared builders for the test suite."""

import io
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import lru_cache

from fatpoints.bounds import (
    DECOMPOSE_SCOPE,
    RULE_BLOCK_DOUBLING,
    RULE_CERTIFIED,
    RULE_DECOMPOSE,
    RULE_MONOTONE,
    RULE_ROOT_COUNT,
    RULE_SMALL_COUNT,
    RULE_TRIVIAL,
    RULE_UNIT_TO_DOUBLE,
    BoundFact,
    ProofTree,
    _floor_nth_root,
    _validate,
    chudnovsky_check,
    hh_check,
)
from fatpoints.cli import EX_FALSE, EX_OK, run
from fatpoints.core import AffineValue, FatPointSystem, binomial
from fatpoints.facts import Profile, catalog
from fatpoints.reduction import certificate_to_dict, evain_certificate


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


def invoke_stdin(argv, text):
    """Exit code, stdout and stderr of the command line `argv` reading `text`
    as its standard input."""
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
    finally:
        sys.stdin = old
    return code, out.getvalue(), err.getvalue()


def nested_merges(doc: dict, depth: int) -> dict:
    """Certificate dict `doc` as the second reference of `depth` nested
    merges over a plane axiom; the innermost merge removes a run that its
    first reference does not match."""
    leaf = certificate_to_dict(evain_certificate(2, 2, (1, 0)))
    for _ in range(depth):
        step = dict(leaf["steps"][0], rule="merge_empty", refs=[leaf, doc], removed=0, scale=None)
        doc = dict(leaf, steps=[step])
    return doc


def merge_chain_script(depth: int) -> tuple[dict, str]:
    """A `--script` of `depth` nested merges in the plane, and the `--mults`
    of the claim it proves in degree 2m-1: each merge trades one point of
    multiplicity 2m for the four points of a 2x2 axiom."""
    axiom = {"system": {"N": 2, "degree": [2, -1], "mults": [[1, 0, 4]]},
             "prove": {"how": "evain", "scale": 2}}
    runs = [[2, 0, depth + 1]]
    node = {"how": "greedy"}
    for j in range(1, depth + 1):
        rest = {"system": {"N": 2, "degree": [2, -1], "mults": runs}, "prove": node}
        node = {"how": "merge", "part": axiom, "rest": rest}
        runs = [[2, 0, depth + 1 - j], [1, 0, 4 * j]]
    return node, f"2,0:1;1,0:{4 * depth}"


def _reference_monotone(s: int, s0: int, inner: ProofTree) -> ProofTree:
    if s == s0:
        return inner
    return ProofTree(RULE_MONOTONE, inner.value, params=(("s", s), ("s0", s0)), premises=(inner,))


@lru_cache(maxsize=None)
def reference_lower_bound(n: int, s: int) -> BoundFact:
    """The rule engine without its per-n candidate table: every candidate
    is rederived for each s, and `max` keeps the first maximal one.  Tests
    require the engine to return the same facts."""
    _validate(n, s)
    candidates: list[ProofTree] = [
        ProofTree(RULE_TRIVIAL, Fraction(1), params=(("n", n), ("s", s)))
    ]

    cases = [("n+1", n + 1, Fraction(n + 1, n)), ("n+2", n + 2, Fraction(n + 2, n))]
    if n % 2 == 0:
        cases.append(("n+3-even", n + 3, Fraction(n + 2, n)))
    else:
        cases.append(("n+3-odd", n + 3, 1 + Fraction(2, n) + Fraction(2, n**3 + 2 * n**2 - n)))
    for case, s0, value in cases:
        if s >= s0:
            inner = ProofTree(RULE_SMALL_COUNT, value, params=(("n", n), ("s", s0), ("case", case)))
            candidates.append(_reference_monotone(s, s0, inner))

    k = _floor_nth_root(s, n)
    if k >= 2:
        candidates.append(
            ProofTree(
                RULE_ROOT_COUNT, Fraction(k), params=(("n", n), ("s", s), ("scale", k))
            )
        )

    for fact in catalog(n):
        tree = ProofTree(
            RULE_CERTIFIED,
            fact.bound,
            params=(
                ("n", n),
                ("profile", fact.profile.runs),
                ("num", fact.bound.numerator),
                ("den", fact.bound.denominator),
            ),
            certificate=fact.certificate,
        )
        if fact.profile.is_simple:
            s0 = fact.profile.npoints
            if s >= s0:
                candidates.append(_reference_monotone(s, s0, tree))
        else:
            pair = fact.profile.doubles_and_singles()
            if pair is not None:
                b, c = pair
                s0 = b * 2**n + c
                if s >= s0:
                    lifted = ProofTree(
                        RULE_UNIT_TO_DOUBLE,
                        fact.bound,
                        params=(("n", n), ("s0", s0), ("doubles", b), ("singles", c)),
                        premises=(tree,),
                    )
                    candidates.append(_reference_monotone(s, s0, lifted))

    b = s >> n
    if b >= 1:
        inner = reference_lower_bound(n, b)
        candidates.append(
            ProofTree(
                RULE_BLOCK_DOUBLING,
                2 * inner.bound,
                params=(("n", n), ("s", s), ("b", b)),
                premises=(inner.derivation,),
            )
        )

    if n >= 3:
        for level in range(2, n - 1):
            r1 = binomial(n - 1 + level, n - 1) + 1
            r2 = binomial(n - 1 + level, n)
            if s < r1 + r2:
                break
            f1 = reference_lower_bound(n - 1, r1)
            f2 = reference_lower_bound(n - 1, r2)
            a1 = min(f1.bound, Fraction(2))
            a2 = min(f2.bound, Fraction(2))
            if a1 <= 1:
                continue
            value = (1 - 1 / a1) * a2 + 1
            candidates.append(
                ProofTree(
                    RULE_DECOMPOSE,
                    value,
                    params=(
                        ("n", n),
                        ("s", s),
                        ("k", 1),
                        ("r", (r1, r2)),
                        ("a", ((a1.numerator, a1.denominator), (a2.numerator, a2.denominator))),
                        ("scope", DECOMPOSE_SCOPE),
                    ),
                    premises=(f1.derivation, f2.derivation),
                )
            )

    best = max(candidates, key=lambda t: t.value)
    return BoundFact(n, Profile.simple(s), best.value, best)


# the acceptance grid's sweep ranges, from one point on, for n = 2..10
SWEEP_STOPS = {n: min(3**n, 6600) if n <= 8 else 3000 for n in range(2, 11)}


def reference_sweep(args) -> int:
    """`fatpoints sweep` as it was before it split the range into segments:
    one check per count.  Tests require the command to print the same."""
    check = hh_check if args.check == "hh" else chudnovsky_check
    sys.stdout.write("N,s,bound,rhs,verdict\n")
    all_true = True
    for s in range(args.start, args.stop + 1):
        report = check(args.n, s)
        all_true &= report.verdict
        sys.stdout.write(
            f"{args.n},{s},{report.bound.numerator}/{report.bound.denominator},"
            f"{report.rhs.numerator}/{report.rhs.denominator},"
            f"{'true' if report.verdict else 'false'}\n"
        )
    return EX_OK if all_true else EX_FALSE
