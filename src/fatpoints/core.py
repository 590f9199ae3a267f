"""Exact arithmetic on values that are affine in a symbolic parameter m.

Everything downstream (reduction chains, certificates, bounds) manipulates
degrees and multiplicities of the form ``slope*m + intercept`` with integer
coefficients, together with the least threshold m0 from which a sign claim
holds.  Python ints make every evaluation exact.  All types here are frozen
values and every operation is a pure function, so sharing across threads is
safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence, Union


class Sign(Enum):
    POSITIVE = "positive"
    ZERO = "zero"
    NEGATIVE = "negative"


@dataclass(frozen=True)
class EventualSign:
    """Sign of an affine value on [threshold, infinity)."""

    sign: Sign
    threshold: int


@dataclass(frozen=True, order=False)
class AffineValue:
    """slope*m + intercept with arbitrary-precision integer coefficients."""

    slope: int
    intercept: int

    def at(self, m: int) -> int:
        return self.slope * m + self.intercept

    def __add__(self, other: "AffineValue") -> "AffineValue":
        return AffineValue(self.slope + other.slope, self.intercept + other.intercept)

    def __sub__(self, other: "AffineValue") -> "AffineValue":
        return AffineValue(self.slope - other.slope, self.intercept - other.intercept)

    def __neg__(self) -> "AffineValue":
        return AffineValue(-self.slope, -self.intercept)

    def scaled(self, c: int) -> "AffineValue":
        return AffineValue(c * self.slope, c * self.intercept)

    def key(self) -> tuple[int, int]:
        """Sort key realizing the eventual (large-m) order."""
        return (self.slope, self.intercept)

    def __str__(self) -> str:
        s, i = self.slope, self.intercept
        if s == 0:
            return str(i)
        head = {1: "m", -1: "-m"}.get(s, f"{s}m")
        if i == 0:
            return head
        return f"{head}{i:+d}"

    @staticmethod
    def of(value: "AffineLike") -> "AffineValue":
        if isinstance(value, AffineValue):
            return value
        if isinstance(value, int):
            return AffineValue(0, value)
        slope, intercept = value
        return AffineValue(int(slope), int(intercept))


AffineLike = Union[AffineValue, int, tuple]

ZERO = AffineValue(0, 0)
ONE = AffineValue(0, 1)


def eventual_sign(v: AffineValue) -> EventualSign:
    """Sign of v(m) for all m >= threshold, with the least such threshold >= 1.

    For slope != 0 the sign is the slope's; the threshold is where the value
    crosses zero within positive m (floor division rounds toward -inf, so the
    same formula covers both slope signs).
    """
    if v.slope == 0:
        if v.intercept == 0:
            return EventualSign(Sign.ZERO, 1)
        return EventualSign(Sign.POSITIVE if v.intercept > 0 else Sign.NEGATIVE, 1)
    sign = Sign.POSITIVE if v.slope > 0 else Sign.NEGATIVE
    threshold = max(1, (-v.intercept) // v.slope + 1)
    return EventualSign(sign, threshold)


def nonneg_threshold(v: AffineValue) -> int | None:
    """Least m0 >= 1 with v(m) >= 0 for all m >= m0, or None if there is none."""
    if v.slope == 0:
        return 1 if v.intercept >= 0 else None
    if v.slope < 0:
        return None
    # v(m) >= 0 iff m >= ceil(-intercept/slope)
    return max(1, -((v.intercept) // v.slope))


def positive_threshold(v: AffineValue) -> int | None:
    """Least m0 >= 1 with v(m) > 0 for all m >= m0, or None."""
    es = eventual_sign(v)
    return es.threshold if es.sign is Sign.POSITIVE else None


def nonpositive_threshold(v: AffineValue) -> int | None:
    """Least m0 >= 1 with v(m) <= 0 for all m >= m0, or None."""
    return nonneg_threshold(-v)


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient; requires 0 <= k <= n."""
    if k < 0 or n < 0 or k > n:
        raise ValueError(f"binomial({n}, {k}) out of range")
    return math.comb(n, k)


@dataclass(frozen=True)
class Run:
    """A block of `count` points sharing one parametric multiplicity."""

    value: AffineValue
    count: int


@dataclass(frozen=True)
class FatPointSystem:
    """A linear system in P^n: forms of parametric degree vanishing to the
    run multiplicities at generic points.

    Runs are kept sorted by eventual value, descending, with equal values
    merged; construction canonicalizes, so structural equality is semantic
    equality of presentations.
    """

    n: int
    degree: AffineValue
    mults: tuple[Run, ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"ambient dimension must be >= 2, got {self.n}")
        for run in self.mults:
            if run.count < 1:
                raise ValueError("run counts must be positive")
        ordered = sorted(self.mults, key=lambda r: r.value.key(), reverse=True)
        merged: list[Run] = []
        for run in ordered:
            if merged and merged[-1].value == run.value:
                merged[-1] = Run(run.value, merged[-1].count + run.count)
            else:
                merged.append(run)
        object.__setattr__(self, "mults", tuple(merged))

    @staticmethod
    def build(n: int, degree: AffineLike, mults: Iterable[tuple[AffineLike, int]]) -> "FatPointSystem":
        runs = tuple(Run(AffineValue.of(v), int(c)) for v, c in mults)
        return FatPointSystem(n, AffineValue.of(degree), runs)

    @property
    def point_count(self) -> int:
        return sum(r.count for r in self.mults)

    def expand_values(self) -> list[AffineValue]:
        """Multiplicities listed per point, in run order."""
        out: list[AffineValue] = []
        for run in self.mults:
            out.extend([run.value] * run.count)
        return out

    def instantiate(self, m: int) -> tuple[int, list[int]]:
        """Concrete (degree, multiplicities) at parameter value m >= 1.

        Multiplicities evaluating <= 0 are clamped to 0: they impose no
        vanishing condition.
        """
        if m < 1:
            raise ValueError("parameter must be >= 1")
        degree = self.degree.at(m)
        mults = [max(0, v.at(m)) for v in self.expand_values()]
        return degree, mults

    def __str__(self) -> str:
        runs = ", ".join(f"({run.value})^x{run.count}" for run in self.mults)
        return f"L_{self.n}({self.degree}; {runs})"


def pivot_of_largest(sys: FatPointSystem, size: int) -> tuple[int, ...]:
    """Run indices (with repetition) of the `size` eventually-largest points.

    Runs are already in eventual descending order; ties inside a run are
    interchangeable and ties across runs were merged away, so taking from the
    front is the deterministic choice.
    """
    if sys.point_count < size:
        raise ValueError(f"system has {sys.point_count} points, pivot needs {size}")
    picks: list[int] = []
    need = size
    for idx, run in enumerate(sys.mults):
        take = min(run.count, need)
        picks.extend([idx] * take)
        need -= take
        if need == 0:
            break
    return tuple(picks)


def pivot_counts(sys: FatPointSystem, pivot: Sequence[int]) -> list[int]:
    """Per-run take counts for a pivot given as run indices with repetition."""
    counts = [0] * len(sys.mults)
    for idx in pivot:
        if not 0 <= idx < len(sys.mults):
            raise ValueError(f"pivot index {idx} out of range")
        counts[idx] += 1
    for idx, c in enumerate(counts):
        if c > sys.mults[idx].count:
            raise ValueError(f"pivot takes {c} points from a run of {sys.mults[idx].count}")
    return counts


def cremona_k(sys: FatPointSystem, pivot: Sequence[int]) -> AffineValue:
    """k = (n-1)*degree - sum of the n+1 pivot multiplicities."""
    if len(pivot) != sys.n + 1:
        raise ValueError(f"pivot must select exactly {sys.n + 1} points, got {len(pivot)}")
    counts = pivot_counts(sys, pivot)
    total = ZERO
    for idx, c in enumerate(counts):
        if c:
            total = total + sys.mults[idx].value.scaled(c)
    return sys.degree.scaled(sys.n - 1) - total


def expected_dimension(sys: FatPointSystem, m: int) -> int:
    """Virtual dimension max(0, C(d+n,n) - sum_i C(m_i+n-1,n)) at parameter m.

    The true dimension is always >= C(d+n,n) - sum C(m_i+n-1,n) (it is
    columns minus at most that many rank conditions); systems exceeding the
    clamped value are called special.
    """
    degree, mults = sys.instantiate(m)
    if degree < 0:
        raise ValueError(f"degree {sys.degree} evaluates to {degree} < 0 at m={m}")
    total = binomial(degree + sys.n, sys.n)
    conditions = sum(binomial(mi + sys.n - 1, sys.n) for mi in mults if mi > 0)
    return max(0, total - conditions)
