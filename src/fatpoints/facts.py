"""The shipped catalog of parametric emptiness certificates.

Each entry certifies I((q*c_1*m)^{n_1}, ..., (q*c_j*m)^{n_j})_{p*m-1} = 0 for
all m >= m0 and therefore witnesses a Waldschmidt lower bound p/q for the
multiplicity profile (c_1^{n_1}, ...); see `fact_from_certificate`.  The
catalog is rebuilt per ambient dimension on demand and cached; every
certificate is machine-verified at build time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .core import FatPointSystem, binomial
from .reduction import (
    MAX_NESTING,
    Certificate,
    evain_certificate,
    merge_empty,
    prove_empty,
    verify_certificate,
)


@dataclass(frozen=True)
class Profile:
    """Multiset of multiplicities, run-length encoded and sorted descending."""

    runs: tuple[tuple[int, int], ...]

    @staticmethod
    def simple(s: int) -> "Profile":
        return Profile(((1, s),))

    @staticmethod
    def of(pairs) -> "Profile":
        merged: dict[int, int] = {}
        for value, count in pairs:
            merged[int(value)] = merged.get(int(value), 0) + int(count)
        runs = tuple(sorted(merged.items(), reverse=True))
        return Profile(runs)

    @property
    def npoints(self) -> int:
        return sum(c for _, c in self.runs)

    @property
    def is_simple(self) -> bool:
        return len(self.runs) == 1 and self.runs[0][0] == 1

    def doubles_and_singles(self) -> tuple[int, int] | None:
        """(b, c) when the profile is exactly (2^b, 1^c) with b >= 1."""
        if tuple(v for v, _ in self.runs) == (2, 1):
            return self.runs[0][1], self.runs[1][1]
        return None


@dataclass(frozen=True)
class WaldschmidtFact:
    n: int
    profile: Profile
    bound: Fraction
    certificate: Certificate


def fact_from_certificate(cert: Certificate) -> WaldschmidtFact:
    """Read a Waldschmidt lower bound off a verified certificate.

    The claim must be scale-invariant in m: every multiplicity c_i*m and the
    degree p*m - 1.  Emptiness for all large m then forces the initial degree
    of the (q*m)-th symbolic power of the profile ideal to be at least p*m,
    hence a lower bound p/q in the limit, where q = gcd(c_i).
    """
    res = verify_certificate(cert)
    if not res:
        raise ValueError(f"certificate fails verification: {res.reason}")
    claim = cert.claim
    if claim.degree.intercept != -1 or claim.degree.slope <= 0:
        raise ValueError(f"claim degree {claim.degree} is not of the form p*m - 1")
    q = 0
    for run in claim.mults:
        if run.value.intercept != 0 or run.value.slope <= 0:
            raise ValueError(f"claim multiplicity {run.value} is not of the form c*m")
        q = gcd(q, run.value.slope)
    if q == 0:
        raise ValueError("claim has no points")
    profile = Profile.of((run.value.slope // q, run.count) for run in claim.mults)
    return WaldschmidtFact(claim.n, profile, Fraction(claim.degree.slope, q), cert)


def _certify(sys: FatPointSystem) -> Certificate:
    cert = prove_empty(sys)
    if cert is None:
        raise RuntimeError(f"catalog proof search failed on {sys}")
    return cert


# --- P^4 entries -----------------------------------------------------------


def eight_points_p4() -> Certificate:
    """(5m)^x8 at degree 8m-1: bound 8/5 for 8 simple points."""
    return _certify(FatPointSystem.build(4, (8, -1), [((5, 0), 8)]))


def mixed_points_p4() -> Certificate:
    """(20m)^x4 (10m)^x7 at degree 23m-1: bound 23/10 for profile (2^4, 1^7)."""
    return _certify(FatPointSystem.build(4, (23, -1), [((20, 0), 4), ((10, 0), 7)]))


def thirty_six_points_p4() -> Certificate:
    """(25m)^x36 at degree 51m-1, assembled by merging three sub-claims.

    The seed system (25m)^x4, 50m, (40m)^x2 reduces to a contradiction; two
    merges against the 8-point claim at degree 40m-1 absorb the 40m points,
    and a final merge against the 2^4-grid axiom at degree 50m-1 absorbs the
    50m point.
    """
    seed = _certify(
        FatPointSystem.build(4, (51, -1), [((25, 0), 4), ((50, 0), 1), ((40, 0), 2)])
    )
    eight = _certify(FatPointSystem.build(4, (40, -1), [((25, 0), 8)]))
    sixteen = evain_certificate(4, 2, (25, 0))
    merged = merge_empty(eight, seed)
    merged = merge_empty(eight, merged)
    return merge_empty(sixteen, merged)


# --- P^5 entry --------------------------------------------------------------


def mixed_points_p5() -> Certificate:
    """(20m)^x3 (10m)^x31 at degree 21m-1: bound 21/10 for profile (2^3, 1^31)."""
    return _certify(FatPointSystem.build(5, (21, -1), [((20, 0), 3), ((10, 0), 31)]))


# --- families in general dimension ------------------------------------------


def n_plus_four_points(n: int) -> Certificate:
    """n+4 points of multiplicity n(2n-1)/2 * m at degree ((n+2)(2n-1)/2+1)m - 1.

    Even n >= 6 only; yields the bound ((n+2)(2n-1)+2) / (n(2n-1)).
    """
    if n < 6 or n % 2:
        raise ValueError("the n+4 point family needs even n >= 6")
    q1 = (n * (2 * n - 1)) // 2
    p1 = ((n + 2) * (2 * n - 1)) // 2 + 1
    return _certify(FatPointSystem.build(n, (p1, -1), [((q1, 0), n + 4)]))


def aux_multiplier(n: int) -> int:
    """Smallest integer scale a making the two-weight reduction close."""
    if n < 5:
        raise ValueError("two-weight family needs n >= 5")
    if n % 2:
        num, den = n * n - 1, 2 * (n - 2)
    else:
        num, den = n + (n - 1) * (n // 2 + 1), n // 2 - 1
    return -(-num // den)


def _heavy_points(n: int) -> int:
    """y, the two-weight system's points of weight (n+2)*a*m: (n-1)//2 for odd
    n and (n-2)//2 for even n.  The block-points assembly merges once per point."""
    return (n - 1) // 2


def two_weight_system(n: int) -> FatPointSystem:
    """x points of weight n*a*m plus y points of weight (n+2)*a*m at degree
    ((n+3)a+1)m - 1, with x + (n+2)y = C(n+2,2) + 1."""
    a = aux_multiplier(n)
    x = n + 3 if n % 2 else 3 * n // 2 + 4
    y = _heavy_points(n)
    return FatPointSystem.build(
        n, ((n + 3) * a + 1, -1), [((n * a, 0), x), (((n + 2) * a, 0), y)]
    )


def two_weight_certificate(n: int) -> Certificate:
    return _certify(two_weight_system(n))


def block_points_certificate(n: int) -> Certificate:
    """(n*a*m)^x(C(n+2,2)+1) at degree ((n+3)a+1)m - 1.

    Merges the two-weight certificate with the n+2-point claim
    I((nam)^x(n+2))_{(n+2)am-1} = 0 once per heavy point; the result gives the
    bound ((n+3)a+1)/(na) > (n+3)/n for C(n+2,2)+1 simple points.
    """
    a = aux_multiplier(n)
    base = _certify(
        FatPointSystem.build(n, ((n + 2) * a, -1), [((n * a, 0), n + 2)])
    )
    cert = two_weight_certificate(n)
    for _ in range(_heavy_points(n)):
        cert = merge_empty(base, cert)
    expected = binomial(n + 2, 2) + 1
    if cert.claim.point_count != expected:
        raise RuntimeError(
            f"block assembly produced {cert.claim.point_count} points, expected {expected}"
        )
    return cert


@lru_cache(maxsize=None)
def catalog(n: int) -> tuple[WaldschmidtFact, ...]:
    """All shipped facts for ambient dimension n (possibly empty), without the
    block-points fact where its merges would nest past MAX_NESTING (P^65 on)."""
    certs: list[Certificate] = []
    if n == 4:
        certs = [eight_points_p4(), mixed_points_p4(), thirty_six_points_p4()]
    elif n == 5:
        certs = [mixed_points_p5(), block_points_certificate(5)]
    elif n >= 6:
        if n % 2 == 0:
            certs.append(n_plus_four_points(n))
        if 1 + _heavy_points(n) <= MAX_NESTING:
            certs.append(block_points_certificate(n))
    return tuple(fact_from_certificate(c) for c in certs)
