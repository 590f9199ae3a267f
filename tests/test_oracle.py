"""Monte Carlo dimension oracle: classical systems, rank kernels, configs."""

import random
from itertools import product
from math import comb

import numpy as np
import pytest

from fatpoints import oracle
from fatpoints.core import expected_dimension
from fatpoints.oracle import (
    DEFAULT_PRIME,
    FAST_PRIME,
    OracleConfig,
    OracleError,
    _conditions_matrix,
    _factor_strip,
    _is_prime,
    _limbs,
    _monomial_exponents,
    _reduce_mod,
    _strip_budget,
    _update_budget,
    alpha_symbolic_power,
    clear_alpha_floors,
    linear_system_dim,
    matrix_rank_mod,
    waldschmidt_upper_estimate,
)
from helpers import sysb

CFG = OracleConfig(seed=11)
FAST = OracleConfig(prime=FAST_PRIME, seed=11)
# one-limb prime, and two two-limb primes just below 2^31
RANK_PRIMES = (FAST_PRIME, DEFAULT_PRIME, 2147483629)
# the largest prime with 64 p^2 < 2^53, whose kernel still takes one limb
LAST_ONE_LIMB_PRIME = next(p for p in range(11863283, 0, -2) if _is_prime(p))


def test_classical_plane_systems():
    assert linear_system_dim(2, 2, [1] * 5, CFG).dimension == 1  # the unique conic
    assert linear_system_dim(2, 1, [1, 1], CFG).dimension == 1  # the line
    assert linear_system_dim(2, 3, [2] * 4, CFG).dimension == 0
    assert linear_system_dim(2, 0, [], CFG).dimension == 1  # constants


def test_doubled_conic_is_special():
    report = linear_system_dim(2, 4, [2] * 5, CFG)
    assert report.dimension == 1
    assert expected_dimension(sysb(2, 4, (2, 5)), 1) == 0


def test_alpha_examples():
    assert alpha_symbolic_power(2, 5, 1, CFG) == 2
    assert alpha_symbolic_power(2, 5, 2, CFG) == 4
    for m in (1, 2, 3):
        assert alpha_symbolic_power(3, 1, m, CFG) == m  # one point: order m needs degree m
    # 2^n-grid behavior: multiplicity m forces degree 2m
    for m in (1, 2, 3):
        assert alpha_symbolic_power(2, 4, m, CFG) == 2 * m


def test_upper_estimates():
    assert waldschmidt_upper_estimate(2, 5, 2, CFG) == 2
    assert waldschmidt_upper_estimate(2, 4, 2, CFG) == 2
    assert waldschmidt_upper_estimate(3, 1, 3, CFG) == 1
    assert waldschmidt_upper_estimate(2, 2, 3, CFG) == 1  # the line through 2 points


def test_dimension_never_below_virtual():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 4))
        d = int(rng.integers(1, 7))
        count = int(rng.integers(1, 5))
        mults = [int(rng.integers(1, 4)) for _ in range(count)]
        report = linear_system_dim(n, d, mults, FAST)
        virtual = expected_dimension(sysb(n, d, *((m, 1) for m in mults)), 1)
        assert report.dimension >= virtual


def test_zero_multiplicities_are_inert():
    a = linear_system_dim(2, 3, [2, 1], CFG)
    b = linear_system_dim(2, 3, [2, 1, 0, 0], CFG)
    assert a.dimension == b.dimension


def test_dropping_eventually_nonpositive_run_is_safe():
    # instantiate clamps the -m-3 run to 0; the point imposes no condition
    sys_full = sysb(2, (3, 0), ((2, 0), 1), ((1, 0), 1), ((-1, -3), 1))
    for m in (1, 2):
        degree, mults = sys_full.instantiate(m)
        assert mults[-1] == 0
        assert (
            linear_system_dim(2, degree, mults, CFG).dimension
            == linear_system_dim(2, degree, mults[:-1], CFG).dimension
        )


def test_reproducibility():
    a = linear_system_dim(3, 4, [2, 2, 1], CFG)
    b = linear_system_dim(3, 4, [2, 2, 1], CFG)
    assert a == b
    c = linear_system_dim(3, 4, [2, 2, 1], OracleConfig(seed=12))
    assert c.dims != a.dims or c.dimension == a.dimension  # different stream, same truth


def test_report_shape():
    report = linear_system_dim(2, 4, [2] * 5, CFG)
    data = report.to_dict()
    assert data["system"] == {"N": 2, "degree": [0, 4], "mults": [[0, 2, 5]]}
    assert data["p"] == CFG.prime and data["trials"] == 3 and data["seed"] == 11
    assert data["dims"] == [1, 1, 1] and data["dimension"] == 1


def test_config_validation():
    with pytest.raises(OracleError):
        OracleConfig(prime=91)  # 7 * 13
    with pytest.raises(OracleError):
        OracleConfig(trials=0)
    with pytest.raises(OracleError):
        linear_system_dim(2, 40, [1], OracleConfig(prime=37))  # p <= d
    with pytest.raises(ValueError):
        linear_system_dim(2, -1, [1], CFG)
    with pytest.raises(ValueError):
        linear_system_dim(2, 2, [1, -2], CFG)


def test_prime_check_is_exact():
    sieve = [True] * 5001
    for q in range(2, 71):
        sieve[q * q :: q] = [False] * len(sieve[q * q :: q])
    assert [n for n in range(3, 5001) if _is_prime(n)] == [n for n in range(3, 5001) if sieve[n]]
    # primes just below 2^31 and the one-limb limit, and odd composites by them
    assert _is_prime(DEFAULT_PRIME) and _is_prime(2147483629) and _is_prime(11863279)
    assert not any(_is_prime(n) for n in (DEFAULT_PRIME - 2, 2147483631, 11863281, 46337**2))


def test_primes_beyond_the_kernel_are_rejected():
    assert OracleConfig(prime=DEFAULT_PRIME).prime == (1 << 31) - 1
    for prime in (4294967311, 2305843009213693951):  # primes above 2^31
        with pytest.raises(OracleError, match="2\\^31"):
            OracleConfig(prime=prime)
    with pytest.raises(OracleError):
        matrix_rank_mod(np.eye(3, dtype=np.int64), 4294967311)


def reference_rank(a, p):
    """Gaussian elimination on Python ints mod p."""
    rows = [[int(x) % p for x in row] for row in a.tolist()]
    rank = 0
    for j in range(a.shape[1]):
        piv = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][j], -1, p)
        prow = [x * inv % p for x in rows[rank]]
        rows[rank] = prow
        for i in range(rank + 1, len(rows)):
            f = rows[i][j]
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], prow)]
        rank += 1
    return rank


def random_low_rank(rng, rows, cols, inner, p):
    left = rng.integers(0, p, size=(rows, inner)).astype(object)
    right = rng.integers(0, p, size=(inner, cols)).astype(object)
    return (left @ right % p).astype(np.int64)


def test_rank_kernels_agree():
    rng = np.random.default_rng(5)
    for p in RANK_PRIMES:
        for _ in range(8):
            rows = int(rng.integers(3, 140))
            cols = int(rng.integers(3, 140))
            inner = int(rng.integers(1, min(rows, cols) + 1))
            a = random_low_rank(rng, rows, cols, inner, p)
            assert matrix_rank_mod(a, p) == reference_rank(a, p) <= inner
        # several panels with pivots and several trailing-update column chunks
        a = random_low_rank(rng, 110, 600, 90, p)
        assert matrix_rank_mod(a, p) == reference_rank(a, p) == 90


def test_rank_at_the_float64_exactness_bound():
    # 64 identity pivot rows over entries p - 1, then rows whose 64 panel
    # multipliers all have low limb 2^16 - 1: every low-limb panel product is
    # 64 * (2^16 - 1) * (p - 1), just below 2^53 for the two-limb primes
    rng = np.random.default_rng(8)
    for p in RANK_PRIMES:
        extra_rows, extra_cols = 16, 400
        top = np.hstack(
            [np.eye(64, dtype=np.int64), np.full((64, extra_cols), p - 1, dtype=np.int64)]
        )
        mults = (rng.integers(0, p >> 16, size=(extra_rows, 64)) << 16) | 0xFFFF
        mults[0, :] = ((p >> 16) << 16) - 1  # the largest such multiplier below p
        assert (mults < p).all()
        # the trailing rows equal their eliminated value: rank stays 64
        tail = (mults.astype(object) @ top[:, 64:].astype(object) % p).astype(np.int64)
        a = np.vstack([top, np.hstack([mults, tail])])
        assert matrix_rank_mod(a, p) == reference_rank(a, p) == 64
        # a random tail leaves a full-rank residual
        a[64:, 64:] = rng.integers(0, p, size=(extra_rows, extra_cols))
        assert matrix_rank_mod(a, p) == reference_rank(a, p) == 64 + extra_rows


def test_reduce_mod_matches_python_mod():
    rng = np.random.default_rng(29)
    top = (1 << 53) - 1
    for p in RANK_PRIMES + (3, 65521):
        edge = [0, 1, p - 1, p, top]
        for k in (1, 2, 3, 1000, (top - 1) // p):
            edge += [k * p - 1, k * p + 1]
        values = [sign * v for v in edge for sign in (1, -1)]
        values += rng.integers(-top, top, size=4000, endpoint=True).tolist()
        # within a few p of +-2^53, where q*p itself need not be a float64
        values += [sign * int(v) for v in rng.integers(top - 4 * p, top, size=500, endpoint=True)
                   for sign in (1, -1)]
        want = [v % p for v in values]
        x = np.array(values, dtype=np.float64)
        assert x.astype(np.int64).tolist() == values  # every value is exact
        assert _reduce_mod(x.copy(), p).astype(np.int64).tolist() == want
        # in place on a strided column
        block = np.zeros((x.size, 3))
        block[:, 1] = x
        _reduce_mod(block[:, 1], p)
        assert block[:, 1].astype(np.int64).tolist() == want
        assert not block[:, [0, 2]].any()


def test_limbs_split_residues_exactly():
    rng = np.random.default_rng(31)
    for p in RANK_PRIMES:
        values = [0, 1, (1 << 16) - 1, 1 << 16, p - 1]
        values += rng.integers(0, p, size=2000).tolist()
        f = np.array(values, dtype=np.float64)
        hi, lo = _limbs(f.copy(), True)
        assert (hi.astype(np.int64) * (1 << 16) + lo.astype(np.int64)).tolist() == values
        assert (hi == np.floor(hi)).all() and (lo == np.floor(lo)).all()
        assert (0 <= lo).all() and (lo < 1 << 16).all()
        assert (0 <= hi).all() and (hi < 1 << 15).all()
        assert _limbs(f, False)[0] is f


def test_update_budget_is_the_largest_that_fits():
    for p in RANK_PRIMES + (3, 65521, LAST_ONE_LIMB_PRIME):
        two_limbs, bound, budget = _update_budget(p)
        assert two_limbs == (64 * p * p >= 1 << 53)
        assert bound == (p * (1 << 16) + p if two_limbs else 64 * p * p)
        assert budget >= 1
        assert p + budget * bound < 1 << 53 <= p + (budget + 1) * bound
    assert not _update_budget(LAST_ONE_LIMB_PRIME)[0]
    assert _update_budget(DEFAULT_PRIME)[2] == 63 and _update_budget(FAST_PRIME)[2] == 2


def exact_product_mod(left, right, p):
    """left @ right mod p for residues below 2^31, from 16-bit limbs of both
    factors: each limb product sums inner terms below 2^32, under 2^53 for
    inner < 2^21, so float64 matmul is exact; the limbs recombine in int64."""
    ll, rl = (left & 0xFFFF).astype(np.float64), (right & 0xFFFF).astype(np.float64)
    lh, rh = (left >> 16).astype(np.float64), (right >> 16).astype(np.float64)

    def prod(a, b):
        return (a @ b).astype(np.int64) % p

    high = prod(lh, rh) * ((1 << 32) % p) % p
    mid = (prod(lh, rl) + prod(ll, rh)) * (1 << 16) % p
    return (high + mid + prod(ll, rl)) % p


def rank_by_construction(rng, rows, cols, rank, p, pivots=None):
    """P (L U) Q mod p with L rows x rank, U rank x cols: L has a unit lower
    triangular top block, U a unit upper triangular left block, both random
    elsewhere, so both have full rank and their product has rank `rank`.

    Given `pivots`, `rank` ascending columns, U is in row echelon form with
    its leading 1s in those columns and Q is the identity: elimination in
    column order, with row swaps, finds its pivots in exactly those columns."""
    left = rng.integers(0, p, size=(rows, rank))
    left[:rank] = np.tril(left[:rank], -1) + np.eye(rank, dtype=np.int64)
    right = rng.integers(0, p, size=(rank, cols))
    if pivots is None:
        right[:, :rank] = np.triu(right[:, :rank], 1) + np.eye(rank, dtype=np.int64)
    else:
        right[np.arange(cols) < np.array(pivots)[:, None]] = 0
        right[np.arange(rank), pivots] = 1
    a = exact_product_mod(left, right, p)[rng.permutation(rows)]
    return a if pivots is not None else a[:, rng.permutation(cols)]


def test_multi_panel_ranks_known_by_construction():
    # 10 to 15 panels, so dozens of delayed updates between whole-block
    # reductions, with pivotless columns wherever the rank falls short
    rng = np.random.default_rng(41)
    shapes = [(700, 700, 700), (700, 700, 650), (700, 700, 600),
              (960, 640, 600), (640, 960, 600)]
    for p in (DEFAULT_PRIME, 2147483629):
        for rows, cols, rank in shapes:
            a = rank_by_construction(rng, rows, cols, rank, p)
            assert matrix_rank_mod(a, p) == rank, (p, rows, cols, rank)
    # one limb, whose budgets of 2 and 1 reduce the whole block after every
    # other trailing update and after every one
    for p in (FAST_PRIME, LAST_ONE_LIMB_PRIME):
        a = rank_by_construction(rng, 700, 700, 650, p)
        assert matrix_rank_mod(a, p) == 650, p


def test_rank_past_the_update_budget():
    # one pivot per panel: the pivot of row i sits in column 64 i, so each
    # panel is one delayed update.  130 of them pass the budget of 63 at
    # 2^31 - 1 twice; without the whole-block reductions, the entries pass
    # 2^53 and the rank comes out wrong
    rng = np.random.default_rng(43)
    p, panels = DEFAULT_PRIME, 130
    assert _update_budget(p)[2] < panels
    right = rng.integers(0, p, size=(panels, 64 * panels))
    right[np.arange(64 * panels) < 64 * np.arange(panels)[:, None]] = 0
    right[np.arange(panels), 64 * np.arange(panels)] = 1
    left = rng.integers(0, p, size=(panels + 4, panels))
    left[:panels] = np.tril(left[:panels], -1) + np.eye(panels, dtype=np.int64)
    a = exact_product_mod(left, right, p)[rng.permutation(panels + 4)]
    assert matrix_rank_mod(a, p) == panels


def assert_column_rank_profile(a, p, pivots):
    """The rank of every leading column block is the number of pivots in it,
    at each strip and half boundary of every panel."""
    for c in range(1, a.shape[1] + 1):
        if c % 16 in (0, 1, 15) or c == a.shape[1]:
            assert matrix_rank_mod(a[:, :c], p) == sum(x < c for x in pivots), (p, c)


def test_pivotless_columns_at_strip_and_half_boundaries():
    # columns 15/16, 31/32 and 47/48 of both panels take no pivot: each is a
    # combination of the columns before it, so it is not zero
    rng = np.random.default_rng(53)
    skip = {15, 16, 31, 32, 47, 48}
    pivots = [c for c in range(128) if c % 64 not in skip]
    for p in RANK_PRIMES:
        a = rank_by_construction(rng, 120, 128, len(pivots), p, pivots)
        assert matrix_rank_mod(a, p) == reference_rank(a, p) == len(pivots)
        assert_column_rank_profile(a, p, pivots)


def test_left_halves_without_a_pivot():
    # the first panel's left half is zero, and the second panel's left half
    # (columns 64..95) lies in the span of the columns before it
    rng = np.random.default_rng(59)
    for p in RANK_PRIMES:
        pivots = list(range(32, 64)) + list(range(96, 140))
        a = rank_by_construction(rng, 90, 140, len(pivots), p, pivots)
        assert not a[:, :32].any() and a[:, 64:96].any()
        assert matrix_rank_mod(a, p) == reference_rank(a, p) == len(pivots)
        assert_column_rank_profile(a, p, pivots)


def test_rows_run_out_inside_a_left_half():
    # full row rank: the second panel has 20 rows left in the first matrix
    # and 10 in the second, and the third matrix has fewer rows than a strip
    rng = np.random.default_rng(61)
    for p in RANK_PRIMES:
        for rows, cols in ((84, 150), (74, 200), (12, 70)):
            a = rank_by_construction(rng, rows, cols, rows, p)
            assert matrix_rank_mod(a, p) == reference_rank(a, p) == rows, (p, rows)


def test_row_swaps_inside_a_right_half():
    # row t is replaced by a combination of the rows above it, so it is zero
    # once their pivots are applied and a later row is swapped in for pivot
    # t: in the right strip of the left half (t = 20), in the right half's
    # left strip (t = 40) and in its right strip (t = 52, 53)
    rng = np.random.default_rng(67)
    for p in RANK_PRIMES:
        a = rank_by_construction(rng, 100, 90, 80, p, list(range(80)))
        for t in (20, 40, 52, 53):
            coef = rng.integers(0, p, size=(1, t))
            a[t] = exact_product_mod(coef, a[:t], p)[0]
        assert matrix_rank_mod(a, p) == reference_rank(a, p) == 80
        assert_column_rank_profile(a, p, list(range(80)))


def test_rank_at_the_exactness_bound_of_a_half():
    # 32 identity pivot rows over entries p - 1, then rows whose 32
    # multipliers all have low limb 2^16 - 1: the left half's update of the
    # right half takes the largest low-limb products of its 32 terms
    rng = np.random.default_rng(71)
    for p in RANK_PRIMES:
        extra_rows, extra_cols = 16, 64
        top = np.hstack(
            [np.eye(32, dtype=np.int64), np.full((32, extra_cols), p - 1, dtype=np.int64)]
        )
        mults = (rng.integers(0, p >> 16, size=(extra_rows, 32)) << 16) | 0xFFFF
        mults[0, :] = ((p >> 16) << 16) - 1
        assert (mults < p).all()
        tail = (mults.astype(object) @ top[:, 32:].astype(object) % p).astype(np.int64)
        a = np.vstack([top, np.hstack([mults, tail])])
        assert matrix_rank_mod(a, p) == reference_rank(a, p) == 32
        a[32:, 32:] = rng.integers(0, p, size=(extra_rows, extra_cols))
        assert matrix_rank_mod(a, p) == reference_rank(a, p) == 32 + extra_rows


def test_strip_steps_at_the_int64_budget():
    # L has -1 below its unit diagonal and U -1 right of it, so every pivot
    # is 1, every multiplier and scaled pivot row entry p - 1, and every
    # strip step subtracts (p - 1)^2: two unreduced steps reach about
    # -2 (p - 1)^2, the budget at the two primes near 2^31, and one more
    # would pass -2^63.  In the rank-24 matrices columns 24..30 take no
    # pivot, and the rows below are multiples of p there until reduced
    for p in RANK_PRIMES:
        assert _strip_budget(p) == (2 if p > FAST_PRIME else 131328)
        for rows, cols, rank in ((40, 31, 31), (40, 31, 24), (70, 64, 64)):
            left = np.tril(np.full((rows, rank), p - 1, dtype=np.int64), -1)
            left[np.arange(rank), np.arange(rank)] = 1
            right = np.triu(np.full((rank, cols), p - 1, dtype=np.int64), 1)
            right[np.arange(rank), np.arange(rank)] = 1
            a = exact_product_mod(left, right, p)
            assert matrix_rank_mod(a, p) == reference_rank(a, p) == rank, (p, rows, cols)
            # the strip writes back residues, with no reduction at its end
            m = a.astype(np.float64)
            assert len(_factor_strip(m, 0, 0, cols, p)[0]) == rank
            assert ((0 <= m) & (m < p)).all(), (p, rows, cols)


def test_quadric_through_nine_points_is_special():
    # Q^8 for the quadric Q through 9 general points of P^3: degree 16 with
    # nine points of multiplicity 8 has virtual dimension -111, but holds Q^8
    assert comb(16 + 3, 3) - 9 * comb(8 + 2, 3) == -111
    assert expected_dimension(sysb(3, 16, (8, 9)), 1) == 0
    for config in (CFG, FAST):
        report = linear_system_dim(3, 16, [8] * 9, config)
        assert report.dims == (1, 1, 1)


def reference_point_rows(point, mult, d, p):
    """Order-< mult derivative rows of one point, one entry at a time."""
    n = len(point)
    monomials = [e for e in product(range(d + 1), repeat=n) if sum(e) <= d]
    orders = [b for b in product(range(mult), repeat=n) if sum(b) <= mult - 1]
    rows = []
    for beta in orders:
        row = []
        for e in monomials:
            value = 0
            if sum(beta) <= d and all(ej >= bj for ej, bj in zip(e, beta)):
                value = 1
                for x, ej, bj in zip(point, e, beta):
                    for k in range(bj):
                        value *= ej - k
                    value *= pow(x, ej - bj, p)
            row.append(value % p)
        rows.append(row)
    return rows, monomials


def test_conditions_matrix_matches_per_point_rows():
    rng = np.random.default_rng(17)
    cases = [
        (2, 0, [1, 3, 2]),  # d = 0: only the value rows survive
        (3, 2, [4, 1]),  # m - 1 > d: zero rows for the higher orders
        (2, 4, [2, 1, 2, 3, 1]),  # mixed, interleaved multiplicities
    ]
    for _ in range(12):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(0, 6))
        count = int(rng.integers(1, 6))
        cases.append((n, d, [int(rng.integers(1, 5)) for _ in range(count)]))
    for n, d, mults in cases:
        p = DEFAULT_PRIME
        points = rng.integers(0, p, size=(len(mults), n))
        expected = []
        for point, mult in zip(points.tolist(), mults):
            rows, monomials = reference_point_rows(point, mult, d, p)
            expected.extend(rows)
        exps = _monomial_exponents(n, d)
        assert exps.tolist() == [list(e) for e in monomials]
        got = _conditions_matrix(exps, points, mults, d, p)
        assert got.tolist() == expected, (n, d, mults)


def test_rank_of_structured_matrices():
    eye = np.eye(7, dtype=np.int64) * 5
    assert matrix_rank_mod(eye, FAST_PRIME) == 7
    assert matrix_rank_mod(np.zeros((4, 9), dtype=np.int64), FAST_PRIME) == 0
    # scalar multiples of p vanish mod p
    assert matrix_rank_mod(eye * FAST_PRIME, FAST_PRIME) == 0


def test_certified_claims_vanish_at_small_parameters():
    # emptiness proofs found by the search are confirmed by the oracle at the
    # first few parameter values
    from fatpoints.reduction import prove_empty

    small = [
        sysb(2, (2, -1), ((2, 0), 2)),
        sysb(2, (3, -1), ((3, 0), 2)),
        sysb(2, (3, -1), ((2, 0), 4)),
        sysb(3, (3, -1), ((2, 0), 8)),
    ]
    for system in small:
        cert = prove_empty(system)
        assert cert is not None and cert.m0 == 1
        for m in range(cert.m0, cert.m0 + 3):
            degree, mults = system.instantiate(m)
            assert linear_system_dim(system.n, degree, mults, CFG).dimension == 0, (
                str(system),
                m,
            )


def framefree_dims(n, d, mults, config):
    """Per-trial dimensions with every point sampled at random: the rows of
    all points over all monomials, and their rank."""
    active = [m for m in mults if m > 0]
    exps = _monomial_exponents(n, d)
    dims = []
    for trial in range(config.trials):
        rng = np.random.default_rng([config.seed, trial])
        rank = 0
        if active:
            points = rng.integers(0, config.prime, size=(len(active), n))
            matrix = _conditions_matrix(exps, points, active, d, config.prime)
            rank = matrix_rank_mod(matrix, config.prime)
        dims.append(exps.shape[0] - rank)
    return tuple(dims)


def test_frame_matches_a_framefree_reference(monkeypatch):
    sampled = []

    def spy(exps, points, mults, d, p):
        sampled.append(list(mults))
        return _conditions_matrix(exps, points, mults, d, p)

    monkeypatch.setattr(oracle, "_conditions_matrix", spy)
    cases = [
        (3, 4, [2, 1]),  # fewer than n+1 points: no random point at all
        (2, 3, [1, 5, 1, 2]),  # m > d: no column survives
        (2, 4, [3, 3, 2, 1, 1, 1]),  # overlapping frame supports, 3 + 3 > 4
        (2, 2, [2, 2, 2]),  # e_0, e_1 <= 0 and |e| >= 2: no surviving column
        (3, 3, [0, 2, 0, 1, 1, 1, 1, 0]),  # zero multiplicities
        (2, 6, [1, 3, 1, 2, 3, 1, 2]),  # mixed: the frame takes 3, 3, 2
        (3, 5, [1, 1, 1, 1, 1, 3, 2]),  # mixed: the frame takes 3, 2, 1, 1
        (5, 3, [1] * 9),
    ]
    rng = np.random.default_rng(23)
    max_degree = {2: 9, 3: 6, 4: 5, 5: 4}
    for _ in range(24):
        n = int(rng.integers(2, 6))
        count = int(rng.integers(0, n + 6))
        d = int(rng.integers(0, max_degree[n] + 1))
        cases.append((n, d, [int(rng.integers(0, 6)) for _ in range(count)]))
    for i, (n, d, mults) in enumerate(cases):
        for prime in (FAST_PRIME, DEFAULT_PRIME):
            config = OracleConfig(prime=prime, trials=2, seed=i)
            sampled.clear()
            report = linear_system_dim(n, d, mults, config)
            assert report.dims == framefree_dims(n, d, mults, config), (n, d, mults)
            # only the points after the n+1 heaviest get rows
            rest = sorted((m for m in mults if m > 0), reverse=True)[n + 1 :]
            assert all(got == rest for got in sampled), (n, d, mults, sampled)


def scan_calls(monkeypatch):
    """Count the linear_system_dim calls the alpha scan makes."""
    calls = []

    def counted(*args):
        calls.append(args[:3])
        return linear_system_dim(*args)

    monkeypatch.setattr(oracle, "linear_system_dim", counted)
    return calls


def test_alpha_floors_match_a_floorfree_scan(monkeypatch):
    calls = scan_calls(monkeypatch)
    configs = (OracleConfig(prime=FAST_PRIME, trials=3, seed=77), OracleConfig(trials=2, seed=5))
    queries = [(cfg, n, s, m) for cfg in configs for n in (2, 3)
               for m in (1, 2, 3) for s in range(1, 13)]
    expected, floorfree_calls = {}, {}
    for q in queries:
        clear_alpha_floors()
        calls.clear()
        expected[q] = alpha_symbolic_power(q[1], q[2], q[3], q[0])
        floorfree_calls[q] = len(calls)
    shuffled = list(queries)
    random.Random(4).shuffle(shuffled)
    for order in (queries, queries[::-1], shuffled):
        clear_alpha_floors()
        for cfg, n, s, m in order:
            assert alpha_symbolic_power(n, s, m, cfg) == expected[cfg, n, s, m]
    # with every alpha recorded, a query starts from a smaller s's alpha...
    saved = 0
    for q in queries:
        calls.clear()
        alpha_symbolic_power(q[1], q[2], q[3], q[0])
        assert len(calls) <= floorfree_calls[q]
        saved += floorfree_calls[q] - len(calls)
    assert saved > 0
    # ...but never from its own: a repeated query redoes its work
    for q in queries:
        clear_alpha_floors()
        for _ in range(2):
            calls.clear()
            alpha_symbolic_power(q[1], q[2], q[3], q[0])
            assert len(calls) == floorfree_calls[q]


def test_alpha_confirmation_reuses_the_probe(monkeypatch):
    # a positive probe is trial 0 of the full count, so its confirmation
    # makes T - 1 rank calls, and the alpha is that of a full-count scan
    positive_probes, ranks = [], {"probe": 0, "confirmation": 0}
    caller = ["confirmation"]

    def probe(*args):
        caller[0] = "probe"
        report = linear_system_dim(*args)
        caller[0] = "confirmation"
        positive_probes.append(report.dimension > 0)
        return report

    def rank(a, p):
        ranks[caller[0]] += 1
        return matrix_rank_mod(a, p)

    monkeypatch.setattr(oracle, "linear_system_dim", probe)
    monkeypatch.setattr(oracle, "matrix_rank_mod", rank)
    for config in (OracleConfig(prime=FAST_PRIME, trials=3, seed=3),
                   OracleConfig(trials=4, seed=8)):
        for n, s, m in ((2, 5, 2), (2, 5, 3), (3, 9, 2)):
            clear_alpha_floors()
            positive_probes.clear()
            ranks.update(probe=0, confirmation=0)
            alpha = alpha_symbolic_power(n, s, m, config)
            assert ranks["probe"] > 0 and sum(positive_probes) >= 1
            assert ranks["confirmation"] == (config.trials - 1) * sum(positive_probes)
            full = next(d for d in range(m, alpha + 1)
                        if linear_system_dim(n, d, [m] * s, config).dimension > 0)
            assert full == alpha, (config, n, s, m)


def test_alpha_floor_record_stays_bounded(monkeypatch):
    clear_alpha_floors()
    for seed in range(oracle._FLOOR_KEYS + 5):
        alpha_symbolic_power(2, 1, 1, OracleConfig(prime=FAST_PRIME, trials=1, seed=seed))
    assert len(oracle._alpha_floors) == oracle._FLOOR_KEYS
    config = OracleConfig(prime=FAST_PRIME, trials=1, seed=0)
    for s in range(1, 30):
        alpha = alpha_symbolic_power(2, s, 1, config)
    assert len(oracle._alpha_floors) == oracle._FLOOR_KEYS
    # one (s, alpha) per key: its latest query's
    assert oracle._alpha_floors[2, 1, config] == (29, alpha)
    assert {len(record) for record in oracle._alpha_floors.values()} == {2}
    clear_alpha_floors()
    assert not oracle._alpha_floors


def full_count_scan(n, s, m, config):
    """alpha from d = m up, every degree decided by all trials at once."""
    conditions = s * comb(m + n - 1, n)
    return next(d for d in range(m, config.prime)
                if comb(d + n, n) > conditions
                or linear_system_dim(n, d, [m] * s, config).dimension > 0)


def test_alpha_ceiling_matches_a_full_scan(monkeypatch):
    # m ascending at each s, as waldschmidt_upper_estimate asks: by the time
    # (s, m) is asked, every a < m is recorded at s and gives a ceiling
    calls = scan_calls(monkeypatch)
    configs = (OracleConfig(prime=FAST_PRIME, trials=3, seed=77), OracleConfig(trials=2, seed=5))
    decided = ceiling_calls = cleared_calls = 0
    for cfg in configs:
        for n in (2, 3, 4):
            clear_alpha_floors()
            alpha = {}
            for s in range(1, 13):
                for m in range(1, 5):
                    calls.clear()
                    alpha[s, m] = alpha_symbolic_power(n, s, m, cfg)
                    ceiling_calls += len(calls)
                    assert alpha[s, m] == full_count_scan(n, s, m, cfg), (cfg, n, s, m)
                    ceiling = min((alpha[s, a] + alpha[s, m - a] for a in range(1, m)),
                                  default=None)
                    if ceiling is not None:
                        assert all(d < ceiling for _, d, _ in calls), (cfg, n, s, m)
                        decided += alpha[s, m] == ceiling
    for cfg in configs:
        for n in (2, 3, 4):
            for s in range(1, 13):
                for m in range(1, 5):
                    clear_alpha_floors()
                    calls.clear()
                    alpha_symbolic_power(n, s, m, cfg)
                    cleared_calls += len(calls)
    assert decided > 0
    assert ceiling_calls < cleared_calls
    # a ceiling at the prime (alpha(1) + alpha(3) = 2 + 5 at p = 7) is not used:
    # the scan tests degrees 4..6, reaches 7 and raises, as a full scan does
    config = OracleConfig(prime=7, trials=1, seed=1)
    clear_alpha_floors()
    assert [alpha_symbolic_power(3, 6, m, config) for m in (1, 2, 3)] == [2, 4, 5]
    with pytest.raises(OracleError, match="must exceed the degree 7"):
        alpha_symbolic_power(3, 6, 4, config)
