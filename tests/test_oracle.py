"""Monte Carlo dimension oracle: classical systems, rank kernels, configs."""

import random
import tracemalloc
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
    _column_halves,
    _conditions_matrix,
    _distinct_rows,
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
# the largest prime with 64 (p//2)^2 < 2^51, whose kernel still takes one limb
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


def assert_rank_contract(a, p, rank):
    """matrix_rank_mod leaves an int64 matrix as it is, and eliminates a
    float64 one in place, in [0, p) or centered, to the same rank."""
    before = a.copy()
    assert matrix_rank_mod(a, p) == rank
    assert a.dtype == np.int64 and (a == before).all()
    for f in (a.astype(np.float64), _reduce_mod(a.astype(np.float64), p)):
        given = f.copy()
        assert matrix_rank_mod(f, p) == rank
        assert (f != given).any()


def test_rank_kernels_agree():
    rng = np.random.default_rng(5)
    for p in RANK_PRIMES:
        for _ in range(8):
            rows = int(rng.integers(3, 140))
            cols = int(rng.integers(3, 140))
            inner = int(rng.integers(1, min(rows, cols) + 1))
            a = random_low_rank(rng, rows, cols, inner, p)
            rank = reference_rank(a, p)
            assert rank <= inner
            assert_rank_contract(a, p, rank)
        # several panels with pivots and several trailing-update column chunks
        a = random_low_rank(rng, 110, 600, 90, p)
        assert reference_rank(a, p) == 90
        assert_rank_contract(a, p, 90)


def test_float64_rank_input_is_bounded():
    # float64 input is eliminated as it is, so it must be exact integers
    # below 2^51: the edge itself ranks, one past it or a NaN raises
    top = (1 << 51) - 1
    a = np.array([[top, 1, 0], [1, -top, 3]], dtype=np.int64)
    for p in RANK_PRIMES:
        assert matrix_rank_mod(a.astype(np.float64), p) == reference_rank(a, p) == 2
    for bad in (2.0**51, -(2.0**51), np.nan):
        f = a.astype(np.float64)
        f[1, 2] = bad
        with pytest.raises(OracleError, match="2\\^51"):
            matrix_rank_mod(f, FAST_PRIME)
    assert matrix_rank_mod(np.zeros((0, 4)), FAST_PRIME) == 0


def test_rank_at_the_float64_exactness_bound():
    # 64 identity pivot rows over entries h = p // 2, then rows whose 64 panel
    # multipliers are 2^15 above a multiple of 2^17, so that their limbs are
    # an even hi and lo = 2^15: every low-limb panel product is 64 * 2^15 * h,
    # just below 2^51 for the two-limb primes
    rng = np.random.default_rng(8)
    for p in RANK_PRIMES:
        extra_rows, extra_cols, h = 16, 400, p // 2
        top = np.hstack(
            [np.eye(64, dtype=np.int64), np.full((64, extra_cols), h, dtype=np.int64)]
        )
        largest = (h - (1 << 15)) >> 17
        mults = (rng.integers(0, largest, size=(extra_rows, 64)) << 17) | (1 << 15)
        mults[0, :] = (largest << 17) | (1 << 15)  # the largest such multiplier up to h
        assert (mults <= h).all()
        # the trailing rows equal their eliminated value: rank stays 64
        tail = (mults.astype(object) @ top[:, 64:].astype(object) % p).astype(np.int64)
        a = np.vstack([top, np.hstack([mults, tail])])
        assert matrix_rank_mod(a, p) == reference_rank(a, p) == 64
        # a random tail leaves a full-rank residual
        a[64:, 64:] = rng.integers(0, p, size=(extra_rows, extra_cols))
        assert matrix_rank_mod(a, p) == reference_rank(a, p) == 64 + extra_rows


def centered(v, p):
    """The residue of v mod p in [-(p // 2), p // 2]."""
    r = v % p
    return r - p if r > p // 2 else r


def test_reduce_mod_matches_python_mod():
    rng = np.random.default_rng(29)
    top = (1 << 51) - 1
    for p in RANK_PRIMES + (2, 3, 5, 7, 65521, LAST_ONE_LIMB_PRIME):
        h = p // 2
        edge = [0, 1, h, h + 1, p - 1, p, top]
        # k p + h and k p + h + 1 put x / p next to a half-integer
        for k in (1, 2, 3, 1000, (top - p) // p, top // p - 1):
            edge += [k * p - 1, k * p + 1, k * p + h, k * p + h + 1]
        values = [sign * v for v in edge for sign in (1, -1)]
        values += rng.integers(-top, top, size=4000, endpoint=True).tolist()
        # within a few p of +-2^51
        values += [sign * int(v) for v in rng.integers(top - 4 * p, top, size=500, endpoint=True)
                   for sign in (1, -1)]
        assert max(map(abs, values)) == top
        x = np.array(values, dtype=np.float64)
        assert x.astype(np.int64).tolist() == values  # every value is exact
        got = _reduce_mod(x.copy(), p).astype(np.int64).tolist()
        if p == 2:  # an odd v is a tie: v - 2q for q = v / 2 rounded to even
            assert got == [v - 2 * round(v / 2) for v in values]
            assert {r for r, v in zip(got, values) if v % 2} == {-1, 1}
        else:
            assert got == [centered(v, p) for v in values]
        # in place on a strided column
        block = np.zeros((x.size, 3))
        block[:, 1] = x
        _reduce_mod(block[:, 1], p)
        assert block[:, 1].astype(np.int64).tolist() == got
        assert not block[:, [0, 2]].any()


def test_limbs_split_residues_exactly():
    rng = np.random.default_rng(31)
    for p in RANK_PRIMES:
        h = p // 2
        # residues in (-p, p), as the strips leave them, and limb edges: 2^15
        # and 3 * 2^15 round to the even hi, 0 and 2, so lo is 2^15 and -2^15
        values = [0, 1, -1, 1 << 15, 3 << 15, (1 << 16) - 1, h, -h, h + 1, -h - 1,
                  p - 1, 1 - p, 2**40 + 7]
        values += rng.integers(1 - p, p, size=2000).tolist()
        want = [centered(v, p) for v in values]
        f = np.array(values, dtype=np.float64)
        hi, lo = _limbs(f.copy(), p, True)
        assert (hi.astype(np.int64) * (1 << 16) + lo.astype(np.int64)).tolist() == want
        assert (hi == np.rint(hi)).all() and (lo == np.rint(lo)).all()
        assert np.abs(lo).max() == 1 << 15 and np.abs(hi).max() <= 1 << 14
        if p == DEFAULT_PRIME:  # rint(h / 2^16) = 2^14 is reached
            assert np.abs(hi).max() == 1 << 14
        one = f.copy()
        assert _limbs(one, p, False)[0] is one
        assert one.astype(np.int64).tolist() == want


def test_update_budget_is_the_largest_that_fits():
    for p in RANK_PRIMES + (2, 3, 65521, LAST_ONE_LIMB_PRIME, 11863283, 11863285):
        h = p // 2
        two_limbs, bound, budget = _update_budget(p)
        assert two_limbs == (64 * h * h >= 1 << 51)
        assert bound == (h * (1 << 16) + h if two_limbs else 64 * h * h)
        assert budget >= 1
        assert h + budget * bound < 1 << 51 <= h + (budget + 1) * bound
    # one limb up to 11863283, as with 64 p^2 < 2^53
    assert not _update_budget(11863283)[0] and _update_budget(11863285)[0]
    assert [_update_budget(p)[2] for p in RANK_PRIMES + (LAST_ONE_LIMB_PRIME,)] == [2, 31, 31, 1]


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


def budget_edge_matrix(p, panels, width, mult, top, start, extra_rows=3, last=5):
    """Pivot rows with a unit block in the first `width` columns of each of
    `panels` panels and `top` in the `last` columns, then rows with `mult`
    in every pivot column and `start` in the last columns.  Elimination
    keeps the pivot rows as they are, the multipliers are `mult`, and each
    panel's update subtracts `width` products mult * top from the last
    columns of the rows below; those rows end up equal, so the rank is the
    pivot count, plus 1 unless that residual is 0."""
    pivots = (64 * np.arange(panels)[:, None] + np.arange(width)).ravel()
    a = np.zeros((pivots.size + extra_rows, 64 * panels + last), dtype=np.int64)
    a[np.arange(pivots.size), pivots] = 1
    a[: pivots.size, -last:] = top
    a[pivots.size :, pivots] = mult
    a[pivots.size :, -last:] = start
    residual = (start - pivots.size * mult * top) % p
    return a % p, pivots.size + (residual != 0)


def test_whole_block_reduction_at_the_update_budget(monkeypatch):
    # every update pushes the last columns of the rows below the same way by
    # its full bound, so between whole-block reductions they reach exactly
    # h + budget * bound, the most that keeps `_reduce_mod` exact
    seen = []
    reduce_mod = oracle._reduce_mod

    def spy(x, p):
        seen.append(int(np.abs(x).max(initial=0)))
        return reduce_mod(x, p)

    monkeypatch.setattr(oracle, "_reduce_mod", spy)
    for p in RANK_PRIMES + (LAST_ONE_LIMB_PRIME,):
        two_limbs, bound, budget = _update_budget(p)
        h = p // 2
        if two_limbs:  # one pivot per panel; multiplier 2^16 + 1 has limbs 1, 1
            a, rank = budget_edge_matrix(p, budget + 1, 1, (1 << 16) + 1, h, -h)
        else:  # 64 pivots per panel: each update adds 64 h^2
            a, rank = budget_edge_matrix(p, budget + 1, 64, h, -h, h)
        seen.clear()
        assert matrix_rank_mod(a, p) == rank, p
        assert max(seen) == h + budget * bound < 1 << 51, p


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


def test_kernel_operands_are_centered(monkeypatch):
    # every product operand is a centered residue, split into limbs of at
    # most 2^14 and 2^15, and every reduced value is below 2^51
    matmul_mod, reduce_mod = oracle._matmul_mod, oracle._reduce_mod
    checked = {"products": 0, "reductions": 0}

    def matmul_spy(out, limbs, u, p):
        h = p // 2
        assert np.abs(u).max(initial=0) <= h
        bounds = [h] if len(limbs) == 1 else [1 << 14, 1 << 15]
        assert all(np.abs(f).max(initial=0) <= b for f, b in zip(limbs, bounds))
        checked["products"] += 1
        matmul_mod(out, limbs, u, p)

    def reduce_spy(x, p):
        assert np.abs(x).max(initial=0) < 1 << 51
        checked["reductions"] += 1
        return reduce_mod(x, p)

    monkeypatch.setattr(oracle, "_matmul_mod", matmul_spy)
    monkeypatch.setattr(oracle, "_reduce_mod", reduce_spy)
    rng = np.random.default_rng(47)
    for p in RANK_PRIMES + (LAST_ONE_LIMB_PRIME, 7):
        a = rank_by_construction(rng, 200, 300, 180, p)
        assert matrix_rank_mod(a, p) == 180, p
    assert checked["products"] > 0 and checked["reductions"] > 0


def test_small_primes_multi_panel_deficient_ranks():
    # at p = 2 the centered residues are -1, 0 and 1
    rng = np.random.default_rng(37)
    for p in (2, 3, 5, 7, 65521):
        a = rank_by_construction(rng, 90, 140, 60, p)
        assert matrix_rank_mod(a, p) == reference_rank(a, p) == 60, p
        a = random_low_rank(rng, 140, 90, 50, p)
        assert matrix_rank_mod(a, p) == reference_rank(a, p) <= 50, p


def test_rank_past_the_update_budget():
    # one pivot per panel: the pivot of row i sits in column 64 i, so each
    # panel is one delayed update.  130 of them pass the budget of 31 at
    # 2^31 - 1 four times; without the whole-block reductions, the entries
    # pass 2^51 and the rank comes out wrong
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
    # 32 identity pivot rows over entries h = p // 2, then rows whose 32
    # multipliers all have lo = 2^15: the left half's update of the right
    # half takes the largest low-limb products of its 32 terms
    rng = np.random.default_rng(71)
    for p in RANK_PRIMES:
        extra_rows, extra_cols, h = 16, 64, p // 2
        top = np.hstack(
            [np.eye(32, dtype=np.int64), np.full((32, extra_cols), h, dtype=np.int64)]
        )
        largest = (h - (1 << 15)) >> 17
        mults = (rng.integers(0, largest, size=(extra_rows, 32)) << 17) | (1 << 15)
        mults[0, :] = (largest << 17) | (1 << 15)
        assert (mults <= h).all()
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
            pivots = _factor_strip(m, 0, 0, cols, p)
            assert len(pivots[0]) == rank
            assert ((0 <= m) & (m < p)).all(), (p, rows, cols)
            # from centered residues, as the kernel loads it: the same pivots,
            # and the same residues in (-p, p)
            c = _reduce_mod(a.astype(np.float64), p)
            assert _factor_strip(c, 0, 0, cols, p) == pivots
            assert (np.abs(c) < p).all() and not ((c - m) % p).any(), (p, rows, cols)


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


def test_conditions_matrix_matches_per_point_rows(monkeypatch):
    rng = np.random.default_rng(17)
    cases = [
        (2, 0, [1, 3, 2]),  # d = 0: only the value rows survive
        (3, 2, [4, 1]),  # m - 1 > d: zero rows for the higher orders
        (2, 4, [2, 1, 2, 3, 1]),  # mixed, interleaved multiplicities
        (5, 3, [2, 3, 1]),  # halves of 2 and 3 coordinates
        (6, 3, [3, 2, 1]),  # halves of 3 and 3
    ]
    for _ in range(12):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(0, 6))
        count = int(rng.integers(1, 6))
        cases.append((n, d, [int(rng.integers(1, 5)) for _ in range(count)]))
    for i, (n, d, mults) in enumerate(cases):
        p = (DEFAULT_PRIME, 2147483629)[i % 2]
        points = rng.integers(0, p, size=(len(mults), n))
        expected = []
        for point, mult in zip(points.tolist(), mults):
            rows, monomials = reference_point_rows(point, mult, d, p)
            expected.extend(rows)
        exps = _monomial_exponents(n, d)
        assert exps.tolist() == [list(e) for e in monomials]
        got = _conditions_matrix((exps, _column_halves(n, d)), points, mults, d, p)
        assert got.dtype == np.float64 and got.tolist() == expected, (n, d, mults)
    # the column subsets and points that `_trial_dims` passes, after the frame
    built = []

    def spy(columns, points, mults, d, p):
        built.append((columns, points, list(mults), d, p))
        return _conditions_matrix(columns, points, mults, d, p)

    monkeypatch.setattr(oracle, "_conditions_matrix", spy)
    framed = [
        (2, 7, [3, 2, 2, 4, 1, 2], DEFAULT_PRIME),
        (3, 5, [2, 1, 3, 1, 2, 2, 1], 2147483629),
        (5, 4, [2, 1, 1, 2, 1, 1, 2, 1], DEFAULT_PRIME),
        (6, 3, [1] * 7 + [2, 2], 2147483629),
        # tall, as the 7-point P^4 merge premise: the frame leaves 101
        # columns, and the two other points give 420 rows
        (4, 10, [7] * 7, 2147483629),
    ]
    for n, d, mults, p in framed:
        built.clear()
        linear_system_dim(n, d, mults, OracleConfig(prime=p, trials=1, seed=n))
        [(columns, points, rest, _, _)] = built
        exps = columns[0]
        expected = []
        for point, mult in zip(points.tolist(), rest):
            rows, monomials = reference_point_rows(point, mult, d, p)
            expected.extend(rows)
        column = {tuple(e): j for j, e in enumerate(monomials)}
        kept = [column[tuple(e)] for e in exps.tolist()]
        assert 0 < len(kept) < len(monomials)
        got = _conditions_matrix(columns, points, rest, d, p)
        want = [[row[j] for j in kept] for row in expected]
        assert got.dtype == np.float64 and got.tolist() == want, (n, d, mults)
    assert got.shape == (420, 101)


def test_one_resident_matrix_during_rank(monkeypatch):
    # the kernel eliminates the float64 rows it is given, so one trial of a
    # tall system holds one matrix plus temporaries; with an int64 matrix
    # and a float64 copy, two are resident during rank
    matrices = []

    def rank(a, p):
        matrices.append((a.shape, a.dtype, a.nbytes))
        return matrix_rank_mod(a, p)

    monkeypatch.setattr(oracle, "matrix_rank_mod", rank)
    config = OracleConfig(prime=FAST_PRIME, trials=1, seed=1)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        report = linear_system_dim(3, 14, [6] * 110, config)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert report.dimension == 0
    [(shape, dtype, nbytes)] = matrices
    assert shape == (5936, 456)
    assert peak < 2 * nbytes, peak / nbytes
    assert dtype == np.float64


def test_distinct_rows_ranks_wide_and_empty_matrices():
    # 70 binary columns, whose mixed-radix keys would reach 2^70; rows 0 and
    # 1 differ in column 0 alone
    rng = np.random.default_rng(73)
    a = rng.integers(0, 2, size=(40, 70))
    a[1] = a[0]
    a[1, 0] = 1 - a[0, 0]
    a = np.vstack([a, a[::3]])
    for b in (a, 3 * a[:, :1], a[:0]):
        u, index = _distinct_rows(b)
        assert (u[index] == b).all() and u.shape[1] == b.shape[1]
        assert len(u) == len({tuple(row) for row in b.tolist()})
    assert len(_distinct_rows(a)[0]) == 40


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
    columns = _monomial_exponents(n, d), _column_halves(n, d)
    dims = []
    for trial in range(config.trials):
        rng = np.random.default_rng([config.seed, trial])
        rank = 0
        if active:
            points = rng.integers(0, config.prime, size=(len(active), n))
            matrix = _conditions_matrix(columns, points, active, d, config.prime)
            rank = matrix_rank_mod(matrix, config.prime)
        dims.append(columns[0].shape[0] - rank)
    return tuple(dims)


def test_frame_matches_a_framefree_reference(monkeypatch):
    sampled = []

    def spy(columns, points, mults, d, p):
        sampled.append(list(mults))
        return _conditions_matrix(columns, points, mults, d, p)

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
