"""Ground-truth dimensions of concrete fat-point systems at random points
over a large prime field.

A trial reports the dimension of the degree-d forms vanishing to order m_i
at s points: the monomial columns that survive the frame, minus the rank of
the conditions matrix of the remaining points.  Random points can only be
more special than generic ones, so the minimum over trials is the right
estimator; with a word-sized prime a wrong answer needs every trial to hit a
vanishing minor.  Each trial owns an RNG stream derived from (seed, trial
index), so trials are independent and reports deterministic.

Frame: any n+1 general points can be moved onto the coordinate points, and
the dimension does not change under a linear change of coordinates, so the
n+1 largest multiplicities sit there.  In the affine chart of the monomials
(last coordinate 1), e_0..e_(n-1) lie at infinity and e_n is the origin.  A
form vanishes to order m at e_i (i < n) exactly when each of its monomials
has e_i <= d - m, and at the origin when each has |e| >= m.  Frame points
therefore delete columns and add no rows; only the other points are sampled
(distinct, in the chart, never the origin) and give rows: the
partial-derivative functionals of order < m_i at point i acting on the
surviving monomial coefficients.

Alpha floors and ceilings: `alpha_symbolic_power` keeps one record per
(n, m, config), the (s, alpha) of its latest query there.  A scan for a
larger s starts at that alpha (a floor), and a scan at power m stops below
min over a of alpha(a) + alpha(m - a), read from the records at the powers
a < m for at least s points (a ceiling, by subadditivity), answering the
ceiling unprobed.  See its docstring for why neither changes the result.
Criterion 7 asks m = 1, 2, ... at each s and s = 1, 2, ... for each n, so
the latest query is the largest floor a longer history could give it, and
the powers below m are on record at s when m is asked.

Rows: each entry is a product over the coordinates, so a point's rows are
built from one small table per half of the coordinates, and an entry is one
product of two table entries mod p.  Which table entry a row and a column
read depends only on (n, d, frame) and (n, m, d), and is cached.  Rows are
built as exact float64 residues, and the rank kernel eliminates them in place.

Rank is exact Gaussian elimination over F_p for any prime p < 2^31, in one
blocked kernel.  Each 64-column panel is factored recursively, in the manner
of the PLUQ of Dumas, Pernet and Sultan (ISSAC 2013): halves down to
16-column strips (16 to 31 in a narrower last panel), where an int64 loop
eliminates column by column within the strip's own columns (reducing the
rows below only when a budget of steps computed from p runs out), and a left
half's pivots reach the right half through the float64 BLAS update that also
takes a whole panel's pivots to the trailing columns.  Every product operand
is a centered residue in [-h, h], h = p//2, as in FFLAS-FFPACK (Dumas,
Giorgi and Pernet, ACM TOMS 2008); a product has at most 64 terms (32
inside a panel), exact in float64 and below 2^51 with the multipliers as
one limb when 64 h^2 < 2^51, otherwise as two limbs of at most 2^14 and
2^15.  The arithmetic is exact mod p, so every pivot, row swap and
multiplier is that of a column-by-column sweep.  Reduction mod p is
delayed: trailing entries are integers below 2^51 in magnitude, reduced
only where a residue is needed (panel columns, pivot rows) and, as a whole
block, once the updates since the last reduction reach a budget computed
from p (31 at 2^31 - 1, 2 at FAST_PRIME).  `_reduce_mod` gives the centered
residue with a multiply by 1/p, a rint and a multiply-subtract, without
masks, and proves it exact below 2^51.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

from .core import FatPointSystem, binomial
from .reduction import system_to_dict

DEFAULT_PRIME = (1 << 31) - 1
# a prime with 64 (p//2)^2 < 2^51, whose rank kernel needs one limb, not two
FAST_PRIME = 8380417
_PRIME_LIMIT = 1 << 31
_PANEL = 64
# a panel is halved while both halves are at least this wide, so a full
# panel's strips, factored column by column, are this wide
_STRIP = 16
# chunks that bound temporaries: update and reduction columns, row-build entries
_UPDATE_COLS = 256
_ROW_CHUNK = 1 << 18
_SAMPLING_ATTEMPTS = 64


class OracleError(ValueError):
    """Invalid oracle configuration or input, or degenerate sampling."""


@dataclass(frozen=True)
class OracleConfig:
    prime: int = DEFAULT_PRIME
    trials: int = 3
    seed: int = 20260810

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise OracleError("need at least one trial")
        if not 3 <= self.prime < _PRIME_LIMIT or not _is_prime(self.prime):
            raise OracleError(f"{self.prime} is not a prime below 2^31")


@dataclass(frozen=True)
class OracleReport:
    n: int
    degree: int
    mults: tuple[int, ...]
    dims: tuple[int, ...]
    dimension: int
    prime: int
    trials: int
    seed: int

    def to_dict(self) -> dict:
        system = FatPointSystem.build(self.n, self.degree, [(m, 1) for m in self.mults])
        return {
            "system": system_to_dict(system),
            "p": self.prime,
            "trials": self.trials,
            "seed": self.seed,
            "dims": list(self.dims),
            "dimension": self.dimension,
        }


@lru_cache
def _is_prime(n: int) -> bool:
    """Exact for n >= 3, by trial division by 2 and the odd q <= sqrt(n)."""
    return n % 2 == 1 and all(n % q for q in range(3, math.isqrt(n) + 1, 2))


# ---------------------------------------------------------------------------
# exact rank over F_p


def _reduce_mod(x: np.ndarray, p: int) -> np.ndarray:
    """The centered residue of x mod p, in [-(p//2), p//2], in place, for
    float64 integers |x| < 2^51.

    q = rint(x * fl(1/p)) is the integer nearest x/p: rounding 1/p and the
    product errs by at most |x/p| * (2^-52 + 2^-106) < 1/(2p).  For odd p
    that is at most the distance from x/p to any half-integer, since
    (2x - (2k + 1) p) / (2p) has an odd numerator, so the product rounds to
    the integer x/p rounds to.  For p = 2, x * 0.5 is exact and an odd x
    gives +-1.  q*p and x - q*p are then integers below 2^52 in magnitude,
    exact in float64.
    """
    q = x * (1.0 / p)
    np.rint(q, out=q)
    q *= p
    x -= q
    return x


def _reduce_cols(x: np.ndarray, p: int) -> None:
    """`_reduce_mod` on x in column chunks of _UPDATE_COLS, which bound its
    temporaries."""
    for c0 in range(0, x.shape[1], _UPDATE_COLS):
        _reduce_mod(x[:, c0 : c0 + _UPDATE_COLS], p)


def _update_budget(p: int) -> tuple[bool, int, int]:
    """(two_limbs, bound, budget): every delayed update subtracts an integer
    of magnitude at most `bound` from centered residues, and `budget` is the
    largest k with h + k*bound < 2^51, for h = p//2.

    One limb while 64 h^2 < 2^51: a panel product sums at most 64 terms of
    two centered residues, so bound = 64 h^2; the largest such p is 11863283,
    where h + bound < 2^51 still holds, so the budget is at least 1.
    Otherwise two limbs, each product reduced into [-h, h] before
    recombination, so bound = h * 2^16 + h.  At 2^31 - 1 the budget is 31
    updates, at FAST_PRIME 2 and at 11863279 1.
    """
    h = p // 2
    bound = _PANEL * h * h
    two_limbs = bound >= 1 << 51
    if two_limbs:
        bound = h * ((1 << 16) + 1)
    return two_limbs, bound, ((1 << 51) - 1 - h) // bound


def _strip_budget(p: int) -> int:
    """The largest k with k (p - 1)^2 < 2^63: the steps `_factor_strip` may
    take between reductions, since each moves its entries by at most
    (p - 1)^2, and int64 holds down to -2^63.
    It is 2 at 2^31 - 1 and 131328 (just over 2^17) at FAST_PRIME, where a
    strip of at most 31 columns never reduces its whole rest."""
    return ((1 << 63) - 1) // ((p - 1) * (p - 1))


def _limbs(f: np.ndarray, p: int, two_limbs: bool) -> list[np.ndarray]:
    """Float64 integers |f| < 2^51 as limbs of their centered residues, f
    reduced in place: f itself, or (hi, lo) with hi = rint(f * 2^-16) and
    lo = f - hi * 2^16 in place of f.  |f| <= p//2 < 2^30 gives |hi| <= 2^14
    and |lo| <= 2^15, and each step is exact: scaling by a power of two,
    rint, and a difference of two integers below 2^30."""
    _reduce_mod(f, p)
    if not two_limbs:
        return [f]
    hi = np.multiply(f, 2.0**-16)
    np.rint(hi, out=hi)
    hi *= 1 << 16
    f -= hi
    hi *= 2.0**-16
    return [hi, f]


def _matmul_mod(out: np.ndarray, limbs: list[np.ndarray], u: np.ndarray, p: int) -> None:
    """out -= limbs @ u up to a multiple of p, for at most _PANEL rows of u
    with centered residues: the subtracted integer has magnitude at most
    `bound` of `_update_budget`, and out is left unreduced for the caller.

    Every partial sum is exact and below 2^51: one limb sums at most 64
    terms of magnitude h^2, under 64 h^2 < 2^51; two limbs (|hi| <= 2^14,
    |lo| <= 2^15) sum terms below 2^44 and 2^45, and each product is reduced
    into [-h, h] before hi is scaled by 2^16.
    """
    for k, limb in enumerate(limbs):
        prod = limb @ u
        if len(limbs) == 2:
            _reduce_mod(prod, p)
            if k == 0:
                prod *= 1 << 16
        out -= prod


def _extend_inverse(neg: np.ndarray, t: np.ndarray, invs: list[int], p: int,
                    two_limbs: bool) -> None:
    """Extend N = -T^-1 mod p from its leading k0 x k0 block to k1 rows and
    columns, in place in the int64 array `neg`, zero outside that block.  T is
    lower triangular: its diagonal holds the pivots (1 / invs) and its
    strictly lower part the stored multipliers.  `t` = T[k0:k1, :k1] as
    float64 residues in (-p, p), for k1 = k0 + len(invs); what it holds on and
    above the diagonal is ignored, and its first k0 columns are centered and
    split in place.

    With T = [[A, 0], [B, C]], -T^-1 = [[-A^-1, 0], [C^-1 B A^-1, -C^-1]], so
    the new rows are C^-1 [-B N_A | -I] for N_A = -A^-1.  B N_A is one
    `_matmul_mod` (k0 < 64 terms, N_A centered); C = L D with L unit lower
    triangular, L^-1 by forward elimination in int64 (products of two
    residues are below 2^62), then D^-1 = diag(invs)."""
    k1 = t.shape[1]
    k0 = k1 - len(invs)
    y = neg[k0:k1, :k1]
    if k0:
        w = np.zeros((k1 - k0, k0))
        n_a = _reduce_mod(neg[:k0, :k0].astype(np.float64), p)
        _matmul_mod(w, _limbs(t[:, :k0], p, two_limbs), n_a, p)
        y[:, :k0] = _reduce_mod(w, p)
    y[:, k0:] = np.eye(len(invs), dtype=np.int64) * (p - 1)
    d_inv = np.array(invs, dtype=np.int64)
    ell = t[:, k0:].astype(np.int64) * d_inv % p
    for s in range(len(invs) - 1):
        rest = y[s + 1 :]
        rest -= np.multiply.outer(ell[s + 1 :, s], y[s])
        rest %= p
    y *= d_inv[:, None]
    y %= p


def _factor_strip(m: np.ndarray, r: int, lo: int, hi: int, p: int) -> tuple[list[int], list[int]]:
    """Column by column in int64, eliminate columns lo:hi of the centered
    residues in rows r: of m below each pivot, within those columns only;
    return the pivot columns and the pivots' inverses.  A pivot is the first
    nonzero entry at or below the next pivot row, and a row swap puts it
    there (in every column of m once the strip is done).  The rows below
    subtract their entry times the pivot row scaled to a leading 1, and that
    entry stays as their multiplier (classic LU layout); the pivot row keeps
    its own entries, which nothing reads again.

    Reduction is delayed: a step subtracts its multipliers times the scaled
    pivot row, in [0, p).  The multipliers are residues in [0, p), except at
    the first step since the rows below were loaded, where they are centered
    in [-h, h] for h = p//2.  So after k steps since the load or the last
    reduction those rows lie in [-k (p - 1)^2, h p] (h p <= (p - 1)^2 for
    odd p; at p = 2 a strip's at most 31 steps keep them below 64), and
    `_strip_budget` keeps k within int64.  A step reduces only what it reads
    as residues, column j from the pivot row down (pivot search,
    multipliers) and the pivot row's later entries (scaled by inv, an
    unreduced row would pass 2^63), and the whole rest once the budget runs
    out.  No step writes a column at or left of its own, or a pivot row, so
    the block holds residues in (-p, p) when it is written back."""
    block = m[r:, lo:hi].astype(np.int64, order="F")  # columns contiguous
    budget = _strip_budget(p)
    cols: list[int] = []
    invs: list[int] = []
    moved: dict[int, int] = {}  # block row -> the row of m (from r) it came from
    nw = pending = 0
    for j in range(hi - lo):
        if pending:
            block[nw:, j] %= p
        if not block[nw, j]:
            nz = np.nonzero(block[nw:, j])[0]
            if nz.size == 0:
                continue
            piv = nw + int(nz[0])
            block[[nw, piv]] = block[[piv, nw]]
            moved[nw], moved[piv] = moved.get(piv, piv), moved.get(nw, nw)
        inv = pow(int(block[nw, j]), -1, p)
        row = block[nw, j + 1 :]
        if pending:
            row %= p
        rest = block[nw + 1 :, j + 1 :]
        rest -= np.multiply.outer(block[nw + 1 :, j], row * inv % p)
        pending += 1
        if pending == budget:
            rest %= p
            pending = 0
        cols.append(lo + j)
        invs.append(inv)
        nw += 1
        if nw == block.shape[0]:
            break
    if moved:  # the swaps, on every column of m at once
        m[[r + i for i in moved]] = m[[r + i for i in moved.values()]]
    m[r:, lo:hi] = block
    return cols, invs


class _Panel:
    """The pivots of one panel, in rows r0, r0 + 1, ... of m: their columns,
    their inverses and, for the first `built` of them, N = -T^-1 in `neg`
    (`_extend_inverse`), built only when an update needs it."""

    def __init__(self, m: np.ndarray, r0: int, width: int, p: int, two_limbs: bool) -> None:
        self.m, self.r0, self.p, self.two_limbs = m, r0, p, two_limbs
        self.cols: list[int] = []
        self.invs: list[int] = []
        self.neg = np.zeros((width, width), dtype=np.int64)
        self.built = 0

    def factor(self, lo: int, hi: int) -> None:
        """Factor columns lo:hi of the centered residues in m below the
        pivots found so far, with the pivots, swaps and multipliers of one
        `_factor_strip` sweep over those columns.  Recursive: halve while both
        halves have at least _STRIP columns, factor the left half, apply its
        pivots to the right half's columns, reduce the rows below there, and
        factor the right half below them."""
        k0 = len(self.cols)
        if hi - lo < 2 * _STRIP:
            cols, invs = _factor_strip(self.m, self.r0 + k0, lo, hi, self.p)
            self.cols += cols
            self.invs += invs
            return
        mid = (lo + hi) // 2
        self.factor(lo, mid)
        k1 = len(self.cols)
        if self.r0 + k1 == self.m.shape[0]:
            return
        if k1 > k0:
            self.update(k0, k1, mid, hi)
            _reduce_mod(self.m[self.r0 + k1 :, mid:hi], self.p)
        self.factor(mid, hi)

    def update(self, k0: int, k1: int, lo: int, hi: int) -> None:
        """Apply pivots k0:k1 to columns lo:hi of m: their rows R there become
        the eliminated form U = T^-1 R, where T is their diagonal block of the
        panel's T and -T^-1 that block of N, and each row below loses its
        stored multipliers times U.  Two limb matmuls per column chunk of
        _UPDATE_COLS, each with at most 64 terms, which also bounds their
        temporaries.  R must be centered residues, U is left centered, and
        each row below takes one delayed update, left for the caller to
        reduce.  The multipliers and T come from the int64 strips, in
        (-p, p), and are centered where they are split into limbs."""
        m, p, two_limbs = self.m, self.p, self.two_limbs
        r, cols = self.r0 + k0, self.cols[k0:k1]
        if self.built < k1:
            t = m[self.r0 + self.built : self.r0 + k1, self.cols[:k1]]
            _extend_inverse(self.neg, t, self.invs[self.built : k1], p, two_limbs)
            self.built = k1
        solve = _limbs(self.neg[k0:k1, k0:k1].astype(np.float64), p, two_limbs)
        lower = _limbs(m[self.r0 + k1 :, cols], p, two_limbs)
        for c0 in range(lo, hi, _UPDATE_COLS):
            c1 = min(c0 + _UPDATE_COLS, hi)
            top = m[r : self.r0 + k1, c0:c1]
            u = np.zeros(top.shape)
            _matmul_mod(u, solve, top, p)  # solve holds -T^-1
            top[:] = _reduce_mod(u, p)
            _matmul_mod(m[self.r0 + k1 :, c0:c1], lower, top, p)


def matrix_rank_mod(a: np.ndarray, p: int) -> int:
    """Rank over F_p of an integer matrix, for a prime p < 2^31.  A float64
    matrix is eliminated in place (overwritten), and must hold integers: an
    entry of 2^51 or more in magnitude raises OracleError, a fraction is not
    checked.  Other dtypes are copied by `np.remainder` and left unchanged.

    That bound is the kernel's invariant: every entry of m stays an integer
    below 2^51 in magnitude, and every product operand is a centered residue
    in [-h, h], h = p//2, the input centered first.  A trailing entry, k
    updates after its last reduction, is at most h + k * bound.  Reduction
    happens only where a residue is needed: the next panel's columns before
    it is factored, the pivot rows before they are an operand, and the whole
    trailing block once k reaches the budget of `_update_budget`, so
    h + k * bound < 2^51 always holds.  `pending` counts the updates since
    the last whole-block reduction (or the start).

    `_Panel.factor` factors each panel of _PANEL columns in residues, and
    `_Panel.update` applies its pivots to the trailing columns: the update
    that `factor` applies to a right half inside the panel, reduced there at
    once.  The callers reduce: here the pivot rows before a trailing update
    when `pending` is nonzero, and the rows below after it when `pending`
    wraps to 0.  Its products have at most 64 terms on the trailing columns
    and at most 32 inside a panel, so the exactness bounds of
    `_update_budget` and `_matmul_mod` cover both.  The arithmetic is exact
    mod p, so every pivot, swap and multiplier is that of a column-by-column
    sweep.
    """
    if not 2 <= p < _PRIME_LIMIT:
        raise OracleError(f"rank needs a prime below 2^31, got {p}")
    two_limbs, _, budget = _update_budget(p)
    m = a
    if a.dtype != np.float64:
        m = np.remainder(a, p, out=np.empty(a.shape))
    elif not -(1 << 51) < a.min(initial=0) <= a.max(initial=0) < 1 << 51:  # a NaN fails too
        raise OracleError("a float64 matrix must hold integers below 2^51 in magnitude")
    _reduce_cols(m, p)
    rows, cols = m.shape
    rank = col = pending = 0
    while rank < rows and col < cols:
        hi = min(col + _PANEL, cols)
        if pending:
            _reduce_mod(m[rank:, col:hi], p)
        panel = _Panel(m, rank, hi - col, p, two_limbs)
        panel.factor(col, hi)
        k = len(panel.cols)
        rank += k
        if k and rank < rows and hi < cols:
            if pending:
                _reduce_mod(m[rank - k : rank, hi:], p)
            panel.update(0, k, hi, cols)
            pending = (pending + 1) % budget
            if not pending:
                _reduce_cols(m[rank:, hi:], p)
        col = hi
    return rank


# ---------------------------------------------------------------------------
# conditions matrix


@lru_cache
def _monomial_exponents(n: int, d: int) -> np.ndarray:
    """Affine exponent vectors e with |e| <= d (the omitted homogenizing
    variable absorbs d - |e|), in lexicographic order.  They are the gaps
    e_i = c_i - c_(i-1) - 1 of the n-subsets c of range(d + n), in their order.
    Cached, and read-only."""
    c = np.array(list(combinations(range(d + n), n)), dtype=np.int64).reshape(-1, n)
    exps = np.diff(c, axis=1, prepend=-1) - 1
    exps.setflags(write=False)
    return exps


def _falling_factorials(d: int, max_order: int, p: int) -> np.ndarray:
    """ff[b, t] = t*(t-1)*...*(t-b+1) mod p; ff[b, t] = 0 for t < b."""
    ff = np.zeros((max_order + 1, d + 1), dtype=np.int64)
    ff[0, :] = 1
    t = np.arange(d + 1, dtype=np.int64)
    for b in range(1, max_order + 1):
        ff[b] = ff[b - 1] * ((t - (b - 1)) % p) % p
        ff[b, :b] = 0
    return ff


def _distinct_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u, index): the distinct rows u of a nonnegative integer matrix a,
    and the row of u each row of a equals (a == u[index]).  Column by
    column, each row's prefix is ranked among the distinct prefixes from a
    dense table over (the rank of its prefix so far, its next entry): no
    sort, and no table of more than len(a) * (a.max() + 1) entries."""
    radix = int(a.max(initial=0)) + 1
    index = np.zeros(a.shape[0], dtype=np.int64)
    count = 1
    for col in a.T:
        key = index * radix + col
        seen = np.zeros(count * radix, dtype=bool)
        seen[key] = True
        index = (np.cumsum(seen) - 1)[key]
        count = int(seen.sum())
    some = np.empty(count, dtype=np.int64)  # a row of each distinct row, any
    some[index] = np.arange(a.shape[0])
    return a[some], index


def _halves(n: int) -> tuple[range, range]:
    """The two halves of the coordinates that conditions rows are split by."""
    return range(n // 2), range(n // 2, n)


@lru_cache
def _column_halves(n: int, d: int) -> list:
    """Per half of the coordinates, the distinct halves of the exponent
    vectors of `_monomial_exponents(n, d)` and the index of each vector's
    half among them.  The monomials of degree d index columns, and the
    orders |beta| <= d rows.  Cached, as it depends on (n, d) alone;
    callers only read it."""
    exps = _monomial_exponents(n, d)
    return [_distinct_rows(exps[:, half]) for half in _halves(n)]


def _half_rows(factor: np.ndarray, sel: np.ndarray, half: range, orders: tuple,
               monomials: tuple, p: int) -> np.ndarray:
    """For each point of `sel`, the product of `factor` over the coordinates
    of one half: a table over the distinct half-orders and half-exponents,
    gathered into (orders x monomials) by each order's and each monomial's
    row of that table.  `orders` and `monomials` are (distinct halves,
    index) pairs of `_distinct_rows`."""
    (ub, bi), (ue, ei) = orders, monomials
    table = np.ones((sel.size, len(ub), len(ue)), dtype=np.int64)
    for k, j in enumerate(half):
        table *= factor[sel, j][:, ub[:, k, None], ue[:, k]]
        table %= p
    return table[:, bi[:, None], ei]


def _conditions_matrix(
    columns: tuple[np.ndarray, list], points: np.ndarray, mults: Sequence[int], d: int, p: int
) -> np.ndarray:
    """Point by point, the rows of the order-< m derivative functionals in
    lex order of the order beta, as float64 residues in [0, p), on the
    monomials `exps` of `columns` and their `_column_halves` maps (or a
    subset of those maps' rows); rows with |beta| > d stay zero.

    The entry of row beta and column e at point x is a product over the
    coordinates, prod_j ff[beta_j, e_j] x_j^(e_j - beta_j) mod p (zero where
    some e_j < beta_j).  So it is built from the two halves of the
    coordinates: per point, one table per half over the distinct half-orders
    and half-exponents, and each entry is one product of two table entries.
    Points of one multiplicity are built in one broadcast over (points x
    orders x monomials), about _ROW_CHUNK entries at a time."""
    exps, exp_halves = columns
    count, n = points.shape
    sizes = [binomial(m - 1 + n, n) for m in mults]
    starts = np.cumsum([0] + sizes[:-1])
    out = np.zeros((sum(sizes), exps.shape[0]))
    pows = np.ones((count, n, d + 1), dtype=np.int64)
    for t in range(1, d + 1):
        pows[:, :, t] = pows[:, :, t - 1] * points % p
    top = min(max(mults) - 1, d)
    # factor[i, j, b, e] = ff[b, e] * x_ij^(e - b): point i, coordinate j
    shift = np.maximum(np.arange(d + 1) - np.arange(top + 1)[:, None], 0)
    factor = pows[:, :, shift] * _falling_factorials(d, top, p) % p
    for m in sorted(set(mults)):
        # the orders |beta| <= min(d, m - 1), in lex order, are those of
        # _monomial_exponents(n, min(d, m - 1))
        kept = np.flatnonzero(_monomial_exponents(n, m - 1).sum(axis=1) <= d)
        # per half: its coordinates, and the half maps of orders and columns
        halves = list(zip(_halves(n), _column_halves(n, min(d, m - 1)), exp_halves))
        group = np.flatnonzero(np.array(mults) == m)
        step = max(1, _ROW_CHUNK // (kept.size * exps.shape[0]))
        for c in range(0, group.size, step):
            sel = group[c : c + step]
            vals = _half_rows(factor, sel, *halves[0], p)
            vals *= _half_rows(factor, sel, *halves[1], p)
            vals %= p
            out[(starts[sel, None] + kept).ravel()] = vals.reshape(-1, exps.shape[0])
    return out


def _sample_points(rng: np.random.Generator, n: int, count: int, p: int) -> np.ndarray:
    points: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = {(0,) * n}  # the origin belongs to the frame
    for _ in range(_SAMPLING_ATTEMPTS * max(count, 1)):
        if len(points) == count:
            break
        pt = tuple(int(x) for x in rng.integers(0, p, size=n))
        if pt in seen:
            continue
        seen.add(pt)
        points.append(pt)
    if len(points) < count:
        raise OracleError("degenerate sampling: could not draw distinct points")
    return np.array(points, dtype=np.int64).reshape(count, n)


def linear_system_dim(
    n: int, d: int, mults: Sequence[int], config: OracleConfig | None = None
) -> OracleReport:
    """Monte Carlo dimension of the degree-d forms with the given
    multiplicities at random points; min over trials."""
    config = config or OracleConfig()
    dims = _trial_dims(n, d, mults, config, range(config.trials))
    return OracleReport(
        n=n,
        degree=d,
        mults=tuple(int(m) for m in mults),
        dims=tuple(dims),
        dimension=min(dims),
        prime=config.prime,
        trials=config.trials,
        seed=config.seed,
    )


def _trial_dims(
    n: int, d: int, mults: Sequence[int], config: OracleConfig, trials: range
) -> list[int]:
    """The dimension of each of the given trials of `linear_system_dim`."""
    if n < 2:
        raise ValueError(f"ambient dimension must be >= 2, got {n}")
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    if any(m < 0 for m in mults):
        raise ValueError("multiplicities must be nonnegative")
    if config.prime <= d:
        raise OracleError(
            f"prime {config.prime} must exceed the degree {d} for derivative "
            "conditions to capture multiplicity"
        )
    # the heaviest n+1 points go to the frame: e_0..e_(n-1), then the origin
    active = sorted((int(m) for m in mults if m > 0), reverse=True)
    frame, rest = active[: n + 1], active[n + 1 :]
    exps = _monomial_exponents(n, d)
    keep = np.ones(exps.shape[0], dtype=bool)
    for i, m in enumerate(frame):
        keep &= exps[:, i] <= d - m if i < n else exps.sum(axis=1) >= m
    exps = exps[keep]
    if rest and exps.size:
        # every distinct half of degree d stays, so a few table entries may
        # go unread
        columns = exps, [(u, index[keep]) for u, index in _column_halves(n, d)]
    dims: list[int] = []
    for trial in trials:
        rng = np.random.default_rng([config.seed % (1 << 64), trial])
        rank = 0
        if rest and exps.size:
            points = _sample_points(rng, n, len(rest), config.prime)
            # no name holds the matrix, so it is freed before the next is built
            rank = matrix_rank_mod(
                _conditions_matrix(columns, points, rest, d, config.prime), config.prime
            )
        dims.append(exps.shape[0] - rank)
    return dims


# the latest alpha found, (n, m, config) -> (s, alpha), kept as a scan floor
# for larger s and a ceiling term for larger m at up to s points; bounded,
# the least recently written key goes first
_FLOOR_KEYS = 64
_alpha_floors: dict[tuple[int, int, OracleConfig], tuple[int, int]] = {}


def clear_alpha_floors() -> None:
    """Forget every recorded alpha, so that each scan starts from m again
    and has no ceiling."""
    _alpha_floors.clear()


def _alpha_ceiling(n: int, s: int, m: int, config: OracleConfig) -> float:
    """min over 0 < a < m of alpha(a) + alpha(m - a) over the records of
    (n, config) for at least s points, ignoring sums at or above the prime;
    infinite when no pair is recorded."""
    known: dict[int, int] = {}
    for a in range(1, m):
        s_a, alpha = _alpha_floors.get((n, a, config), (0, 0))
        if s_a >= s:
            known[a] = alpha
    sums = (known[a] + known[m - a] for a in known if m - a in known)
    return min((c for c in sums if c < config.prime), default=math.inf)


def alpha_symbolic_power(
    n: int, s: int, m: int, config: OracleConfig | None = None
) -> int:
    """Least degree d with a nonzero form of multiplicity m at s random points.

    Searches upward from d = m, or from alpha(s') when the latest query at
    the same (n, m, config) was for s' < s points: one (s, alpha) record per
    key, which is all that queries for ascending s use.  It stops at the
    `_alpha_ceiling` from the records at lower powers, and answers that
    degree without probing it.  When the virtual dimension
    C(d+n,n) - s*C(m+n-1,n) is positive the system is nonzero without any
    rank computation (dimension >= columns - rows); only candidate degrees
    below that point need the matrix.  Each candidate is
    probed with a single trial first: a zero dimension there already equals
    the min over all trials, so only positive probes need confirmation.  The
    probe is trial 0 of the full count (the same (seed, 0) stream), so the
    confirmation runs trials 1..T-1 only.  The result is identical to
    scanning from m with the full count throughout.

    Why the floor is exact: within one (seed, trial) the s-point
    configuration is a prefix of the (s+1)-point one.  The frame fills first,
    since all multiplicities are equal, and the random points are drawn one
    at a time from the same stream.  So each trial's dimension at s+1 is at
    most its dimension at s, a zero probe or zero minimum at s' stays zero at
    s, and the virtual-dimension shortcut only gets weaker as s grows: the
    scan for s cannot stop below alpha(s').  Only a smaller s' is used, so a
    repeated query, or one for fewer points than the latest, redoes its work;
    the cost depends on earlier calls, the result does not.

    Why the ceiling is exact: a trial's point set does not depend on m, and
    positivity is monotone in d (times a linear form), so the scan's alpha
    is the max over trials T of alpha_T, the least degree with a nonzero form
    in trial T.  For nonzero F and G the product FG is nonzero and its order
    at each point is the sum of theirs, so alpha_T(a + b) <= alpha_T(a) +
    alpha_T(b), and the max over T keeps this.  The s-point set is a prefix
    of the s_a-point set, so alpha(s, a) <= alpha(s_a, a) for s <= s_a.  A
    ceiling at or above the prime is not used: the derivative conditions
    test no such degree, and a full scan that reaches one raises.
    """
    if s < 1 or m < 1:
        raise ValueError("need s >= 1 and m >= 1")
    config = config or OracleConfig()
    probe = (
        config
        if config.trials == 1
        else OracleConfig(prime=config.prime, trials=1, seed=config.seed)
    )
    conditions = s * binomial(m + n - 1, n)
    ceiling = _alpha_ceiling(n, s, m, config)
    last_s, last_alpha = _alpha_floors.pop((n, m, config), (0, m))
    d = last_alpha if last_s < s else m
    while binomial(d + n, n) - conditions <= 0 and d < ceiling:
        if linear_system_dim(n, d, [m] * s, probe).dimension > 0 and all(
            dim > 0 for dim in _trial_dims(n, d, [m] * s, config, range(1, config.trials))
        ):
            break
        d += 1
    _alpha_floors[n, m, config] = (s, d)
    if len(_alpha_floors) > _FLOOR_KEYS:
        del _alpha_floors[next(iter(_alpha_floors))]
    return d


def waldschmidt_upper_estimate(
    n: int, s: int, m_max: int, config: OracleConfig | None = None
) -> Fraction:
    """min over 1 <= m <= m_max of alpha(m-th power)/m: an upper bound on the
    limit since the sequence converges to its infimum."""
    if m_max < 1:
        raise ValueError("need m_max >= 1")
    return min(
        Fraction(alpha_symbolic_power(n, s, m, config), m) for m in range(1, m_max + 1)
    )
