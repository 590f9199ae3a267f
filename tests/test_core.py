"""Parametric arithmetic, eventual signs, and the system data model."""

import random

import pytest

from fatpoints.core import (
    AffineValue,
    FatPointSystem,
    Sign,
    binomial,
    cremona_k,
    eventual_sign,
    expected_dimension,
    nonneg_threshold,
    nonpositive_threshold,
    positive_threshold,
)
from helpers import sysb

A = AffineValue


def test_affine_add_examples():
    assert A(5, 0) + A(-1, -3) == A(4, -3)
    x = A(7, -2)
    assert x + A(0, 0) == x
    assert A(2, -9) + A(-2, 9) == A(0, 0)


def test_affine_arithmetic_is_exact():
    rng = random.Random(20260810)
    for _ in range(1000):
        a = A(rng.randint(-10**9, 10**9), rng.randint(-10**9, 10**9))
        b = A(rng.randint(-10**9, 10**9), rng.randint(-10**9, 10**9))
        m = rng.randint(1, 10**12)
        c = rng.randint(-10**6, 10**6)
        assert (a + b).at(m) == a.at(m) + b.at(m)
        assert (a - b).at(m) == a.at(m) - b.at(m)
        assert a.scaled(c).at(m) == c * a.at(m)


def test_eventual_sign_examples():
    es = eventual_sign(A(2, -19))
    assert (es.sign, es.threshold) == (Sign.POSITIVE, 10)
    es = eventual_sign(A(0, 5))
    assert (es.sign, es.threshold) == (Sign.POSITIVE, 1)
    es = eventual_sign(A(-1, -3))
    assert (es.sign, es.threshold) == (Sign.NEGATIVE, 1)
    assert eventual_sign(A(0, 0)).sign is Sign.ZERO


def test_eventual_sign_sound_on_samples():
    rng = random.Random(7)
    for _ in range(300):
        v = A(rng.randint(-40, 40), rng.randint(-400, 400))
        es = eventual_sign(v)
        for m in range(es.threshold, es.threshold + 100):
            val = v.at(m)
            if es.sign is Sign.POSITIVE:
                assert val > 0
            elif es.sign is Sign.NEGATIVE:
                assert val < 0
            else:
                assert val == 0


def test_threshold_helpers():
    assert positive_threshold(A(2, -19)) == 10
    assert positive_threshold(A(-1, 5)) is None
    assert nonneg_threshold(A(4, -4)) == 1
    assert nonneg_threshold(A(1, -12)) == 12
    assert nonpositive_threshold(A(-1, 4)) == 4
    assert nonpositive_threshold(A(0, -15)) == 1


def test_str_forms():
    assert str(A(5, 0)) == "5m"
    assert str(A(8, -1)) == "8m-1"
    assert str(A(-1, -3)) == "-m-3"
    assert str(A(0, 7)) == "7"


def test_canonicalization_sorts_and_merges():
    s = sysb(2, 4, ((1, 0), 2), ((0, 3), 1), ((1, 0), 3))
    assert [(r.value, r.count) for r in s.mults] == [(A(1, 0), 5), (A(0, 3), 1)]
    assert s.point_count == 6
    # eventual order is slope-major
    s = sysb(2, 4, ((0, 100), 1), ((1, -50), 1))
    assert s.mults[0].value == A(1, -50)


def test_cremona_k_examples():
    s = sysb(2, 2, (1, 5))
    assert cremona_k(s, [0, 0, 0]) == A(0, -1)
    s = sysb(4, (8, -1), ((5, 0), 8))
    assert cremona_k(s, [0] * 5) == A(-1, -3)
    s = sysb(4, (23, -1), ((20, 0), 4), ((10, 0), 7))
    assert cremona_k(s, [0, 0, 0, 0, 1]) == A(-21, -3)


def test_cremona_k_needs_full_pivot():
    s = sysb(2, 2, (1, 2))
    with pytest.raises(ValueError):
        cremona_k(s, [0, 0])
    with pytest.raises(ValueError):
        cremona_k(s, [0, 0, 0])  # only 2 points available


def test_expected_dimension_examples():
    assert expected_dimension(sysb(2, 2, ((1, 0), 5)), 1) == 1
    assert expected_dimension(sysb(2, 4, ((2, 0), 5)), 1) == 0
    assert expected_dimension(sysb(2, 1), 3) == 3
    with pytest.raises(ValueError):
        expected_dimension(sysb(2, (1, -5), ((1, 0), 1)), 2)


def test_instantiate_clamps_negative_multiplicities():
    s = sysb(2, (2, 0), ((1, 0), 2), ((-1, -3), 1))
    degree, mults = s.instantiate(2)
    assert degree == 4
    assert sorted(mults) == [0, 2, 2]


def test_binomial():
    assert binomial(9, 4) == 126
    assert binomial(17, 0) == 1
    for n in range(3, 13):
        assert binomial(2 * n - 1, n) >= 2**n
    with pytest.raises(ValueError):
        binomial(3, 4)
    with pytest.raises(ValueError):
        binomial(3, -1)
