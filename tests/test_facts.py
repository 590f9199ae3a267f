"""The shipped certificate catalog and bound extraction."""

from fractions import Fraction

import pytest

from fatpoints.core import binomial
from fatpoints.facts import (
    Profile,
    aux_multiplier,
    block_points_certificate,
    catalog,
    eight_points_p4,
    fact_from_certificate,
    mixed_points_p4,
    mixed_points_p5,
    n_plus_four_points,
    thirty_six_points_p4,
    two_weight_certificate,
    two_weight_system,
)
from fatpoints.reduction import MAX_NESTING, MergeError, _nesting, verify_certificate
from helpers import sysb


def test_profile_helpers():
    p = Profile.of([(2, 4), (1, 7)])
    assert p.npoints == 11
    assert not p.is_simple
    assert p.doubles_and_singles() == (4, 7)
    assert Profile.simple(8).is_simple
    assert Profile.of([(3, 1), (1, 2)]).doubles_and_singles() is None


def test_fact_extraction_values():
    fact = fact_from_certificate(eight_points_p4())
    assert (fact.n, fact.profile, fact.bound) == (4, Profile.simple(8), Fraction(8, 5))
    fact = fact_from_certificate(mixed_points_p4())
    assert fact.profile == Profile.of([(2, 4), (1, 7)])
    assert fact.bound == Fraction(23, 10)
    fact = fact_from_certificate(mixed_points_p5())
    assert fact.profile == Profile.of([(2, 3), (1, 31)])
    assert fact.bound == Fraction(21, 10)


def test_fact_extraction_rejects_bad_shapes():
    from fatpoints.reduction import prove_empty

    cert = prove_empty(sysb(2, (2, -1), ((2, 0), 2)))  # fine: degree 2m-1
    fact_from_certificate(cert)
    bad = prove_empty(sysb(2, (2, -2), ((2, 0), 2)))  # degree 2m-2: wrong shape
    with pytest.raises(ValueError):
        fact_from_certificate(bad)


def test_thirty_six_point_assembly():
    cert = thirty_six_points_p4()
    assert cert.claim == sysb(4, (51, -1), ((25, 0), 36))
    assert cert.m0 == 1
    assert verify_certificate(cert)
    fact = fact_from_certificate(cert)
    assert fact.bound == Fraction(51, 25)


def test_n_plus_four_family():
    from fatpoints.core import AffineValue

    for n in (6, 8, 10):
        cert = n_plus_four_points(n)
        assert verify_certificate(cert)
        assert cert.steps[0].k == AffineValue(-n, -(n - 1))
        fact = fact_from_certificate(cert)
        assert fact.profile == Profile.simple(n + 4)
        expected = Fraction((n + 2) * (2 * n - 1) + 2, n * (2 * n - 1))
        assert fact.bound == expected
        assert expected > Fraction(n + 2, n)  # strictly beats the small-count floor
    with pytest.raises(ValueError):
        n_plus_four_points(7)
    with pytest.raises(ValueError):
        n_plus_four_points(4)


def test_aux_multiplier_minima():
    assert [aux_multiplier(n) for n in range(5, 10)] == [4, 13, 5, 15, 6]


def test_two_weight_systems_close():
    for n in range(5, 10):
        a = aux_multiplier(n)
        sys = two_weight_system(n)
        if n % 2:
            x, y = n + 3, (n - 1) // 2
        else:
            x, y = 3 * n // 2 + 4, (n - 2) // 2
        assert sys == sysb(
            n, ((n + 3) * a + 1, -1), ((n * a, 0), x), (((n + 2) * a, 0), y)
        )
        cert = two_weight_certificate(n)
        assert verify_certificate(cert)
        assert cert.m0 == 1


def test_block_points_certificates():
    from fatpoints.core import binomial

    for n in range(5, 10):
        a = aux_multiplier(n)
        cert = block_points_certificate(n)
        assert verify_certificate(cert)
        fact = fact_from_certificate(cert)
        assert fact.profile == Profile.simple(binomial(n + 2, 2) + 1)
        assert fact.bound == Fraction((n + 3) * a + 1, n * a)
        assert fact.bound > Fraction(n + 3, n)


def test_catalog_contents():
    assert [(f.profile.npoints, f.bound) for f in catalog(4)] == [
        (8, Fraction(8, 5)),
        (11, Fraction(23, 10)),
        (36, Fraction(51, 25)),
    ]
    assert [(f.profile.npoints, f.bound) for f in catalog(5)] == [
        (34, Fraction(21, 10)),
        (22, Fraction(33, 20)),
    ]
    assert [(f.profile.npoints, f.bound) for f in catalog(6)] == [
        (10, Fraction(15, 11)),
        (29, Fraction(59, 39)),
    ]
    assert catalog(2) == ()
    assert catalog(3) == ()
    for n in range(4, 11):
        for fact in catalog(n):
            assert verify_certificate(fact.certificate)


def test_catalog_leaves_out_block_points_nested_too_deep():
    # block points merge (n-1)//2 times over the two-weight certificate's
    # level, so P^(2 * MAX_NESTING) is the last dimension they fit
    def block_facts(n):
        points = Profile.simple(binomial(n + 2, 2) + 1)
        return [fact for fact in catalog(n) if fact.profile == points]

    last = 2 * MAX_NESTING
    kept = block_facts(last)
    assert len(kept) == 1 and _nesting(kept[0].certificate) == MAX_NESTING
    assert block_facts(last + 1) == []
    with pytest.raises(MergeError, match="nest more than"):
        block_points_certificate(last + 1)
