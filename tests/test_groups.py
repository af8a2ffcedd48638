import random
from fractions import Fraction
from itertools import product

import pytest

from motive_calc.groups import (
    GElem,
    LevelMismatchError,
    enumerate_g,
    epsilon,
    epsilon2_projector,
    epsilon_projector,
    g_identity,
    group_certificate,
    lambda_theta,
    mu_inv,
    symmetrizers,
    tau,
)

from support import G2Elem, G2Sum, g2_identity, g2_sum, sigma_swap


@pytest.mark.parametrize("n", [3, 4, 5])
def test_group_axioms_exhaustive(n):
    elems = enumerate_g(n)
    e = g_identity(n)
    for g in elems:
        assert g.mul(g.inv()) == e
        assert g.inv().mul(g) == e
        assert g.mul(e) == g
        assert e.mul(g) == g
    for a, b, c in product(elems, repeat=3):
        assert a.mul(b).mul(c) == a.mul(b.mul(c))


def test_semidirect_examples():
    n = 5
    x = GElem(n, 1, 0, -1)
    assert x.mul(x) == g_identity(n)
    assert tau(n, 1, 2).mul(tau(n, 4, 4)) == tau(n, 0, 1)
    assert g_identity(n).mul(x) == x


def test_level_mismatch():
    with pytest.raises(LevelMismatchError):
        g_identity(3).mul(g_identity(4))


def test_epsilon_values():
    n = 4
    assert epsilon(tau(n, 1, 3)) == 1
    assert epsilon(mu_inv(n)) == -1
    assert epsilon(tau(n, 1, 3).mul(mu_inv(n))) == -1


def test_epsilon_projector_support():
    p = epsilon_projector(3)
    assert len(p.terms) == 18
    assert set(p.terms.values()) == {Fraction(1, 18), Fraction(-1, 18)}


@pytest.mark.parametrize("n", [3, 4, 5])
def test_epsilon_projector_idempotent_and_symmetric(n):
    p = epsilon_projector(n)
    assert p * p == p
    assert p.involute() == p


@pytest.mark.parametrize("n", [3, 4, 5])
def test_lambda_theta(n):
    lam, theta = lambda_theta(n)
    eps = epsilon_projector(n)
    assert lam * lam == lam
    assert theta * theta == theta
    assert lam * theta == theta * lam
    assert lam * theta == eps
    assert theta * lam == eps


@pytest.mark.parametrize("n", [3, 4])
def test_symmetrizers(n):
    a2, s2 = map(g2_sum, symmetrizers(n))
    one = G2Sum({g2_identity(n): 1})
    assert a2 * a2 == a2
    assert s2 * s2 == s2
    assert (a2 * s2).is_zero()
    assert (s2 * a2).is_zero()
    assert a2 + s2 == one
    eps2 = g2_sum(epsilon2_projector(n))
    assert a2 * eps2 == eps2 * a2


def test_epsilon2_projector_idempotent_small():
    p = g2_sum(epsilon2_projector(3))
    assert p * p == p


def test_g2_group_sampled():
    n = 3
    g = enumerate_g(n)
    elems = [G2Elem(n, a, b, swap) for swap in (False, True) for a in g for b in g]
    assert len(elems) == 2 * (2 * n * n) ** 2
    e = g2_identity(n)
    rng = random.Random(1)
    sample = [rng.choice(elems) for _ in range(400)]
    for g in sample:
        assert g.mul(g.inv()) == e
        assert g.inv().mul(g) == e
    for _ in range(4000):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert a.mul(b).mul(c) == a.mul(b.mul(c))


def test_sigma_conjugation_swaps_coordinates():
    n = 3
    s = sigma_swap(n)
    for g1 in enumerate_g(n)[:6]:
        for g2 in enumerate_g(n)[-6:]:
            x = G2Elem(n, g1, g2, False)
            assert s.mul(x).mul(s) == G2Elem(n, g2, g1, False)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_group_certificate_passes(n):
    assert all(e["status"] == "pass" for e in group_certificate(n))


def test_group_ring_scale_and_zero():
    p = epsilon_projector(3)
    assert (p - p).is_zero()
    assert p.scale(0).is_zero()
    assert p.scale(2).scale(Fraction(1, 2)) == p
