import random
from fractions import Fraction
from itertools import product

import pytest

from motive_calc.endos import SurfEnd, surf_compose, surf_identity
from motive_calc.groups import (
    GroupRingElement,
    LevelMismatchError,
    enumerate_g,
    epsilon,
    epsilon2_projector,
    epsilon_projector,
    group_certificate,
    lambda_theta,
    mu_inv,
    tau,
)
from motive_calc.tensor import TensorExpr

from support import G2Elem, G2Sum, GElem, g2_identity, g2_sum, group_symmetrizers, oracle_g, sigma_swap


@pytest.mark.parametrize("n", [3, 4, 5])
def test_group_axioms_exhaustive(n):
    # the group law is surf_compose on the automorphisms, and the inverse SurfEnd.inv
    elems = enumerate_g(n)
    e = surf_identity(n)
    for g in elems:
        assert surf_compose(g, g.inv()) == e
        assert surf_compose(g.inv(), g) == e
        assert surf_compose(g, e) == g
        assert surf_compose(e, g) == g
    for a, b, c in product(elems, repeat=3):
        assert surf_compose(surf_compose(a, b), c) == surf_compose(a, surf_compose(b, c))


def test_semidirect_examples():
    n = 5
    x = SurfEnd(n, 1, 0, -1, False)
    assert surf_compose(x, x) == surf_identity(n)
    assert surf_compose(tau(n, 1, 2), tau(n, 4, 4)) == tau(n, 0, 1)
    assert surf_compose(surf_identity(n), x) == x


def test_level_mismatch():
    with pytest.raises(LevelMismatchError):
        surf_compose(surf_identity(3), surf_identity(4))


def test_epsilon_values():
    n = 4
    assert epsilon(tau(n, 1, 3)) == 1
    assert epsilon(mu_inv(n)) == -1
    assert epsilon(surf_compose(tau(n, 1, 3), mu_inv(n))) == -1


def test_epsilon_projector_support():
    p = epsilon_projector(3)
    assert len(p.terms) == 18
    assert set(p.terms.values()) == {Fraction(1, 18), Fraction(-1, 18)}


@pytest.mark.parametrize("n", [3, 4, 5])
def test_epsilon_projector_idempotent_and_symmetric(n):
    p = epsilon_projector(n)
    assert p * p == p
    assert p.transpose() == p


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
    a2, s2 = map(g2_sum, group_symmetrizers(n))
    one = G2Sum(n, {g2_identity(n): 1})
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


@pytest.mark.parametrize("n", [3, 4])
def test_the_named_g2_elements_transpose_to_themselves(n):
    a2, s2 = group_symmetrizers(n)
    for x in (epsilon2_projector(n), a2, s2):
        t = x.transpose()
        assert (t - x).is_zero()
        assert all(type(f) is GroupRingElement for a, b, _ in t.nums for f in (a, b))
        assert t.render() == x.render()


def test_a_g2_transpose_inverts_each_factor():
    # transposing Graph(g) gives Graph(g^-1): on Q[G] factors the transpose is the involution
    n = 3
    t01, one = GroupRingElement.of(n, tau(n, 0, 1)), GroupRingElement.of(n, surf_identity(n))
    got = TensorExpr.pure(t01, one).transpose()
    want = TensorExpr.pure(GroupRingElement.of(n, tau(n, 0, 1).inv()), one)
    assert got == want
    assert (got - want).is_zero()
    assert g2_sum(got) == G2Sum(n, {G2Elem(n, GElem(n, 0, 2, 1), GElem(n, 0, 0, 1), False): 1})


def test_g2_group_sampled():
    n = 3
    g = oracle_g(n)
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
    for g1 in oracle_g(n)[:6]:
        for g2 in oracle_g(n)[-6:]:
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
