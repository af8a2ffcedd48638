import random
from itertools import product

import pytest

from motive_calc.endos import SurfEnd, mu0, surf_compose, surf_end, surf_identity
from motive_calc.groups import LevelMismatchError
from motive_calc.surface import (
    UnsupportedCompositionError, compose_open_atoms, graph, open_atom_label, open_atom_sort_key, open_graph)
from motive_calc.threefold import compose_t_atom_pair, t_atom, verify_structure_identities
from support import (
    aff_compose, aff_end, aff_of, affine_atom, affine_label, affine_sort_key, compose_affine_atoms, enumerate_surf,
    mu_minus1, tau_end)


def endo(a, b, swap=False):
    """The fiberwise endomorphism (a (x) b).swap^e as a tensor atom of two graphs."""
    return t_atom(graph(a), graph(b), swap)


def tc(f, h):
    """f after h by the threefold rule table: always one graph atom, coefficient 1."""
    (atom, k), = compose_t_atom_pair(f, h, f[0][1].level)
    assert k == 1
    return atom


def test_collapse_absorbs_right():
    n = 5
    m0 = mu0(n)
    assert surf_compose(m0, tau_end(n, 2, 3)) == m0
    assert surf_compose(m0, mu_minus1(n)) == m0
    assert surf_compose(mu_minus1(n), m0) == m0  # inversion fixes the zero section


def test_translation_after_collapse():
    n = 5
    got = surf_compose(tau_end(n, 2, 3), mu0(n))
    assert got == surf_end(n, 2, 3, 1, collapse=True)


def test_identity_law():
    n = 4
    for f in enumerate_surf(n):
        assert surf_compose(surf_identity(n), f) == f
        assert surf_compose(f, surf_identity(n)) == f


def test_collapse_sign_normalization():
    n = 3
    # the presentation has 2|G| collapse pairs but only N^2 distinct maps
    raw = {surf_end(n, b1, b2, s, True) for b1 in range(n) for b2 in range(n) for s in (1, -1)}
    assert len(raw) == n * n
    assert len(enumerate_surf(n)) == 3 * n * n


def test_surf_associativity_exhaustive():
    n = 3
    elems = enumerate_surf(n)
    for a, b, c in product(elems, repeat=3):
        assert surf_compose(surf_compose(a, b), c) == surf_compose(a, surf_compose(b, c))


def test_surf_associativity_sampled_larger_level():
    n = 5
    elems = enumerate_surf(n)
    rng = random.Random(13)
    for _ in range(20000):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert surf_compose(surf_compose(a, b), c) == surf_compose(a, surf_compose(b, c))


def test_collapse_ideal():
    n = 3
    for f in enumerate_surf(n):
        for g in enumerate_surf(n):
            if g.collapse:
                assert surf_compose(f, g).collapse


def test_level_mismatch():
    with pytest.raises(LevelMismatchError):
        surf_compose(mu0(3), mu0(4))


@pytest.mark.parametrize("f, h", list(product((surf_identity(3), mu_minus1(3), mu0(3)), (surf_identity(4), mu0(4)))))
def test_level_mismatch_of_every_kind_of_map(f, h):
    # automorphisms and collapses on either side: the level is checked before a collapse absorbs
    with pytest.raises(LevelMismatchError):
        surf_compose(f, h)
    with pytest.raises(LevelMismatchError):
        surf_compose(h, f)


@pytest.mark.parametrize("n", [3, 4])
def test_the_composite_is_a_surf_end_built_field_by_field(n):
    # on all (3N^2)^2 pairs: the law written out with the SurfEnd constructor, as the program once built it
    for f in enumerate_surf(n):
        for h in enumerate_surf(n):
            got = surf_compose(f, h)
            assert type(got) is SurfEnd
            if f.collapse:
                want = f
            else:
                s = 1 if h.collapse else f.s * h.s
                want = SurfEnd(n, (f.b1 + f.s * h.b1) % n, (f.b2 + f.s * h.b2) % n, s, h.collapse)
            assert got == want and [type(x) for x in got] == [type(x) for x in want]


def test_tensor_products_of_partial_collapses():
    n = 4
    m01 = endo(mu0(n), surf_identity(n))
    m10 = endo(surf_identity(n), mu0(n))
    m00 = endo(mu0(n), mu0(n))
    assert tc(m01, m10) == m00
    assert tc(m10, m01) == m00


def test_sigma_involution_and_conjugation():
    n = 4
    s = endo(surf_identity(n), surf_identity(n), True)
    assert tc(s, s) == endo(surf_identity(n), surf_identity(n))
    g1 = surf_end(n, 1, 2, 1)
    g2 = surf_end(n, 3, 0, -1)
    conj = tc(tc(s, endo(g1, g2)), s)
    assert conj == endo(g2, g1)


def test_swap_conjugation_is_automorphism():
    n = 3
    s = endo(surf_identity(n), surf_identity(n), True)
    elems = enumerate_surf(n)
    rng = random.Random(3)
    for _ in range(300):
        a = endo(rng.choice(elems), rng.choice(elems), rng.random() < 0.5)
        b = endo(rng.choice(elems), rng.choice(elems), rng.random() < 0.5)
        conj_a = tc(tc(s, a), s)
        conj_b = tc(tc(s, b), s)
        assert tc(conj_a, conj_b) == tc(tc(s, tc(a, b)), s)
        assert tc(tc(s, conj_a), s) == a


def test_tensor_associativity_submodel_exhaustive():
    n = 3
    factors = [surf_identity(n), mu0(n), surf_end(n, 1, 0, 1, True)]
    elems = [endo(a, b, sw) for a in factors for b in factors for sw in (False, True)]
    for a, b, c in product(elems, repeat=3):
        assert tc(tc(a, b), c) == tc(a, tc(b, c))


def test_tensor_associativity_sampled():
    n = 3
    elems = enumerate_surf(n)
    rng = random.Random(11)
    for _ in range(4000):
        xs = [
            endo(rng.choice(elems), rng.choice(elems), rng.random() < 0.5)
            for _ in range(3)
        ]
        a, b, c = xs
        assert tc(tc(a, b), c) == tc(a, tc(b, c))


# -- the open part: a SurfEnd read as x -> n x + b, against the AffEnd oracle

@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_open_atoms_compose_print_and_sort_as_the_affine_oracle(n):
    # graph after graph is surf_compose against aff_compose on all (3N^2)^2 pairs of maps
    ends = enumerate_surf(n)
    affine = [aff_end(n, k, b1, b2) for k in (1, -1, 0) for b1 in range(n) for b2 in range(n)]
    assert sorted(map(aff_of, ends)) == sorted(affine)  # a bijection onto the maps with n in {0, +-1}
    atoms = [open_graph(f) for f in ends] + [("t", f) for f in ends if f.collapse]
    for x in atoms:
        assert open_atom_label(x) == affine_label(affine_atom(x))
        assert open_atom_sort_key(x) == affine_sort_key(affine_atom(x))
        for y in atoms:
            try:
                got = affine_atom(compose_open_atoms(x, y))
            except UnsupportedCompositionError:
                got = "unsupported"
            try:
                want = compose_affine_atoms(affine_atom(x), affine_atom(y))
            except UnsupportedCompositionError:
                want = "unsupported"
            assert got == want, (x, y)


def test_aff_composition():
    n = 5
    assert aff_compose(aff_end(n, n), aff_end(n, 1, 2, 3)) == aff_end(n, n)  # mu(N) kills torsion
    assert aff_compose(aff_end(n, -1), aff_end(n, -1)) == aff_end(n, 1)
    assert aff_compose(aff_end(n, 1, 1, 2), aff_end(n, 1, 3, 4)) == aff_end(n, 1, 4, 1)


def test_aff_inverse():
    n = 7
    f = aff_end(n, -1, 2, 5)
    assert aff_compose(f, f.inv()) == aff_end(n, 1)
    with pytest.raises(ValueError):
        aff_end(n, 2).inv()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_structure_identities(n):
    entries = verify_structure_identities(n)
    assert len(entries) == 3
    assert all(e["status"] == "pass" for e in entries)


def test_structure_identities_use_the_rule_table(monkeypatch):
    import motive_calc.threefold as threefold

    monkeypatch.setattr(threefold, "compose_atom_pair", lambda x, y, level: None)
    statuses = {e["name"]: e["status"] for e in verify_structure_identities(3)}
    assert statuses["collapse_roundtrip"] == "fail"
