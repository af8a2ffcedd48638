"""The keyed products against the atom-pair products they replaced.

`surface.compose` lets a graph, tGraph or V atom act on the component
products of a cusp through an index map read from the rule
(`CuspRule.map_id`), and sums the numerators of the atoms that share a
map first.  `GroupRingElement.__mul__` computes the id of each product
from the ids of its factors (`groups.id_product`).  Neither shortcut
shows in the certificates when it is wrong in a way that cancels: pi1's
+- coefficients cancel per b1, so a map that forgot the inversion part s
would leave `surface_certificate` all pass.  These tests check both
kernels atom by atom instead: exhaustively that atoms with one map act
alike, and on random operands that the products equal the oracles in
`support`.  The group ring of G^2 x| S_2, held factored as a `TensorExpr`
with Q[G] factors, is checked the same way against sums of `G2Elem`s:
its products and zero test on random factors, and its swap rule on every
element at N = 3.
"""

import random
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motive_calc import groups, surface
from motive_calc.endos import surf_compose, surf_identity
from motive_calc.groups import (
    GroupRingElement,
    LevelMismatchError,
    enumerate_g,
    epsilon2_projector,
    epsilon_projector,
    lambda_theta,
    law_rows,
    mu_inv,
)
from motive_calc.levels import cusp_count
from motive_calc.sums import product
from motive_calc.tensor import TensorExpr
from motive_calc.surface import (
    VERT,
    SurfCorr,
    UnsupportedCompositionError,
    atom_label,
    build_pi_bars,
    build_pi_cusp,
    compose,
    compose_atom_pair,
    cusp_prod,
    cusp_rule,
    delta,
    surface_certificate,
)

from support import (
    G2Elem,
    G2Sum,
    GElem,
    compose_by_atom_pairs,
    enumerate_surf,
    factored,
    g2_epsilon2,
    g2_identity,
    g2_sum,
    g_table_by_compose,
    group_symmetrizers,
    group_product,
    oracle_g,
    sigma_swap,
)


def _non_cusp_atoms(n):
    ends = enumerate_surf(n)
    return [("G", e) for e in ends] + [("T", e) for e in ends if e.collapse] + [VERT]


def _cusp_products(n):
    return [cusp_prod(c, m, k) for c in range(cusp_count(n)) for m in range(n) for k in range(n)]


# -- the maps, exhaustively ----------------------------------------------------------

@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("side", ["after", "before"])
def test_atoms_with_one_key_act_alike_on_every_cusp_product(n, side):
    table = cusp_rule(n, compose_atom_pair)

    def key(x):  # the id of x's map, None for the zero map
        return table.map_id(x, side == "after")

    atoms = _non_cusp_atoms(n)
    keys = {key(a) for a in atoms}
    assert len(keys) > 1  # the keys tell some atoms apart
    for y in _cusp_products(n):
        seen = {}
        for x in atoms:
            out = compose_atom_pair(x, y, n) if side == "after" else compose_atom_pair(y, x, n)
            k = key(x)
            if k is None:
                assert not out, (x, y)
            else:
                assert seen.setdefault(k, out) == out, (x, y)


@pytest.mark.parametrize("n", [3, 4])
def test_the_maps_and_the_pairing_are_the_rule_on_every_cusp(n):
    # read on cusp 0, they give the rule's answer on every cusp and at every other index
    table = cusp_rule(n, compose_atom_pair)

    def images(x, after, i):
        m = table.map_id(x, after)
        return table.maps[m][i] if m is not None else ()

    for y in _cusp_products(n):
        _, c, m, k = y
        for x in _non_cusp_atoms(n):
            after = images(x, True, k)
            assert list(compose_atom_pair(x, y, n) or ()) == [(("C", c, m, j), w) for j, w in after], (x, y)
            before = images(x, False, m)
            assert list(compose_atom_pair(y, x, n) or ()) == [(("C", c, j, k), w) for j, w in before], (x, y)
        for z in _cusp_products(n):
            # z o y = A[k][z.m] CP(c;m,z.n) on one cusp
            want = table.pairing.get(k, {}).get(z[2]) if z[1] == c else None
            assert list(compose_atom_pair(z, y, n) or ()) == ([(("C", c, m, z[3]), want)] if want else []), (z, y)


def test_disjoint_cusp_operands_compose_to_zero_before_any_arithmetic(monkeypatch):
    n = 4
    calls = []
    split = surface._split
    monkeypatch.setattr(surface, "_split", lambda *args: calls.append(args) or split(*args))
    x = build_pi_cusp(n, 0).scale(3) + SurfCorr.of(n, cusp_prod(1, 2, 3))
    y = build_pi_cusp(n, 2) + SurfCorr.of(n, cusp_prod(3, 0, 1), Fraction(1, 2))
    assert compose(x, y).is_zero() and compose(y, x).is_zero()
    assert calls == []
    # a shared cusp, or any atom that is not a component product, takes the full path; it splits an
    # operand the first time it takes it, and keeps the split: x is new in the first pair, y in the third
    pairs = [
        (x, y + SurfCorr.of(n, cusp_prod(1, 1, 1))),
        (x, y + SurfCorr.of(n, VERT)),
        (x + delta(n), y),
        (x.scale(2) + build_pi_bars(n)["pi1"], y),
    ]
    for (a, b), new in zip(pairs, [2, 1, 2, 1]):
        calls.clear()
        assert compose(a, b) == compose_by_atom_pairs(a, b)
        assert len(calls) == new
    calls.clear()
    for a, b in pairs:
        assert compose(a, b) == compose_by_atom_pairs(a, b)
    assert calls == []


def test_the_surface_certificate_splits_each_distinct_operand_once(monkeypatch):
    # 794 products of 36 distinct operands, every one of which meets a product past the disjoint-cusp
    # zero; the pi bars and piC(0) are cached per level, so they are made again here with nothing kept on
    # them.  The 24 cusp projectors are split once in all: each holds the split of piC(0), made with it
    splits, products = [], []
    split, plain_compose = surface._split, surface.compose

    def counted(a, b):
        products.append((a, b))  # held, so that no id is reused
        return plain_compose(a, b)

    surface._pi_bars.cache_clear()
    surface._cusp_template.cache_clear()
    monkeypatch.setattr(surface, "_split", lambda *args: splits.append(args) or split(*args))
    monkeypatch.setattr(surface, "compose", counted)
    try:
        entries = surface_certificate(8)
    finally:
        monkeypatch.undo()
        surface._pi_bars.cache_clear()
        surface._cusp_template.cache_clear()
    assert all(e["status"] == "pass" for e in entries)
    assert len(products) == 794
    assert len({id(x) for pair in products for x in pair}) == 36
    assert len(splits) == 36 - cusp_count(8) + 1


def test_the_surface_certificate_sends_no_component_product_through_the_rule(monkeypatch):
    # once the tables are built, every product with a component product is read from them
    calls = Counter()

    def counted(x, y, level):
        calls[x[0], y[0]] += 1
        return compose_atom_pair(x, y, level)

    monkeypatch.setattr(surface, "compose_atom_pair", counted)
    assert all(e["status"] == "pass" for e in surface_certificate(6))
    assert calls["C", "C"] > 0  # the pairing was read
    calls.clear()
    assert all(e["status"] == "pass" for e in surface_certificate(6))
    assert sum(calls.values()) > 0
    assert [pair for pair in calls if "C" in pair] == []


@pytest.mark.parametrize("kinds", [("V", "C"), ("C", "C")])
def test_a_rule_that_leaves_the_block_is_refused(kinds, monkeypatch):
    # V o CP = V, or R9 with its product on the first slot, cannot be written as a block map or pairing
    def leaves(x, y, level):
        if (x[0], y[0]) == kinds:
            return [(VERT, 1)] if x[0] == "V" else [(("C", x[1], x[2], y[3]), 1)]
        return compose_atom_pair(x, y, level)

    monkeypatch.setattr(surface, "compose_atom_pair", leaves)
    n = 4
    with pytest.raises(UnsupportedCompositionError):
        compose(SurfCorr.of(n, VERT) + build_pi_cusp(n, 0), build_pi_cusp(n, 0))


@pytest.mark.parametrize("bad", [cusp_prod(0, 5, 1), cusp_prod(0, 1, 5), cusp_prod(1, -1, 0), cusp_prod(2, 0, 4)])
def test_compose_rejects_component_indices_out_of_range(bad):
    # an operand holding the atom is refused where it is built, so compose never sees it
    n = 4
    message = re.escape(f"{atom_label(bad)} is outside level 4")
    ident = next(iter(delta(n).nums))
    for build in (lambda: SurfCorr.of(n, bad), lambda: SurfCorr(n, {ident: 1, bad: 1}), lambda: SurfCorr(n, {bad: 0})):
        with pytest.raises(ValueError, match=message):
            build()


# -- compose on random operands ------------------------------------------------------

@st.composite
def keyed_operands(draw, n):
    """Atoms of every kind with small integer and half-integer coefficients.

    Automorphisms come with both signs of s on a few translations, so that
    keys are shared and some sums of numerators cancel; component products
    lie on several cusps.
    """
    ends = enumerate_surf(n)
    autos = [e for e in ends if not e.collapse and e.b1 < 2 and e.b2 < 2]
    collapses = [e for e in ends if e.collapse and e.b2 < 2]
    cusps = st.integers(0, min(2, cusp_count(n) - 1))
    index = st.integers(0, n - 1)
    atom = st.one_of(
        st.builds(lambda e: ("G", e), st.sampled_from(autos)),
        st.builds(lambda e: ("G", e), st.sampled_from(collapses)),
        st.builds(lambda e: ("T", e), st.sampled_from(collapses)),
        st.just(VERT),
        st.builds(cusp_prod, cusps, index, index),
    )
    coeff = st.sampled_from([Fraction(k, 2) for k in (-2, -1, 1, 2, 3)])
    terms = draw(st.lists(st.tuples(atom, coeff), min_size=1, max_size=14))
    total = SurfCorr.zero(n)
    for a, c in terms:
        total = total + SurfCorr.of(n, a, c)
    named = [build_pi_bars(n)["pi1"], build_pi_cusp(n, 0), build_pi_cusp(n, 1)]
    for p in draw(st.lists(st.sampled_from(named), max_size=2)):
        total = total + p.scale(draw(coeff))
    return total


@settings(max_examples=120, deadline=None)
@given(st.data(), st.integers(3, 5))
def test_compose_matches_the_atom_pair_oracle(data, n):
    x = data.draw(keyed_operands(n))
    y = data.draw(keyed_operands(n))
    got = compose(x, y)
    assert got == compose_by_atom_pairs(x, y)
    assert all(type(c) is Fraction and c for c in got.terms.values())


# -- the group ring by the law's arithmetic -------------------------------------------

@pytest.mark.parametrize("n", range(3, 9))
def test_the_table_is_the_compose_built_table(n):
    assert [g.code for g in enumerate_g(n)] == list(range(2 * n * n))
    assert list(law_rows(n)) == g_table_by_compose(n)


@pytest.mark.parametrize("n", [16, 20])
def test_sampled_rows_of_a_large_table_are_the_compose_built_rows(n):
    elems = enumerate_g(n)
    rng = random.Random(n)
    # the first and last rows of both halves, and a sample; the rows are built as they are read, none kept
    sample = {0, n * n - 1, n * n, 2 * n * n - 1, *rng.sample(range(2 * n * n), 12)}
    read = 0
    for i, row in enumerate(law_rows(n)):
        assert len(row) == 2 * n * n
        if i in sample:
            assert row == [surf_compose(elems[i], h).code for h in elems]
        read += 1
    assert read == 2 * n * n


def _calls(codes, build):
    """How many times build() calls each function of codes, counted by a profile hook whatever name it is bound to.

    Every other call of a Python function, build itself included, counts as "other".
    """
    counts = Counter()

    def hook(frame, event, _arg):
        if event == "call":
            counts[codes.get(frame.f_code, "other")] += 1

    sys.setprofile(hook)
    try:
        build()
    finally:
        sys.setprofile(None)
    return counts


def test_the_table_cost_model_at_n8():
    # law_rows is index arithmetic alone, with fewer than two Python-level calls per row and none per entry;
    # aut_table makes one rule call per pair of the 2N^2 graphs, each with one surf_compose call, and no per-pair
    # helper: its other Python-level calls, law_rows' among them, are fewer than 2 (2N^2)
    codes = {surf_compose.__code__: "surf_compose", compose_atom_pair.__code__: "rule"}
    try:
        groups._shifts.cache_clear()
        surface.aut_table.cache_clear()
        counts = _calls(codes, lambda: list(law_rows(8)))
        assert counts.keys() <= {"other"} and counts["other"] < 2 * (2 * 8 * 8) < (2 * 8 * 8) ** 2, counts
        counts = _calls(codes, lambda: surface.aut_table(8, compose_atom_pair))
        assert counts["rule"] == counts["surf_compose"] == (2 * 8 * 8) ** 2 == 16384
        assert counts["other"] < 2 * (2 * 8 * 8) == 256, counts
    finally:
        surface.aut_table.cache_clear()


def test_r1_returns_one_shared_output_per_composite_map():
    n = 8
    graphs = [("G", g) for g in enumerate_g(n)]
    outputs: dict = {}
    for x in graphs:
        for y in graphs:
            out = compose_atom_pair(x, y, n)
            h = surf_compose(x[1], y[1])
            assert out == ((("G", h), 1),) and type(out) is tuple
            assert outputs.setdefault(h, out) is out
    assert len(outputs) == 2 * n * n


def test_the_table_is_the_group_law():
    # law_rows is built by index arithmetic; GElem.mul, the law it replaced, is the oracle, and so are its labels
    for n in range(3, 7):
        elems = enumerate_g(n)
        for g, row in zip(elems, law_rows(n)):
            assert GroupRingElement.label(g) == GElem.of(g).label()
            assert GElem.of(g.inv()) == GElem.of(g).inv()
            for h in elems:
                assert GElem.of(elems[row[h.code]]) == GElem.of(g).mul(GElem.of(h))


@st.composite
def group_operands(draw, n, pairs):
    if pairs:
        g = st.sampled_from(oracle_g(n))
        elem = st.builds(lambda a, b, e: G2Elem(n, a, b, e), g, g, st.booleans())
        named = [g2_sum(s) for s in group_symmetrizers(n)]
    else:
        elem = st.sampled_from(enumerate_g(n))
        named = [epsilon_projector(n), *lambda_theta(n)]
    coeff = st.sampled_from([Fraction(k, 4) for k in (-4, -1, 1, 2, 6)])
    total = G2Sum(n) if pairs else GroupRingElement(n)
    for g, c in draw(st.lists(st.tuples(elem, coeff), min_size=1, max_size=10)):
        total = total + type(total)(n, {g: c})
    for p in draw(st.lists(st.sampled_from(named), max_size=2)):
        total = total + p.scale(draw(coeff))
    return total


@settings(max_examples=120, deadline=None)
@given(st.data(), st.integers(3, 5), st.booleans())
def test_group_ring_product_matches_the_pairwise_oracle(data, n, pairs):
    x = data.draw(group_operands(n, pairs))
    y = data.draw(group_operands(n, pairs))
    got = x * y
    assert got == product(x, y, group_product)
    assert all(type(c) is Fraction and c for c in got.terms.values())
    assert all(type(g) is type(next(iter(x.terms))) for g in got.terms)
    if pairs:
        assert all(type(g.swap) is bool for g in got.terms)


def test_swap_symmetrizers_against_eps2_match_the_pairwise_oracle():
    n = 3
    eps2 = g2_sum(epsilon2_projector(n))
    for s in map(g2_sum, group_symmetrizers(n)):
        assert s * eps2 == product(s, eps2, group_product)
        assert eps2 * s == product(eps2, s, group_product)


@pytest.mark.parametrize(
    "x, y",
    [
        (GroupRingElement.of(3, enumerate_g(3)[1]), GroupRingElement.of(4, enumerate_g(4)[1])),
        (GroupRingElement.of(3, enumerate_g(3)[1]), g2_sum(group_symmetrizers(3)[0])),
        (g2_sum(group_symmetrizers(3)[0]), GroupRingElement.of(3, enumerate_g(3)[1])),
        (g2_sum(group_symmetrizers(3)[0]), g2_sum(group_symmetrizers(4)[0])),
    ],
)
def test_group_ring_product_rejects_other_levels_and_kinds(x, y):
    with pytest.raises(LevelMismatchError):
        x * y


def test_group_ring_product_with_zero_is_zero():
    eps = epsilon_projector(3)
    assert (eps * GroupRingElement(3)).is_zero()
    assert (GroupRingElement(3) * eps).is_zero()


# -- G^2 x| S_2 factored, against G2Elem sums ----------------------------------------

@st.composite
def factored_operands(draw, n):
    """Sums of one to three pure tensors c (a (x) b) sigma^e.  A factor is a sum of up to
    four elements of G, lambda, or 1 + mu(-1), which lambda annihilates, so that products
    cancel; the expansions stay small enough for the pairwise oracle."""
    coeff = st.sampled_from([Fraction(k, 4) for k in (-4, -1, 1, 2, 6)])
    terms = st.lists(st.tuples(st.sampled_from(enumerate_g(n)), coeff), min_size=1, max_size=4)
    named = [lambda_theta(n)[0], GroupRingElement(n, {surf_identity(n): 1, mu_inv(n): 1})]
    factor = st.one_of(st.builds(lambda ts: GroupRingElement(n, dict(ts)), terms), st.sampled_from(named))
    total = TensorExpr(n)
    for a, b, e, c in draw(st.lists(st.tuples(factor, factor, st.booleans(), coeff), min_size=1, max_size=3)):
        total = total + TensorExpr.pure(a, b, e).scale(c)
    return total


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(3, 5))
def test_factored_g2_products_and_zero_test_match_the_pairwise_oracle(data, n):
    x = data.draw(factored_operands(n))
    y = data.draw(factored_operands(n))
    got = x.compose(y)
    want = product(g2_sum(x), g2_sum(y), group_product)
    assert g2_sum(got) == want
    assert (got - factored(want)).is_zero()
    g = st.sampled_from(oracle_g(n))
    extra = data.draw(st.builds(lambda a, b, e: G2Sum(n, {G2Elem(n, a, b, e): 1}), g, g, st.booleans()))
    assert not (got - factored(want + extra)).is_zero()
    assert (x - y).is_zero() == (g2_sum(x) == g2_sum(y))


def test_factored_swap_rule_on_every_element_at_n3():
    # y holds every element b_j once, with coefficient j + 1; left multiplication by a is a
    # bijection, so a . y equal to the oracle's means a b_j right for every j
    n = 3
    g = oracle_g(n)
    elems = [G2Elem(n, a, b, e) for e in (False, True) for a in g for b in g]
    y = G2Sum(n, {b: j + 1 for j, b in enumerate(elems)})
    y_factored = factored(y)
    for a in elems:
        x = TensorExpr.pure(GroupRingElement.of(n, a.g1.end()), GroupRingElement.of(n, a.g2.end()), a.swap)
        assert g2_sum(x.compose(y_factored)) == G2Sum(n, {a.mul(b): j + 1 for j, b in enumerate(elems)}), a


@pytest.mark.parametrize("n", [3, 4, 5])
def test_named_g2_elements_are_the_term_by_term_ones(n):
    half = Fraction(1, 2)
    a2, s2 = map(g2_sum, group_symmetrizers(n))
    assert a2 == G2Sum(n, {g2_identity(n): half, sigma_swap(n): half})
    assert s2 == G2Sum(n, {g2_identity(n): half, sigma_swap(n): -half})
    assert g2_sum(epsilon2_projector(n)) == g2_epsilon2(n)
