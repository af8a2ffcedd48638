"""Q[G] products by the group law, against the pair loop on the table the program once kept.

`groups.law_product` multiplies terms of Q[G] as four cyclic convolutions
over (Z/N)^2, each one big-integer product (Kronecker substitution).
`groups.id_product` takes a product to it when the operands have more than
`LAW_PAIRS_PER_ID` pairs per id; anything else is the pair loop, which
computes each product's id by arithmetic.  Both are checked against the
dict loop the program once had, `support.id_product_by_dict`, on the
`surf_compose`-built table `support.g_table_by_compose`, on both sides of
that rule, with ids that repeat, sums that cancel and coefficients of
+-2^70.

Automorphism graphs multiply by `id_product` or not by the law at all:
`surface.aut_table` gives the graphs by id when the rule agrees with the
law on every pair, and None otherwise.  `GroupRingElement.__mul__` and
`surface.compose` read `groups.id_product` at each call, so a patched law
must reach every Q[G] product; a rule that differs from the law must never
reach the kernel, and a rule that differs on one pair must get no table,
calling the rule on no row past the one that differs.
"""

import tracemalloc
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motive_calc import groups, surface
from motive_calc.endos import SurfEnd, surf_end
from motive_calc.groups import (
    LAW_PAIRS_PER_ID, GroupRingElement, enumerate_g, epsilon_projector, id_product, lambda_theta, law_product, mu_inv,
    tau)
from motive_calc.sums import product
from motive_calc.surface import (
    VERT, SurfCorr, aut_table, build_pi_bars, build_pi_f, compose, compose_atom_pair, cusp_prod, delta)

from support import compose_by_atom_pairs, g_table_by_compose, product_on_table

_law_product = groups.law_product
# the oracle: the pair loop on the compose-built table, its zero sums dropped, by id
_dict_loop = product_on_table(lru_cache(maxsize=None)(g_table_by_compose))


def _dense_terms(n: int) -> int:
    """The fewest terms per operand for which two operands of that many take the kernel."""
    k = 1
    while k * k <= LAW_PAIRS_PER_ID * 2 * n * n:
        k += 1
    return k


@st.composite
def _terms(draw, n: int, dense: bool) -> list:
    """Terms (id, v) from a pool of ids of G, so that ids repeat; some are taken back, so that sums cancel."""
    size = 2 * n * n
    pool = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=size if dense else 4))
    value = (st.integers(-4, 4) | st.sampled_from([2 ** 70, -2 ** 70, 2 ** 70 - 1])).filter(bool)
    k = _dense_terms(n)
    low, high = (k, k + 8) if dense else (0, 10)
    terms = draw(st.lists(st.tuples(st.sampled_from(pool), value), min_size=low, max_size=high))
    terms += [(i, -v) for i, v in draw(st.lists(st.sampled_from(terms), max_size=4))] if terms else []
    return draw(st.permutations(terms))


@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(3, 10))
def test_the_kernel_is_the_dict_loop_on_both_sides_of_the_size_rule(dense, data, n):
    xs, ys = data.draw(_terms(n, dense)), data.draw(_terms(n, dense))
    want = _dict_loop(xs, ys, n)
    assert law_product(xs, ys, n) == want
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groups, "law_product", lambda *args: calls.append(args) or _law_product(*args))
        assert id_product(xs, ys, n) == want
    assert bool(calls) == dense == (len(xs) * len(ys) > LAW_PAIRS_PER_ID * 2 * n * n)


@pytest.mark.parametrize("n", [3, 6, 10])
def test_a_slot_at_the_bound_needs_the_full_width(n, monkeypatch):
    # x = y = 2N^2 eps: 1 on each (b, +1) and -1 on each (b, -1), so each sum of x y is 2N^2 = sum |x| max |y|
    xs = ys = [(i, 1 if i < n * n else -1) for i in range(2 * n * n)]
    want = _dict_loop(xs, ys, n)
    assert max(abs(v) for _, v in want) == 2 * n * n
    assert law_product(xs, ys, n) == want
    monkeypatch.setattr(groups, "_slot_width", lambda bound: bound.bit_length())
    assert law_product(xs, ys, n) != want


def test_zero_operands_and_no_terms_give_no_terms():
    assert law_product([], [(0, 1)], 4) == []
    assert law_product([(3, 2), (3, -2)], [(0, 1), (5, 7)], 4) == []


def test_a_product_of_one_pair_touches_one_id_whatever_the_size():
    # tau(0,1) tau(0,2) = tau(0,3) among 2 * 10^4 ids, once the level's shift rows are built: no list of a slot per id
    n = 100
    try:
        id_product([(0, 1)], [(0, 1)], n)
        tracemalloc.start()
        try:
            got = id_product([(1, 2)], [(2, 3)], n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    finally:
        groups._shifts.cache_clear()
    assert got == [(3, 6)]
    assert peak < 2 ** 16 < 8 * 2 * n * n


def test_the_products_of_a_level_keep_no_table():
    # what a level's automorphism graph check and its Q[G] products leave behind, once their results are dropped
    n = 16
    eps, (lam, theta) = epsilon_projector(n), lambda_theta(n)
    surface.aut_table.cache_clear()
    for f in vars(groups).values():  # the caches of the group layer itself, not those of the level's maps
        if hasattr(f, "cache_clear") and f.__module__ == groups.__name__:
            f.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert aut_table(n, compose_atom_pair) is not None
        assert eps * eps == eps and theta * lam == eps
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 2 ** 19, kept


# -- which laws reach the kernel ------------------------------------------------------

@lru_cache(maxsize=None)
def _sign_dropped_table(n: int) -> list:
    """The product table of G with a law that forgets s on b1: (b, s)(c, t) = (b1 + c1, b2 + s c2, s t)."""
    elems = enumerate_g(n)

    def mul(g, h):
        return SurfEnd(n, (g.b1 + h.b1) % n, (g.b2 + g.s * h.b2) % n, g.s * h.s, False)

    return [[mul(g, h).code for h in elems] for g in elems]


def _operands(n: int) -> list:
    bars = build_pi_bars(n)
    mixed = SurfCorr(n, {("G", surf_end(n, 1, 0, -1)): Fraction(1, 2), ("G", surf_end(n, 1, 1)): -3,
                         VERT: Fraction(1, 3), cusp_prod(0, 1, 2): 5})
    return [bars["pi1"], build_pi_f(n), delta(n) - build_pi_f(n), bars["pi1"] + mixed]


def test_the_real_rule_keeps_no_table_of_its_own():
    for n in (3, 6):
        atoms = aut_table(n, compose_atom_pair)
        assert atoms == [("G", g) for g in enumerate_g(n)]


def test_a_patched_id_product_reaches_every_q_g_product(monkeypatch):
    n = 6
    ops = _operands(n)
    before = [compose(x, y) for x in ops for y in ops]
    assert aut_table(n, compose_atom_pair) is not None  # built before the patch, and kept
    calls = []
    sign_dropped = product_on_table(_sign_dropped_table)
    monkeypatch.setattr(groups, "id_product", lambda *args: calls.append(args[2]) or sign_dropped(*args))
    # the surface products of automorphism graphs read the patched law, dense or not
    got = [compose(x, y) for x in ops for y in ops]
    assert got != before
    assert got == [product(x, y, _sign_dropped_rule(n)) for x in ops for y in ops]
    surface_calls = len(calls)
    assert surface_calls and set(calls) == {n}
    # the Q[G] product reads it too: tau(1,1) mu_inv tau(1,1)^-1 is no longer tau(2,2) mu_inv
    t, t_inv, m = (GroupRingElement.of(n, g) for g in (tau(n, 1, 1), tau(n, -1, -1), mu_inv(n)))
    assert t * m * t_inv != GroupRingElement.of(n, tau(n, 2, 2)) * m
    assert len(calls) == surface_calls + 3


def _sign_dropped_rule(n: int):
    """The surface rule with the sign-dropped law on pairs of automorphism graphs."""
    elems, law = enumerate_g(n), _sign_dropped_table(n)

    def rule(x, y, level):
        if x[0] == y[0] == "G" and not x[1].collapse and not y[1].collapse:
            return ((("G", elems[law[x[1].code][y[1].code]]), 1),)
        return compose_atom_pair(x, y, level)

    return rule


def test_a_rule_that_differs_from_the_law_never_reaches_the_kernel(monkeypatch):
    n = 6
    rule = _sign_dropped_rule(n)

    def refused(*args):
        raise AssertionError("the kernel was reached")

    monkeypatch.setattr(surface, "compose_atom_pair", rule)
    monkeypatch.setattr(groups, "law_product", refused)
    assert aut_table(n, rule) is None
    ops = _operands(n)
    assert len(build_pi_bars(n)["pi1"].nums) ** 2 > LAW_PAIRS_PER_ID * 2 * n * n  # dense enough for the kernel
    got = [compose(x, y) for x in ops for y in ops]
    assert got == [compose_by_atom_pairs(x, y) for x in ops for y in ops]
    monkeypatch.undo()
    assert got != [compose(x, y) for x in ops for y in ops]


def test_a_rule_that_differs_on_one_pair_gets_no_table_past_its_row(monkeypatch):
    n = 4
    x, y = ("G", surf_end(n, 1, 0, -1)), ("G", surf_end(n, 0, 1))
    calls = []

    def dropped(a, b, level):
        calls.append((a, b))
        return None if (a, b) == (x, y) else compose_atom_pair(a, b, level)

    assert aut_table(n, dropped) is None
    assert len(calls) <= (x[1].code + 1) * 2 * n * n
    assert (x, y) in calls
    # compose then calls the rule on every pair of automorphism graphs, as the atom-pair oracle does
    monkeypatch.setattr(surface, "compose_atom_pair", dropped)
    ops = _operands(n)
    got = [compose(a, b) for a in ops for b in ops]
    assert got == [compose_by_atom_pairs(a, b) for a in ops for b in ops]
    monkeypatch.undo()
    assert got != [compose(a, b) for a in ops for b in ops]
