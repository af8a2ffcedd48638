"""Q[G] products by the group law, against the pair loop, and the tables that reach them.

`groups.law_product` multiplies terms of Q[G] as four cyclic convolutions
over (Z/N)^2, each one big-integer product (Kronecker substitution).
`groups.id_product` takes a product to it only on the rows of the law's
own table (`groups.LawRows`) and only when the operands have more than
`LAW_PAIRS_PER_ID` pairs per id; anything else is the pair loop.
Both are checked against the dict loop the program once had,
`support.id_product_by_dict`, on both sides of that rule, with ids that
repeat, sums that cancel and coefficients of +-2^70.

Automorphism graphs multiply on the law's table or not by a table at
all: `surface.aut_table` is the `g_table` rows it checked at the build
when the rule agrees with the law on every pair, and None otherwise.  So
a `g_table` patched after the build must change no surface product, a
rule and a `g_table` patched alike must never reach the kernel, and a
rule that differs on one pair must get no table, calling the rule on no
row past the one that differs.
"""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motive_calc import groups, surface
from motive_calc.endos import SurfEnd, surf_end
from motive_calc.groups import (
    LAW_PAIRS_PER_ID, GroupRingElement, LawRows, enumerate_g, epsilon_projector, g_table, id_product, law_product,
    mu_inv, tau)
from motive_calc.surface import (
    VERT, SurfCorr, aut_table, build_pi_bars, build_pi_f, compose, compose_atom_pair, cusp_prod, delta)

from support import compose_by_atom_pairs, id_product_by_dict

_g_table, _law_product = groups.g_table, groups.law_product


def _dict_loop(xs, ys, n):
    """The oracle: the pair loop on the law's table, its zero sums dropped, by id."""
    return sorted((k, v) for k, v in id_product_by_dict(xs, ys, g_table(n)[1]).items() if v)


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
        assert id_product(xs, ys, g_table(n)[1]) == want
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


class _Rows:
    """The rows of `g_table(3)` as a table of 10^7 ids."""

    rows = g_table(3)[1]

    def __len__(self):
        return 10 ** 7

    def __getitem__(self, i):
        return self.rows[i]


def test_a_product_of_one_pair_touches_one_id_whatever_the_size():
    rows = _Rows()
    tracemalloc.start()
    try:
        got = id_product([(1, 2)], [(2, 3)], rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [(rows[1][2], 6)]
    assert peak < 2 ** 20


# -- which tables reach the kernel ------------------------------------------------------

def _sign_dropped(n: int) -> tuple:
    """G with a law that forgets s on b1: (b, s)(c, t) = (b1 + c1, b2 + s c2, s t), as a plain table."""
    elems = enumerate_g(n)

    def mul(g, h):
        return SurfEnd(n, (g.b1 + h.b1) % n, (g.b2 + g.s * h.b2) % n, g.s * h.s, False)

    return elems, [[mul(g, h).code for h in elems] for g in elems]


def _operands(n: int) -> list:
    bars = build_pi_bars(n)
    mixed = SurfCorr(n, {("G", surf_end(n, 1, 0, -1)): Fraction(1, 2), ("G", surf_end(n, 1, 1)): -3,
                         VERT: Fraction(1, 3), cusp_prod(0, 1, 2): 5})
    return [bars["pi1"], build_pi_f(n), delta(n) - build_pi_f(n), bars["pi1"] + mixed]


def test_the_real_rule_keeps_no_table_of_its_own():
    for n in (3, 6):
        atoms, rows = aut_table(n, compose_atom_pair)
        assert rows is g_table(n)[1] and type(rows) is LawRows
        assert len(atoms) == 2 * n * n


def test_a_g_table_patched_after_the_build_changes_no_surface_product(monkeypatch):
    n = 6
    table = aut_table(n, compose_atom_pair)
    ops = _operands(n)
    before = [compose(x, y) for x in ops for y in ops]
    patched = _sign_dropped(n)
    monkeypatch.setattr(groups, "g_table", lambda k: patched if k == n else _g_table(k))
    assert aut_table(n, compose_atom_pair) is table
    assert [compose(x, y) for x in ops for y in ops] == before
    # the Q[G] product reads the patched table: tau(1,1) mu_inv tau(1,1)^-1 is no longer tau(2,2) mu_inv
    t, t_inv, m = (GroupRingElement.of(n, g) for g in (tau(n, 1, 1), tau(n, -1, -1), mu_inv(n)))
    assert t * m * t_inv != GroupRingElement.of(n, tau(n, 2, 2)) * m


def test_a_rule_and_a_g_table_patched_alike_never_reach_the_kernel(monkeypatch):
    n = 6
    patched = _sign_dropped(n)
    elems, law = patched

    def rule(x, y, level):
        if x[0] == y[0] == "G" and not x[1].collapse and not y[1].collapse:
            return ((("G", elems[law[x[1].code][y[1].code]]), 1),)
        return compose_atom_pair(x, y, level)

    def refused(*args):
        raise AssertionError("the kernel was reached")

    monkeypatch.setattr(groups, "g_table", lambda k: patched if k == n else _g_table(k))
    monkeypatch.setattr(surface, "compose_atom_pair", rule)
    monkeypatch.setattr(groups, "law_product", refused)
    assert aut_table(n, rule)[1] is law  # the rule agrees with the patched law on every pair
    ops = _operands(n)
    got = [compose(x, y) for x in ops for y in ops]
    assert got == [compose_by_atom_pairs(x, y) for x in ops for y in ops]
    eps = epsilon_projector(n)
    assert len(eps.nums) ** 2 > LAW_PAIRS_PER_ID * 2 * n * n  # dense enough for the kernel on the law's rows
    codes = [(g.code, v) for g, v in eps.nums.items()]
    want = id_product_by_dict(codes, codes, law)
    assert eps * eps == GroupRingElement.over(n, eps.d ** 2, {elems[k]: v for k, v in want.items() if v})


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
