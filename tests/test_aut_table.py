"""Automorphism graph products: the group law's table, or the rule pair by pair.

`surface.compose` multiplies two automorphism graphs by one rule.
`surface.aut_table` calls the rule that `compose` finds at its call on
every pair, row by row, and returns the law's table, `groups.g_table`'s
rows with the graphs they number, when every row agrees with the law; at
the first row that differs it returns None, and `compose` calls the rule
pair by pair.  These tests check the table entry by entry against the
rule, that a patched rule gets no table and reaches `compose` pair by
pair while the table of the unpatched rule stays as it was, and
`groups.id_product`, which sums the products read from a table by id,
against the dict loop it replaced, `support.id_product_by_dict`.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motive_calc import surface
from motive_calc.endos import surf_end
from motive_calc.groups import g_table, id_product
from motive_calc.surface import (
    VERT,
    SurfCorr,
    aut_table,
    build_pi_bars,
    build_pi_cusp,
    build_pi_f,
    compose,
    compose_atom_pair,
    cusp_prod,
    delta,
)

from support import compose_by_atom_pairs, enumerate_surf, id_product_by_dict


@pytest.mark.parametrize("n", [3, 4])
def test_every_table_entry_is_the_rule_on_its_pair(n):
    auts = [("G", e) for e in enumerate_surf(n) if not e.collapse]
    assert any(e.s == -1 for _, e in auts)  # inversions included
    atoms, rows = aut_table(n, compose_atom_pair)
    assert atoms == auts and [a[1].code for a in atoms] == list(range(2 * n * n))
    assert len(rows) == 2 * n * n
    for x, row in zip(atoms, rows):
        assert len(row) == 2 * n * n
        for y, entry in zip(atoms, row):
            assert [(atoms[entry], 1)] == list(compose_atom_pair(x, y, n))


def _inversions_doubled(rule):
    def doubled(x, y, level):
        produced = rule(x, y, level)
        if produced and x[0] == "G" and y[0] == "G" and not x[1].collapse and x[1].s == -1:
            return [(atom, 2 * k) for atom, k in produced]
        return produced

    return doubled


def _one_pair_dropped(rule):
    def dropped(x, y, level):
        if x == ("G", surf_end(level, 1, 0, -1)) and y == ("G", surf_end(level, 0, 1)):
            return None
        return rule(x, y, level)

    return dropped


def _one_pair_with_v(rule):
    # an atom outside the 2N^2 graphs, and two atoms in one output
    def with_v(x, y, level):
        produced = rule(x, y, level)
        if x == ("G", surf_end(level, 1, 1)) and y[0] == "G" and not y[1].collapse:
            return [*produced, (VERT, 3)]
        return produced

    return with_v


FAULTS = [_inversions_doubled, _one_pair_dropped, _one_pair_with_v]


@pytest.mark.parametrize("fault", FAULTS)
def test_a_patched_rule_gets_no_table(fault):
    for n in (3, 4):
        assert aut_table(n, fault(compose_atom_pair)) is None
    assert aut_table(3, compose_atom_pair) is not None


def _id_tables():
    """(name, rows, level): `g_table` at N = 3..6, and a plain table of another law, the cyclic group of order 2N^2."""
    tables = [(f"g_table({n})", g_table(n)[1], n) for n in range(3, 7)]
    size = 2 * 4 * 4
    tables.append(("Z/32 at N = 4", [[(i + j) % size for j in range(size)] for i in range(size)], 4))
    return tables


ID_TABLES = _id_tables()


@st.composite
def _id_terms(draw, level: int) -> list:
    """Terms (id, v) of ids in G, drawn from a few so that they repeat, some taken back so that sums cancel."""
    pool = draw(st.lists(st.integers(0, 2 * level * level - 1), min_size=1, max_size=4))
    value = (st.integers(-4, 4) | st.integers(-2 ** 70, 2 ** 70)).filter(bool)
    terms = draw(st.lists(st.tuples(st.sampled_from(pool), value), max_size=10))
    if terms:
        terms += [(i, -v) for i, v in draw(st.lists(st.sampled_from(terms), max_size=4))]
    return draw(st.permutations(terms))


@pytest.mark.parametrize("table", ID_TABLES, ids=[t[0] for t in ID_TABLES])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_id_product_is_the_dict_loop_it_replaced(table, data):
    _, rows, n = table
    xs, ys = data.draw(_id_terms(n)), data.draw(_id_terms(n))
    got = id_product(xs, ys, rows)
    want = id_product_by_dict(xs, ys, rows)
    assert got == sorted((k, v) for k, v in want.items() if v)
    assert all(v for _, v in got)


def test_sums_that_cancel_leave_nothing():
    rows = g_table(3)[1]
    g11 = surf_end(3, 1, 1).code
    assert id_product([(g11, 2), (0, 1)], [(0, 5)], rows) == sorted([(g11, 10), (0, 5)])
    # the dict loop keeps the zeros of the sums that cancel; the product drops them
    assert id_product([(g11, 2), (g11, -2)], [(0, 5)], rows) == []
    assert set(id_product_by_dict([(g11, 2), (g11, -2)], [(0, 5)], rows).values()) == {0}


def _operands(n):
    bars = build_pi_bars(n)
    pi_f = build_pi_f(n)
    mixed = SurfCorr(n, {
        ("G", surf_end(n, 1, 0, -1)): Fraction(1, 2),
        ("G", surf_end(n, 1, 1)): Fraction(-3),
        ("G", surf_end(n, 0, 1, 1, True)): Fraction(2),
        VERT: Fraction(1, 3),
        cusp_prod(0, 1, 2): Fraction(5),
    })
    return [bars["pi1"], pi_f, delta(n) - pi_f, bars["pi0"] + bars["pi1"], mixed, build_pi_cusp(n, 1) + mixed]


@pytest.mark.parametrize("fault", FAULTS)
def test_a_patched_rule_reaches_compose_pair_by_pair(fault, monkeypatch):
    n = 4
    operands = _operands(n)
    pairs = [(x, y) for x in operands for y in operands]
    unpatched = [compose(x, y) for x, y in pairs]
    assert unpatched == [compose_by_atom_pairs(x, y) for x, y in pairs]
    rule = fault(compose_atom_pair)
    monkeypatch.setattr(surface, "compose_atom_pair", rule)
    patched = [compose(x, y) for x, y in pairs]
    assert aut_table(n, rule) is None
    assert patched == [compose_by_atom_pairs(x, y) for x, y in pairs]
    assert patched != unpatched  # the fault shows
    monkeypatch.undo()
    assert [compose(x, y) for x, y in pairs] == unpatched
