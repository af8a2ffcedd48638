"""The tabulated rule on automorphism graph pairs, against the rule itself.

`surface.compose` reads the product of two automorphism graphs from
`surface.aut_table`, a table of the rule that `compose` finds at its call,
on integer ids.  These tests check the table entry by entry, decoding
both of its entry forms (a bare graph id, or an index into the general
outputs), and that a patched rule reaches `compose` through a table of its own while the table
of the unpatched rule stays as it was.  `groups.id_product`, which sums the products read from
such a table, or from `g_table`, by id, is checked against the dict loop it replaced,
`support.id_product_by_dict`.
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
    aut_index,
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


def _decoded(table, entry) -> list:
    """An entry of `aut_table` as the (atom, multiplier) pairs the rule returned."""
    atoms, _, general = table
    return [(atoms[entry], 1)] if entry >= 0 else [(atoms[k], m) for k, m in general[~entry]]


@pytest.mark.parametrize("n", [3, 4])
def test_every_table_entry_is_the_rule_on_its_pair(n):
    auts = [("G", e) for e in enumerate_surf(n) if not e.collapse]
    assert any(e.s == -1 for _, e in auts)  # inversions included
    index = aut_index(n)
    assert list(index) == auts
    assert [index[("G", surf_end(n, g.b1, g.b2, g.s))] for g in g_table(n)[0]] == list(range(2 * n * n))
    table = aut_table(n, compose_atom_pair)
    atoms, rows, general = table
    assert atoms == auts  # R1 produces no atom outside the 2N^2 graphs
    assert len(rows) == 2 * n * n
    for x in auts:
        row = rows[index[x]]
        assert len(row) == 2 * n * n
        for y in auts:
            assert _decoded(table, row[index[y]]) == list(compose_atom_pair(x, y, n) or ())
    # R1 gives one graph with multiplier 1 on every pair: each entry is that graph's bare id
    assert general == []
    assert all(type(entry) is int and 0 <= entry < 2 * n * n for row in rows for entry in row)

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
    # an atom outside the 2N^2 graphs, and two atoms in one entry
    def with_v(x, y, level):
        produced = rule(x, y, level)
        if x == ("G", surf_end(level, 1, 1)) and y[0] == "G" and not y[1].collapse:
            return [*produced, (VERT, 3)]
        return produced

    return with_v


@pytest.mark.parametrize("fault", [_inversions_doubled, _one_pair_dropped, _one_pair_with_v])
def test_every_entry_of_a_patched_rule_decodes_to_its_output(fault):
    n = 3
    rule = fault(compose_atom_pair)
    auts = list(aut_index(n))
    table = aut_table(n, rule)
    atoms, rows, general = table
    for x, row in zip(auts, rows):
        for y, entry in zip(auts, row):
            assert _decoded(table, entry) == list(rule(x, y, n) or ())
    # only the outputs that are not one graph with multiplier 1 are general, and equal ones are one index
    assert general and len(set(general)) == len(general)
    assert {~e for row in rows for e in row if e < 0} == set(range(len(general)))


def _id_tables():
    """(name, rows, size, general, level): `g_table` at N = 3..6, and `aut_table` at N = 3 of each patched rule."""
    tables = [(f"g_table({n})", g_table(n)[1], 2 * n * n, (), n) for n in range(3, 7)]
    for fault in (_inversions_doubled, _one_pair_dropped, _one_pair_with_v):
        atoms, rows, general = aut_table(3, fault(compose_atom_pair))
        tables.append((f"aut_table(3) of {fault.__name__}", rows, len(atoms), general, 3))
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
    _, rows, size, general, n = table
    xs, ys = data.draw(_id_terms(n)), data.draw(_id_terms(n))
    got = id_product(xs, ys, rows, size, general)
    want = id_product_by_dict(xs, ys, rows, general)
    assert got == sorted((k, v) for k, v in want.items() if v)
    assert all(v for _, v in got)


def test_the_patched_tables_have_general_entries_and_atoms_past_g():
    patched = [table for table in ID_TABLES if table[0].startswith("aut_table")]
    assert len(patched) == 3 and all(general for _, _, _, general, _ in patched)
    _, rows, size, general, n = patched[-1]
    assert size == 2 * n * n + 1  # V, the atom with_v adds
    g11 = surf_end(n, 1, 1).code
    got = id_product([(g11, 2), (0, 1)], [(0, 5)], rows, size, general)
    assert got == sorted([(g11, 10), (0, 5), (size - 1, 30)])
    # sums that cancel leave nothing, where the dict loop keeps their zeros
    assert id_product([(g11, 2), (g11, -2)], [(0, 5)], rows, size, general) == []
    assert set(id_product_by_dict([(g11, 2), (g11, -2)], [(0, 5)], rows, general).values()) == {0}


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


@pytest.mark.parametrize("fault", [_inversions_doubled, _one_pair_dropped, _one_pair_with_v])
def test_a_patched_rule_reaches_compose_through_its_own_table(fault, monkeypatch):
    n = 4
    operands = _operands(n)
    pairs = [(x, y) for x in operands for y in operands]
    unpatched = [compose(x, y) for x, y in pairs]
    assert unpatched == [compose_by_atom_pairs(x, y) for x, y in pairs]
    monkeypatch.setattr(surface, "compose_atom_pair", fault(compose_atom_pair))
    patched = [compose(x, y) for x, y in pairs]
    assert patched == [compose_by_atom_pairs(x, y) for x, y in pairs]
    assert patched != unpatched  # the fault shows
    monkeypatch.undo()
    assert [compose(x, y) for x, y in pairs] == unpatched
