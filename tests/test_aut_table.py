"""Automorphism graph products: the group law by `groups.id_product`, or the rule pair by pair.

`surface.compose` multiplies two automorphism graphs by one rule.
`surface.aut_table` returns the graphs by id for the rule of
`compose_atom_pair` without reading it: that its R1 is the law on every
pair is checked here.  Any other rule, a patched fault or a wrapper that
changes nothing, is called on every pair, row by row, and each row is
compared with the law's row as `groups.law_rows` builds it.  When every
row agrees `aut_table` returns the graphs by id, and graphs multiply by
`groups.id_product`; at the first row that differs it returns None, and
`compose` calls the rule pair by pair.  These tests check the law's rows
entry by entry against the rule on every pair at N = 3..8, that a
patched rule gets no table and reaches `compose` pair by pair while the
table of the unpatched rule stays as it was (also a fault that
`functools.wraps` gives the rule's name and attributes), and that
`groups.id_product` drops the sums that cancel, which the dict loop it
replaced, `support.id_product_by_dict`, keeps.
"""

import functools
from fractions import Fraction

import pytest

from motive_calc import surface
from motive_calc.endos import surf_end
from motive_calc.groups import id_product, law_rows
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

from support import compose_by_atom_pairs, enumerate_surf, g_table_by_compose, id_product_by_dict


@pytest.mark.parametrize("n", range(3, 9))
def test_every_table_entry_is_the_rule_on_its_pair(n):
    # aut_table trusts the real rule without reading it: this is its check, (2N^2)^2 pairs, 35,020 at N = 3..8
    auts = [("G", e) for e in enumerate_surf(n) if not e.collapse]
    assert any(e.s == -1 for _, e in auts)  # inversions included
    atoms = aut_table(n, compose_atom_pair)
    assert atoms == auts and [a[1].code for a in atoms] == list(range(2 * n * n))
    rows = list(law_rows(n))
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


def _inversions_doubled_under_wraps(rule):
    # the rule's name, module and __dict__ copied onto the fault: still another rule, checked pair by pair
    return functools.wraps(rule)(_inversions_doubled(rule))


FAULTS = [_inversions_doubled, _one_pair_dropped, _one_pair_with_v, _inversions_doubled_under_wraps]


@pytest.mark.parametrize("fault", FAULTS)
def test_a_patched_rule_gets_no_table(fault):
    for n in (3, 4):
        assert aut_table(n, fault(compose_atom_pair)) is None
    assert aut_table(3, compose_atom_pair) is not None


def test_sums_that_cancel_leave_nothing():
    g11 = surf_end(3, 1, 1).code
    assert id_product([(g11, 2), (0, 1)], [(0, 5)], 3) == sorted([(g11, 10), (0, 5)])
    # the dict loop keeps the zeros of the sums that cancel; the product drops them
    assert id_product([(g11, 2), (g11, -2)], [(0, 5)], 3) == []
    assert set(id_product_by_dict([(g11, 2), (g11, -2)], [(0, 5)], g_table_by_compose(3)).values()) == {0}


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
