"""Mutation tests: with one rule or one projector coefficient deliberately
wrong, the certificate that covers it must report a failure.  A certificate
that still reads all-pass under such a fault would be checking nothing."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motive_calc import groups, surface, tensor, threefold
from motive_calc.endos import SurfEnd, mu0, surf_end, surf_identity
from motive_calc.exact import DegreeError, fmt_rational
from motive_calc.groups import GroupRingElement, group_certificate, mu_inv
from motive_calc.levels import cusp_count
from motive_calc.sums import Certificate, linear_map, product
from motive_calc.surface import (
    DA_FIBER, GENERIC_FIBER, VERT, DivClass, SurfCorr, act_on_divisor, build_pi_bars, build_pi_cusp,
    cusp_prod, open_graph, surface_certificate)
from motive_calc.tensor import TensorExpr, tensor_vanishes
from motive_calc.threefold import OpenTCorr, TCorr, t_compose, threefold_certificate

from flat_threefold import expands_to_zero
from support import (
    G2Sum, act_on_divisor_linear, compose_by_atom_pairs, enumerate_surf, g2_epsilon2, g2_identity, g2_sum,
    g_table_by_compose, group_product, linear_class, parity_residual_by_expansion, product_on_table,
    restriction_residual_by_expansion, sigma_swap)


def _failed(entries):
    return [e["name"] for e in entries if e["status"] == "fail"]


@pytest.mark.parametrize("certificate", [surface_certificate, group_certificate])
def test_certificates_pass_unmutated(certificate):
    assert _failed(certificate(4)) == []


def _bumped(x, atom):
    """x with the coefficient of atom raised by 1."""
    return x + x.over(x.level, 1, {atom: 1})


def _bump_first(x):
    """x with the coefficient of its first atom in print order raised by 1."""
    return _bumped(x, min(x.terms, key=x.sort_key))


def test_surface_certificate_fails_with_r9_pairing_doubled(monkeypatch):
    rule = surface.compose_atom_pair

    def doubled_r9(x, y, level):
        produced = rule(x, y, level)
        if produced and x[0] == "C" and y[0] == "C":
            return [(atom, 2 * k) for atom, k in produced]
        return produced

    monkeypatch.setattr(surface, "compose_atom_pair", doubled_r9)
    failed = _failed(surface_certificate(4))
    assert "kronecker:piC(0).piC(0)" in failed


def test_surface_certificate_fails_with_an_inversion_rule_doubled(monkeypatch):
    # automorphism graph pairs are read from a table of the rule, which must be the patched one
    rule = surface.compose_atom_pair

    def doubled_r1(x, y, level):
        produced = rule(x, y, level)
        if produced and x[0] == "G" and y[0] == "G" and not x[1].collapse and x[1].s == -1:
            return [(atom, 2 * k) for atom, k in produced]
        return produced

    monkeypatch.setattr(surface, "compose_atom_pair", doubled_r1)
    failed = _failed(surface_certificate(4))
    assert "kronecker:pi1.pi1" in failed


def test_surface_certificate_fails_with_a_cusp_projector_coefficient_changed(monkeypatch):
    build = surface.build_pi_cusp

    def one_coefficient_off(n, c):
        pc = build(n, c)
        return _bump_first(pc) if (n, c) == (4, 0) else pc

    monkeypatch.setattr(surface, "build_pi_cusp", one_coefficient_off)
    failed = _failed(surface_certificate(4))
    assert "kronecker:piC(0).piC(0)" in failed


def test_group_certificate_fails_with_an_epsilon_coefficient_changed(monkeypatch):
    build = groups.epsilon_projector

    def one_coefficient_off(n):
        eps = build(n)
        g = min(eps.terms, key=lambda g: (g.s, g.b1, g.b2))
        terms = dict(eps.terms)
        terms[g] += Fraction(1, 2 * n * n)
        return groups.GroupRingElement(n, terms)

    monkeypatch.setattr(groups, "epsilon_projector", one_coefficient_off)
    failed = _failed(group_certificate(4))
    assert "eps:idempotent" in failed


_id_product = groups.id_product


@lru_cache(maxsize=None)
def _table_one_entry_off(n):
    """The product table of G with tau(0,1) tau(0,1), which is tau(0,2), sent to tau(0,3 mod N)."""
    table = g_table_by_compose(n)
    t01, t02, t03 = (groups.tau(n, 0, b % n).code for b in (1, 2, 3))
    assert table[t01][t01] == t02
    table[t01][t01] = t03
    return table


# the law with that one entry off, at every level
_one_table_entry_off = product_on_table(_table_one_entry_off)


def test_group_certificate_fails_with_one_product_table_entry_changed(monkeypatch):
    # the law patched at N = 4 only: the products of another level are the law's
    def at_4(xs, ys, n):
        return (_one_table_entry_off if n == 4 else _id_product)(xs, ys, n)

    monkeypatch.setattr(groups, "id_product", at_4)
    failed = _failed(group_certificate(4))
    assert "eps:idempotent" in failed
    assert _failed(group_certificate(3)) == []


_epsilon2 = groups.epsilon2_projector


def _asymmetric_eps2(n):
    """eps2 plus eps|b1=1 (x) eps|b1=0: the coefficients of (a, b) with a a translation by (1, *)
    and b by (0, *) doubled, which breaks the swap symmetry that makes eps2 commute with A2 and S2."""
    eps = groups.epsilon_projector(n)

    def part(b1):
        return GroupRingElement(n, {g: c for g, c in eps.terms.items() if g.b1 == b1})

    return _epsilon2(n) + TensorExpr.pure(part(1), part(0))


def test_a_failed_entry_shows_its_residual_capped(monkeypatch):
    monkeypatch.setattr(groups, "epsilon2_projector", _asymmetric_eps2)
    entries = {e["name"]: e for e in group_certificate(4)}
    failed = entries["a2_eps2:commute"]
    assert failed["status"] == "fail"
    # the same fault on the old form, term by term, and the residual by the oracle product
    half = Fraction(1, 2)
    a2 = G2Sum(4, {g2_identity(4): half, sigma_swap(4): half})
    eps2 = G2Sum(4, {g: 2 * c if (g.g1.b1, g.g2.b1) == (1, 0) else c for g, c in g2_epsilon2(4).terms.items()})
    assert g2_sum(_asymmetric_eps2(4)) == eps2
    residual = product(a2, eps2, group_product) - product(eps2, a2, group_product)
    assert len(residual.terms) > 8
    first = sorted(residual.terms, key=residual.sort_key)[:8]
    shown = " + ".join(f"{fmt_rational(residual.terms[a])}*{residual.label(a)}" for a in first)
    assert failed["got"] == f"got - want has {len(residual.terms)} atoms: {shown} + ..."
    # passing entries carry no detail, so their bytes are those of an unmutated run
    assert all("got" not in e for e in entries.values() if e["status"] == "pass")


def _sign_dropped_table(slot):
    """An `id_product` whose law (b, s)(c, t) forgets s on one coordinate of b + s c: b1 (slot 1) or b2 (slot 2)."""

    def table(n):
        def mul(g, h):
            s1, s2 = (1, g.s) if slot == 1 else (g.s, 1)
            return SurfEnd(n, (g.b1 + s1 * h.b1) % n, (g.b2 + s2 * h.b2) % n, g.s * h.s, False)

        elems = groups.enumerate_g(n)
        return [[mul(g, h).code for h in elems] for g in elems]

    return product_on_table(lru_cache(maxsize=None)(table))


@pytest.mark.parametrize("n", range(3, 7))
def test_a_conjugated_inversion_sees_a_table_that_drops_a_sign(n, monkeypatch):
    # tau(1,1) mu_inv tau(1,1)^-1 = tau(2,2) mu_inv; a law that forgets s on b1 or on b2 gives
    # tau(0,2) mu_inv or tau(2,0) mu_inv, though no certificate entry sees either fault
    def holds():
        t, t_inv, m = (GroupRingElement.of(n, g) for g in (groups.tau(n, 1, 1), groups.tau(n, -1 % n, -1 % n), mu_inv(n)))
        return t * m * t_inv == GroupRingElement.of(n, groups.tau(n, 2, 2)) * m

    assert holds()
    for slot in (1, 2):
        with monkeypatch.context() as patch:
            patch.setattr(groups, "id_product", _sign_dropped_table(slot))
            assert not holds(), slot
    assert holds()


# -- the group certificate: each entry fails under at least one fault, at N = 4

def _flipped_meet(swap_x, left_y, right_y, swap_y):
    # a swapped x exchanges y's factors but keeps y's swap
    return (right_y, left_y, swap_y) if swap_x else (left_y, right_y, swap_y)


_epsilon, _lambda_theta, _symmetrizers, _inv = (
    groups.epsilon_projector, groups.lambda_theta, groups.symmetrizers, SurfEnd.inv)


def _lambda_bumped(n):
    lam, theta = _lambda_theta(n)
    return _bumped(lam, surf_identity(n)), theta


def _theta_bumped(n):
    # tau(0,1), which the inversion does not fix, so lambda and theta stop commuting
    lam, theta = _lambda_theta(n)
    return lam, _bumped(theta, groups.tau(n, 0, 1))


def _a2_bumped(one):
    a2, s2 = _symmetrizers(one)
    return a2 + TensorExpr.pure(one, one), s2


GROUP_FAULTS = {
    "eps coefficient": (groups, "epsilon_projector", lambda n: _bump_first(_epsilon(n))),
    "lambda coefficient": (groups, "lambda_theta", _lambda_bumped),
    "theta coefficient": (groups, "lambda_theta", _theta_bumped),
    "A2 coefficient": (groups, "symmetrizers", _a2_bumped),
    "product table entry": (groups, "id_product", _one_table_entry_off),
    "inverse of tau(0,1)": (SurfEnd, "inv", lambda g: g if g == groups.tau(g.level, 0, 1) else _inv(g)),
    "swap in _meet flipped": (tensor, "_meet", _flipped_meet),
    "eps2 asymmetric": (groups, "epsilon2_projector", _asymmetric_eps2),
}

GROUP_FAILURES = {
    "eps coefficient": ["eps:idempotent", "lambda_theta:product", "theta_lambda:product"],
    "lambda coefficient": ["lambda:idempotent", "lambda_theta:product", "theta_lambda:product"],
    "theta coefficient": ["theta:idempotent", "lambda_theta:commute", "lambda_theta:product", "theta_lambda:product"],
    "A2 coefficient": ["a2:idempotent", "a2_s2:orthogonal", "s2_a2:orthogonal", "a2_s2:sum"],
    "product table entry": ["eps:idempotent", "theta:idempotent"],
    "inverse of tau(0,1)": ["eps:involution"],
    "swap in _meet flipped": ["s2:idempotent", "a2_s2:orthogonal", "a2_eps2:commute", "s2_eps2:commute"],
    "eps2 asymmetric": ["a2_eps2:commute", "s2_eps2:commute"],
}


@pytest.mark.parametrize("fault", sorted(GROUP_FAULTS))
def test_group_certificate_fails_under_a_fault(fault, monkeypatch):
    owner, name, patched = GROUP_FAULTS[fault]
    monkeypatch.setattr(owner, name, patched)
    assert _failed(group_certificate(4)) == GROUP_FAILURES[fault]


def test_every_group_entry_fails_under_some_fault():
    names = [e["name"] for e in group_certificate(4)]
    assert len(names) == 14
    assert set(names) == set().union(*GROUP_FAILURES.values())


# the entries of group_certificate that each fault of GROUP_FAULTS flips at N = 3, 5 and 6: at each level, the
# same entries as at N = 4
GROUP_FAULT_FLIPS = json.loads((Path(__file__).resolve().parent / "group_fault_flips.json").read_text())


def _group_fault_flips(fault, levels):
    """The failed entries of group_certificate(n) for each n of levels, with the fault patched."""
    owner, name, patched = GROUP_FAULTS[fault]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(owner, name, patched)
        return [_failed(group_certificate(n)) for n in levels]


@pytest.mark.parametrize("fault", sorted(GROUP_FAULTS))
def test_each_group_fault_flips_its_recorded_entries_at_other_levels(fault):
    assert _group_fault_flips(fault, (3, 5, 6)) == [GROUP_FAULT_FLIPS[fault][str(n)] for n in (3, 5, 6)]


def test_every_group_entry_fails_under_some_fault_at_other_levels():
    assert sorted(GROUP_FAULT_FLIPS) == sorted(GROUP_FAULTS)
    for n in (3, 5, 6):
        names = {("group_certificate", e["name"]) for e in group_certificate(n)}
        flipped = {("group_certificate", name) for flips in GROUP_FAULT_FLIPS.values() for name in flips[str(n)]}
        assert len(names) == 14 and names == flipped, n


def test_one_product_table_entry_off_flips_its_entries_under_python_O():
    # the law patched as `groups.id_product`, in a child process whose asserts are stripped: no routing decision
    # or law invariant of the program rests on an assert
    script = """
import sys
sys.path.insert(0, sys.argv[1])
import test_mutations as t
print(sys.flags.optimize, t._group_fault_flips("product table entry", (3, 4, 5, 6)))
"""
    want = [GROUP_FAULT_FLIPS["product table entry"]["3"], GROUP_FAILURES["product table entry"]]
    want += [GROUP_FAULT_FLIPS["product table entry"][n] for n in ("5", "6")]
    assert _run_under_python_O(script) == f"1 {want}\n"


# -- the surface rule on component products (R9-R14): each fault with the entries it flips at N = 4

_rule = surface.compose_atom_pair


def _is_aut(atom) -> bool:
    return atom[0] == "G" and not atom[1].collapse


def _doubled_where(kinds):
    def doubled(x, y, level):
        produced = _rule(x, y, level)
        if produced and kinds(x, y):
            return [(atom, 2 * k) for atom, k in produced]
        return produced

    return doubled


def _r10_shifted(x, y, level):
    # Graph(f) o CP(c;m,n) = CP(c;m,f(n) + 1)
    if _is_aut(x) and y[0] == "C":
        return [(("C", c, m, (n + 1) % level), k) for (_, c, m, n), k in _rule(x, y, level)]
    return _rule(x, y, level)


def _r11_shifted(x, y, level):
    # CP(c;m,n) o Graph(f) = CP(c;f^-1(m) + 1,n)
    if x[0] == "C" and _is_aut(y):
        return [(("C", c, (m + 1) % level, n), k) for (_, c, m, n), k in _rule(x, y, level)]
    return _rule(x, y, level)


def _r11_collapse_off(x, y, level):
    # the collapse pulls back the component of the section one further on
    if x[0] == "C" and y[0] == "G" and y[1].collapse:
        return _rule(x, ("G", surf_end(level, y[1].b1 + 1, y[1].b2, 1, True)), level)
    return _rule(x, y, level)


def _r12_off(x, y, level):
    if x[0] == "T" and y[0] == "C":
        return _rule(("T", surf_end(level, x[1].b1 + 1, x[1].b2, 1, True)), y, level)
    return _rule(x, y, level)


def _r13_nonzero(x, y, level):
    # CP o tGraph = CP
    if x[0] == "C" and y[0] == "T":
        return [(x, 1)]
    return _rule(x, y, level)


def _r14_nonzero(x, y, level):
    # V o CP = CP
    if x[0] == "V" and y[0] == "C":
        return [(y, 1)]
    return _rule(x, y, level)


SURFACE_RULE_FAULTS = {
    "R9 doubled": _doubled_where(lambda x, y: x[0] == y[0] == "C"),
    "R10 shifted by one column": _r10_shifted,
    "R11 shifted by one row": _r11_shifted,
    "R11 collapse on the wrong section": _r11_collapse_off,
    "R12 on the wrong section": _r12_off,
    "R13 nonzero": _r13_nonzero,
    "R14 nonzero": _r14_nonzero,
}


def _per_cusp(*names):
    return [name.format(c) for name in names for c in range(cusp_count(4))]


SURFACE_RULE_FAILURES = {
    "R9 doubled": _per_cusp("kronecker:piC({0}).piC({0})"),
    "R10 shifted by one column": _per_cusp("residual:piInf.piC({})"),
    "R11 shifted by one row": _per_cusp("residual:piC({}).piInf"),
    "R11 collapse on the wrong section": _per_cusp("kronecker:piC({}).pi2", "residual:piC({}).piInf"),
    "R12 on the wrong section": _per_cusp("kronecker:pi0.piC({})", "residual:piInf.piC({})"),
    "R13 nonzero": _per_cusp("kronecker:piC({}).pi0", "residual:piC({}).piInf"),
    "R14 nonzero": _per_cusp("kronecker:pi0.piC({})", "kronecker:pi2.piC({})", "residual:piInf.piC({})"),
}

# No entry sees these two: the cusp projectors have no component-0 term, and
# mu0 is the only collapse in the named projectors.  They still reach compose.
UNSEEN_SURFACE_RULE_FAULTS = {
    "R12 doubled": _doubled_where(lambda x, y: x[0] == "T" and y[0] == "C"),
    "R11 collapse doubled": _doubled_where(lambda x, y: x[0] == "C" and y[0] == "G" and y[1].collapse),
}


@pytest.mark.parametrize("fault", sorted(SURFACE_RULE_FAULTS))
def test_surface_certificate_fails_under_a_rule_fault(fault, monkeypatch):
    monkeypatch.setattr(surface, "compose_atom_pair", SURFACE_RULE_FAULTS[fault])
    assert _failed(surface_certificate(4)) == SURFACE_RULE_FAILURES[fault]
    # every atom pair through the faulty rule flips the same entries
    monkeypatch.setattr(surface, "compose", compose_by_atom_pairs)
    assert _failed(surface_certificate(4)) == SURFACE_RULE_FAILURES[fault]


@st.composite
def cusp_block_operands(draw, n):
    """Full cusp projectors on up to three cusps, scaled, plus random component products and graph,
    tGraph and V atoms."""
    ends = enumerate_surf(n)
    cusps = range(min(3, cusp_count(n)))
    coeff = st.sampled_from([Fraction(k, 2) for k in (-3, -1, 1, 2, 5)])
    total = SurfCorr.zero(n)
    for c in draw(st.lists(st.sampled_from(cusps), max_size=3, unique=True)):
        total = total + build_pi_cusp(n, c).scale(draw(coeff))
    index = st.integers(0, n - 1)
    atom = st.one_of(
        st.builds(cusp_prod, st.sampled_from(cusps), index, index),
        st.builds(lambda e: ("G", e), st.sampled_from(ends)),
        st.builds(lambda e: ("T", e), st.sampled_from([e for e in ends if e.collapse])),
        st.just(VERT),
    )
    for a, c in draw(st.lists(st.tuples(atom, coeff), max_size=8)):
        total = total + SurfCorr.of(n, a, c)
    return total


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(3, 5))
def test_compose_matches_the_atom_pair_oracle_under_every_rule_fault(data, n):
    x = data.draw(cusp_block_operands(n))
    y = data.draw(cusp_block_operands(n))
    unpatched = surface.compose(x, y)
    assert unpatched == compose_by_atom_pairs(x, y)
    for fault in [*SURFACE_RULE_FAULTS.values(), *UNSEEN_SURFACE_RULE_FAULTS.values()]:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(surface, "compose_atom_pair", fault)
            assert surface.compose(x, y) == compose_by_atom_pairs(x, y)
    # the tables are kept per rule, so the unpatched rule reads its own again
    assert surface.compose(x, y) == unpatched


# -- the surface transpose and witness rows ------------------------------------------

_transpose, _build_pi_cusp = surface.transpose_atom, surface.build_pi_cusp


def _transpose_where(test, image):
    return lambda atom: image(atom) if test(atom) else _transpose(atom)


def _rule_where(test, produced):
    return lambda x, y, level: produced if test(x, y) else _rule(x, y, level)


def _pi_cusp_asymmetric(n, c):
    # piC(c) is symmetric, so a transpose that forgets to swap its slots cannot show; this one is not
    return _bumped(_build_pi_cusp(n, c), cusp_prod(c, 1, 2))


# (name patched in surface, patch)
TRANSPOSE_WITNESS_FAULTS = {
    "V transposes to zero": ("transpose_atom", _transpose_where(lambda atom: atom == VERT, lambda atom: None)),
    "a tGraph transposes to the graph of the next section": ("transpose_atom", _transpose_where(
        lambda atom: atom[0] == "T", lambda atom: ("G", surf_end(atom[1].level, atom[1].b1 + 1, atom[1].b2, 1, True)))),
    "an automorphism graph transposes with its sign forced to +1": ("transpose_atom", _transpose_where(
        _is_aut, lambda atom: ("G", surf_end(atom[1].level, atom[1].inv().b1, atom[1].inv().b2)))),
    "each cusp projector made asymmetric": ("build_pi_cusp", _pi_cusp_asymmetric),
    "R5 nonzero: a collapse graph after V gives V": ("compose_atom_pair", _rule_where(
        lambda x, y: x[0] == "G" and x[1].collapse and y == VERT, [(VERT, 1)])),
    "R6 zero: V after a graph gives 0": ("compose_atom_pair", _rule_where(
        lambda x, y: x == VERT and y[0] == "G", None)),
    "R7 nonzero: V after a tGraph gives V": ("compose_atom_pair", _rule_where(
        lambda x, y: x == VERT and y[0] == "T", [(VERT, 1)])),
    "R8 nonzero: V o V = V": ("compose_atom_pair", _rule_where(lambda x, y: x == y == VERT, [(VERT, 1)])),
}

_WITNESS_PI0 = ["witness:pi0:p.p'.p", "witness:pi0:p'.p.p'"]
_WITNESS_PI2 = ["witness:pi2:p.p'.p", "witness:pi2:p'.p.p'"]

# every entry of surface_certificate(4) that each fault flips
TRANSPOSE_WITNESS_FAILURES = {
    "V transposes to zero": ["transpose:pi0", "residual:transpose"],
    "a tGraph transposes to the graph of the next section": ["transpose:pi0", "residual:transpose"],
    "an automorphism graph transposes with its sign forced to +1": ["transpose:pi1", "residual:transpose"],
    "each cusp projector made asymmetric": (
        _per_cusp("kronecker:piC({0}).piC({0})") + _per_cusp("transpose:piC({})")
        + ["action:piC(0):theta(0;1)", "action:piC(0):theta(0;2)"]
        + [f"residual_action:theta(0;{m})" for m in range(3)]),
    "R5 nonzero: a collapse graph after V gives V": [
        "kronecker:pi2.pi0", "kronecker:pi2.pi2", "residual:idempotent", "residual:piInf.pi0",
        "residual:piInf.pi2", "residual:pi2.piInf", *_WITNESS_PI2],
    "R6 zero: V after a graph gives 0": [
        "kronecker:pi0.pi2", "kronecker:pi2.pi2", "residual:piInf.pi2", _WITNESS_PI2[1]],
    "R7 nonzero: V after a tGraph gives V": [
        "kronecker:pi0.pi0", "kronecker:pi2.pi0", "residual:idempotent", "residual:piInf.pi0",
        "residual:pi0.piInf", "residual:pi2.piInf", *_WITNESS_PI0],
    "R8 nonzero: V o V = V": [
        "kronecker:pi0.pi0", "kronecker:pi0.pi2", "kronecker:pi2.pi0", "kronecker:pi2.pi2", "residual:idempotent",
        "residual:piInf.pi0", "residual:pi0.piInf", "residual:piInf.pi2", "residual:pi2.piInf",
        "witness:pi0:nilpotent", "witness:pi2:nilpotent", _WITNESS_PI2[1]],
}


@pytest.mark.parametrize("fault", sorted(TRANSPOSE_WITNESS_FAULTS))
def test_transpose_and_witness_rows_fail_under_a_fault(fault, monkeypatch):
    monkeypatch.setattr(surface, *TRANSPOSE_WITNESS_FAULTS[fault])
    assert _failed(surface_certificate(4)) == TRANSPOSE_WITNESS_FAILURES[fault]


def test_every_transpose_and_witness_entry_fails_under_some_fault():
    rows = [e["name"] for e in surface_certificate(4) if e["name"].startswith(("transpose:", "witness:"))]
    assert len(rows) == 8 + 6
    assert set(rows) <= {name for flipped in TRANSPOSE_WITNESS_FAILURES.values() for name in flipped}


def _pi_cusp_on_other_cusps(n, c):
    # compose sends two operands on disjoint cusps to zero before any arithmetic, so a product piC(c).piC(d),
    # c != d, reads no rule and no fault of the rule: piC(c) given a term CP(d;1,1) on each other cusp d meets piC(d)
    pc = _build_pi_cusp(n, c)
    return pc + SurfCorr(n, {cusp_prod(d, 1, 1): 1 for d in range(cusp_count(n)) if d != c})


# every entry of surface_certificate(4) that the fault flips: each product of two cusp projectors
CUSP_CROSS_FAILURES = [f"kronecker:piC({c}).piC({d})" for c in range(cusp_count(4)) for d in range(cusp_count(4))]


def test_cusp_projectors_with_terms_on_other_cusps_flip_every_product_of_two(monkeypatch):
    monkeypatch.setattr(surface, "build_pi_cusp", _pi_cusp_on_other_cusps)
    assert _failed(surface_certificate(4)) == CUSP_CROSS_FAILURES


# -- the cusp faults at every kind of level: every piC(c) but a patched one holds piC(0)'s block, whose products are
# kept by that block, so a fault on one cusp must show on that cusp's rows and on no other

def _one_cusp_off_flips(n, c0):
    """The failed entries of surface_certificate(n) with piC(c0)'s first coefficient raised by 1, every other piC(c)
    as `build_pi_cusp` makes it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(surface, "build_pi_cusp", lambda m, c: _bump_first(_build_pi_cusp(m, c)) if c == c0 else _build_pi_cusp(m, c))
        return _failed(surface_certificate(n))


def _one_cusp_rows(c0):
    """The entries of piC(c0) that the fault flips: its idempotence, and the action rows, which read piC(0)."""
    actions = ["action:piC(0):theta(0;1)", "action:piC(0):theta(0;2)"] + [f"residual_action:theta(0;{m})" for m in range(3)]
    return [f"kronecker:piC({c0}).piC({c0})"] + (actions if c0 == 0 else [])


@pytest.mark.parametrize("n", [4, 6])
def test_one_cusp_projector_off_flips_exactly_its_rows(n):
    for c0 in (0, 1, cusp_count(n) - 1):
        assert _one_cusp_off_flips(n, c0) == _one_cusp_rows(c0)


def test_one_cusp_projector_off_flips_exactly_its_rows_under_python_O():
    script = """
import sys
sys.path.insert(0, sys.argv[1])
import test_mutations as t
print(sys.flags.optimize, [t._one_cusp_off_flips(n, c) == t._one_cusp_rows(c) for n in (4, 6) for c in (0, 1, t.cusp_count(n) - 1)])
"""
    assert _run_under_python_O(script) == f"1 {[True] * 6}\n"


def _run_under_python_O(script):
    """The output of script, run by `python -O` with the tests' directory as its argument and src on its path."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(tests.parent / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", script, str(tests)], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


CUSP_FAULTS = {
    "each cusp projector made asymmetric": _pi_cusp_asymmetric,
    "cusp projectors with terms on other cusps": _pi_cusp_on_other_cusps,
}
# the entries each fault flips at N = 3, 5 and 6, recorded from the certificate before cusp projectors shared a block
CUSP_FAULT_FLIPS = json.loads((Path(__file__).resolve().parent / "cusp_fault_flips.json").read_text())


def _cusp_fault_rows(fault, n):
    """The entries the fault flips at N = 4, written for the cusps of level n."""
    cusps = range(cusp_count(n))
    if fault == "cusp projectors with terms on other cusps":
        return [f"kronecker:piC({c}).piC({d})" for c in cusps for d in cusps]
    fixed = [name for name in TRANSPOSE_WITNESS_FAILURES[fault] if not name.startswith(("kronecker:piC", "transpose:piC"))]
    return [f"kronecker:piC({c}).piC({c})" for c in cusps] + [f"transpose:piC({c})" for c in cusps] + fixed


@pytest.mark.parametrize("fault", sorted(CUSP_FAULTS))
def test_each_cusp_fault_flips_the_same_per_cusp_rows_at_every_kind_of_level(fault, monkeypatch):
    assert _cusp_fault_rows(fault, 4) == TRANSPOSE_WITNESS_FAILURES.get(fault, CUSP_CROSS_FAILURES)
    monkeypatch.setattr(surface, "build_pi_cusp", CUSP_FAULTS[fault])
    for n in (3, 5, 6):
        assert _failed(surface_certificate(n)) == CUSP_FAULT_FLIPS[fault][str(n)] == _cusp_fault_rows(fault, n), n


def test_each_surface_fault_flips_its_entries_after_a_clean_certificate(monkeypatch):
    # one process: what compose keeps on the cached pi bars is its split and, per rule table, its maps,
    # so a patched rule, transpose or cusp projector still reaches every entry it reaches alone
    assert _failed(surface_certificate(4)) == []
    faults = [("compose_atom_pair", patched, SURFACE_RULE_FAILURES[name]) for name, patched in SURFACE_RULE_FAULTS.items()]
    faults += [(*TRANSPOSE_WITNESS_FAULTS[name], TRANSPOSE_WITNESS_FAILURES[name]) for name in TRANSPOSE_WITNESS_FAULTS]
    for name, patched, failures in faults:
        with monkeypatch.context() as patch:
            patch.setattr(surface, name, patched)
            assert _failed(surface_certificate(4)) == failures, (name, failures)
    assert _failed(surface_certificate(4)) == []


# -- pi1: one coefficient of `epsilon_graph_sum`, with the per-level cache of the three bars cleared around it

_epsilon_graph_sum = surface.epsilon_graph_sum


def _pi1_second_atom_bumped(n):
    """pi1 with the coefficient of its second atom in print order, Graph(aut(0,0,-)), raised by 1/(2N^2)."""
    pi1 = _epsilon_graph_sum(n)
    return pi1 + pi1.over(n, 2 * n * n, {sorted(pi1.nums, key=pi1.sort_key)[1]: 1})


# every entry of surface_certificate(4) that the fault flips: all but t(pi1), since the inversion is its own inverse
PI1_FAILURES = (
    ["kronecker:pi0.pi1", "kronecker:pi1.pi0", "kronecker:pi1.pi1", "kronecker:pi1.pi2"]
    + _per_cusp("kronecker:pi1.piC({})") + ["kronecker:pi2.pi1"] + _per_cusp("kronecker:piC({}).pi1")
    + ["residual:idempotent"]
    + [f"residual:{row}" for p in ("pi0", "pi1", "pi2") for row in (f"piInf.{p}", f"{p}.piInf")]
    + [f"residual:{row}" for c in range(cusp_count(4)) for row in (f"piInf.piC({c})", f"piC({c}).piInf")]
    + ["action:pi1:fiber"] + [f"action:pi1:theta(0;{m})" for m in range(4)]
    + [f"residual_action:theta(0;{m})" for m in range(4)])


def test_a_pi1_coefficient_fault_flips_exactly_its_entries(monkeypatch):
    surface._pi_bars.cache_clear()
    monkeypatch.setattr(surface, "epsilon_graph_sum", _pi1_second_atom_bumped)
    try:
        failed = _failed(surface_certificate(4))
    finally:
        monkeypatch.undo()
        surface._pi_bars.cache_clear()
    assert failed == PI1_FAILURES
    assert len(failed) == 45
    assert _failed(surface_certificate(4)) == []


# -- the threefold certificate, under its zero test and under the expand-and-compare oracle

@pytest.fixture(params=["zero test", "oracle"])
def zero_test(request, monkeypatch):
    """Run a test once with `TensorExpr.is_zero` and once with the oracle in its place."""
    if request.param == "oracle":
        monkeypatch.setattr(TensorExpr, "is_zero", expands_to_zero)
    return request.param


def test_threefold_certificate_passes_unmutated(zero_test):
    assert _failed(threefold_certificate(4)) == []


def test_threefold_certificate_fails_with_an_inversion_rule_doubled(zero_test, monkeypatch):
    rule = surface.compose_atom_pair

    def doubled_r1(x, y, level):
        # Graph(f) o Graph(g) with f an inversion: R1 with its coefficient doubled
        produced = rule(x, y, level)
        if produced and x[0] == "G" and y[0] == "G" and not x[1].collapse and x[1].s == -1:
            return [(atom, 2 * k) for atom, k in produced]
        return produced

    monkeypatch.setattr(surface, "compose_atom_pair", doubled_r1)
    failed = _failed(threefold_certificate(4))
    assert "kronecker:pi(1,1).pi(1,1)" in failed
    assert "split:idempotent:alt(1,1)" in failed


def _pi1_bumped(build):
    def bumped(n):
        bars = build(n)
        bars["pi1"] = _bump_first(bars["pi1"])
        return bars

    return bumped


def test_threefold_certificate_fails_with_a_factor_projector_coefficient_changed(zero_test, monkeypatch):
    monkeypatch.setattr(threefold, "build_pi_bars", _pi1_bumped(threefold.build_pi_bars))
    failed = _failed(threefold_certificate(4))
    assert "kronecker:pi(1,1).pi(1,1)" in failed
    assert "kronecker:pi(0,1).pi(0,1)" in failed


def test_threefold_certificate_fails_with_the_swap_in_meet_flipped(zero_test, monkeypatch):
    monkeypatch.setattr(tensor, "_meet", _flipped_meet)
    failed = _failed(threefold_certificate(4))
    assert "swap:pi(0,1)" in failed
    assert "split:a2_commutes" in failed


def test_a_failed_threefold_entry_shows_its_residual_capped(zero_test, monkeypatch):
    monkeypatch.setattr(threefold, "build_pi_bars", _pi1_bumped(threefold.build_pi_bars))
    entries = {e["name"]: e for e in threefold_certificate(4)}
    failed = entries["kronecker:pi(0,1).pi(0,1)"]
    assert failed["status"] == "fail"
    # the residual computed flat: every atom pair through the rule table
    p01 = threefold.pair_projector_expr(4, 0, 1).expand(TCorr)
    residual = t_compose(p01, p01) - p01
    assert len(residual.terms) > 8
    assert failed["got"] == f"got - want has {len(residual.terms)} atoms: {residual.render(8)}"
    assert failed["got"].endswith(" + ...")
    assert all("got" not in e for e in entries.values() if e["status"] == "pass")


# -- the restriction rows: each entry fails under at least one fault of the open part, at N = 4

_restrict = threefold.restrict_atom
_restrict_t = threefold._restrict_t_atom
_compose_open = surface.compose_open_atoms


def _is_inversion(atom) -> bool:
    return atom[0] == "G" and not atom[1].collapse and atom[1].s == -1


def restriction_faults(n):
    """Faults of the open part at level n, each as (owner, name, patched function).

    The restriction is read through `threefold` and the open-part
    composition, which the inversion of a parity row multiplies by, through
    `surface`.  The last two act past the surface atom maps: the tensor
    slots of a restricted atom exchanged, and the inversion made to send two
    graphs to one.
    """

    def merged(atom):
        return open_graph(surf_end(n, 0, 0, -1)) if atom == open_graph(surf_end(n, 1, 0, -1)) else atom

    return {
        "V restricted to a graph": (threefold, "restrict_atom", lambda atom: (
            open_graph(surf_end(n, 0, 0)) if atom[0] == "V" else _restrict(atom))),
        "tGraph restricted as a graph": (threefold, "restrict_atom", lambda atom: (
            open_graph(atom[1]) if atom[0] == "T" else _restrict(atom))),
        "inversion graphs lost": (threefold, "restrict_atom", lambda atom: (
            None if _is_inversion(atom) else _restrict(atom))),
        "inversion ignored on graphs": (surface, "compose_open_atoms", lambda x, y: (
            y if y[0] == "g" else _compose_open(x, y))),
        "tensor slots swapped": (threefold, "_restrict_t_atom", lambda atom, opened: (
            _restrict_t((atom[1], atom[0], atom[2]), opened))),
        "two inversion graphs merged": (surface, "compose_open_atoms", lambda x, y: merged(_compose_open(x, y))),
    }


RESTRICTION_FAULTS = restriction_faults(4)

RESTRICTION_FAILURES = {
    "V restricted to a graph": [f"restriction:pi({i1},{i2})" for i1 in range(3) for i2 in range(3) if (i1, i2) != (1, 1)]
    + ["restriction:b(1)", "restriction:b(2)"] + [f"restriction:parity:{i}" for i in range(5)],
    "tGraph restricted as a graph": [f"restriction:pi({i1},{i2})" for i1, i2 in ((0, 0), (0, 1), (0, 2), (1, 0), (2, 0))],
    "inversion graphs lost": [f"restriction:pi({i1},{i2})" for i1, i2 in ((0, 1), (1, 0), (1, 1), (1, 2), (2, 1))]
    + [f"restriction:parity:{i}" for i in (1, 2, 3)],
    "inversion ignored on graphs": ["restriction:parity:1", "restriction:parity:3"],
    "tensor slots swapped": [f"restriction:pi({i1},{i2})" for i1 in range(3) for i2 in range(3) if i1 != i2],
    "two inversion graphs merged": [f"restriction:parity:{i}" for i in (1, 2, 3)],
}

# sha256 of json.dumps(threefold_certificate(4), sort_keys=True) with no fault and under each
# fault, as the rows read when each pair projector was expanded whole, restricted, and compared
# with tensor_open of the surface restrictions: the rows compared pair by pair must give the same bytes
WHOLE_EXPANSION_DIGESTS = {
    None: "7d7e8fccffd70404f81cd7b40c967dc31ed4ef58a4579d274f111704cfe4ecd9",
    "V restricted to a graph": "9618a5a6ffabca4fc95c638290ee5b12c9a1419008a9286aabbc3b21134a2da4",
    "tGraph restricted as a graph": "fba3067682d550f4f0916507e5d60d2b08c1353eb79757d6462ee9bf715810ac",
    "inversion graphs lost": "a48cf014af60ec0e3e0df1918bbf0754617958737bc3d797968ef62ebb8e4289",
    "inversion ignored on graphs": "f9037b7f2774a41746e3c8de95c113a628a6c62fb2004898be752b667f0166b6",
    "tensor slots swapped": "89ba7bfa2701782de9cad4ef0570de8e0bd4d6aed47daad204ad0090809ea7c7",
    "two inversion graphs merged": "a958bc55b2b9c0b525a8f06a6344e35ccf2a6d9ced4cf1e2fd6e37edc8830868",
}


@pytest.mark.parametrize("fault", sorted(RESTRICTION_FAULTS))
def test_threefold_restriction_rows_fail_under_an_open_part_fault(fault, monkeypatch):
    monkeypatch.setattr(*RESTRICTION_FAULTS[fault])
    assert _failed(threefold_certificate(4)) == RESTRICTION_FAILURES[fault]


def test_each_restriction_fault_reaches_its_rows_after_a_clean_certificate(monkeypatch):
    # one process: no open-part map of a row outlives it, so each patched map reaches every later row
    assert _failed(threefold_certificate(4)) == []
    for fault in sorted(RESTRICTION_FAULTS):
        with monkeypatch.context() as patch:
            patch.setattr(*RESTRICTION_FAULTS[fault])
            assert _failed(threefold_certificate(4)) == RESTRICTION_FAILURES[fault], fault
    assert _failed(threefold_certificate(4)) == []


def test_every_threefold_restriction_entry_fails_under_some_fault():
    names = {e["name"] for e in threefold_certificate(4) if e["name"].startswith("restriction:")}
    assert len(names) == 16
    assert names == set().union(*RESTRICTION_FAILURES.values())


@pytest.mark.parametrize("fault", list(WHOLE_EXPANSION_DIGESTS))
def test_threefold_entries_under_a_fault_are_those_of_the_whole_expansion(fault, monkeypatch):
    if fault is not None:
        monkeypatch.setattr(*RESTRICTION_FAULTS[fault])
    blob = json.dumps(threefold_certificate(4), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == WHOLE_EXPANSION_DIGESTS[fault]


@st.composite
def open_part_factors(draw, n):
    """A surface sum of V, graphs of every endomorphism, transposed collapse graphs and bar projectors."""
    ends = enumerate_surf(n)
    atom = st.one_of(
        st.builds(lambda e: ("G", e), st.sampled_from(ends)),
        st.builds(lambda e: ("T", e), st.sampled_from([e for e in ends if e.collapse])),
        st.just(VERT),
    )
    coeff = st.sampled_from([Fraction(k, d) for k in (-3, -1, 1, 2) for d in (1, 2, 3, 2 * n * n)])
    x = SurfCorr(n, draw(st.dictionaries(atom, coeff, max_size=6)))
    bars = build_pi_bars(n)
    for name in draw(st.lists(st.sampled_from(sorted(bars)), max_size=2)):
        x = x + bars[name].scale(draw(coeff))
    return x


def _settled(residual, cls=None):
    """The entry that the certificate records for a row with this residual, expanded to cls on failure when given."""
    cert = Certificate()
    cert.check("row", "got = want", residual, type(residual)(residual.level), cls)
    return cert.entries


def _slots_swapped(x):
    """x with the two tensor slots of each open atom exchanged."""
    return linear_map(x, lambda atom: (atom[1], atom[0], atom[2]))


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(3, 5))
def test_restriction_rows_compared_per_pair_match_the_whole_expansion_under_every_fault(data, n):
    pairs = data.draw(st.lists(st.tuples(open_part_factors(n), open_part_factors(n)), min_size=1, max_size=3))
    sign = data.draw(st.sampled_from([1, -1]))
    for name, fault in [(None, None), *restriction_faults(n).items()]:
        with pytest.MonkeyPatch.context() as patch:
            if fault is not None:
                patch.setattr(*fault)
            for a, b in pairs:
                got, want = threefold.restriction_residual(a, b), restriction_residual_by_expansion(a, b)
                assert got == want
                assert _settled(got) == _settled(want)
            parity = parity_residual_by_expansion(pairs, sign)
            if name == "tensor slots swapped":
                # the factored parity row builds no restricted t-atom, so this fault reaches only the oracle
                parity = _slots_swapped(parity)
            got = threefold.parity_residual(pairs, sign)
            assert got.expand(OpenTCorr) == parity
            assert _settled(got, OpenTCorr) == _settled(parity)


# -- the structure identities

def test_structure_identities_fail_with_the_tensor_product_lost(monkeypatch):
    assert _failed(threefold.verify_structure_identities(4)) == []
    monkeypatch.setattr(threefold, "t_compose", lambda after, before: TCorr.zero(after.level))
    failed = _failed(threefold.verify_structure_identities(4))
    assert "section_property" in failed
    assert "retract_to_base" in failed


_t_rule = threefold.compose_atom_pair


def _collapse_doubled(x, y, level):
    # Graph(mu0) o Graph(mu0): R1 on two collapses, with its coefficient doubled
    produced = _t_rule(x, y, level)
    if produced and x[0] == y[0] == "G" and x[1].collapse and y[1].collapse:
        return [(atom, 2 * k) for atom, k in produced]
    return produced


def test_structure_identities_fail_with_the_collapse_rule_doubled(monkeypatch):
    monkeypatch.setattr(threefold, "compose_atom_pair", _collapse_doubled)
    failed = _failed(threefold.verify_structure_identities(4))
    assert "section_property" in failed
    assert "retract_to_base" in failed


# (name patched in threefold, patch)
STRUCTURE_FAULTS = {
    "tensor product lost": ("t_compose", lambda after, before: TCorr.zero(after.level)),
    "collapse rule doubled": ("compose_atom_pair", _collapse_doubled),
}

# every structure identity at N = 4 that each fault flips, with its residual got - want as a multiple of mu00
STRUCTURE_FAILURES = {
    "tensor product lost": {"section_property": -1, "retract_to_base": -1, "collapse_roundtrip": -1},
    "collapse rule doubled": {"section_property": 3, "retract_to_base": 15, "collapse_roundtrip": 3},
}


@pytest.mark.parametrize("fault", sorted(STRUCTURE_FAULTS))
def test_a_structure_identity_failed_by_a_fault_shows_its_residual(fault, monkeypatch):
    monkeypatch.setattr(threefold, *STRUCTURE_FAULTS[fault])
    got = {e["name"]: e.get("got") for e in threefold.verify_structure_identities(4) if e["status"] == "fail"}
    mu00 = threefold.total_collapse(4)
    assert got == {name: f"got - want has 1 atoms: {mu00.scale(k).render()}"
                   for name, k in STRUCTURE_FAILURES[fault].items()}


# -- the threefold transpose and swap rows: each fault with the entries of threefold_certificate(4) it flips

def _transposed_pi(*pairs):
    return [f"transpose:pi({i1},{i2})" for i1, i2 in pairs]


# (owner, name, patch): the transposes of surface atoms reach each factor of a pure tensor
THREEFOLD_TRANSPOSE_SWAP_FAULTS = {
    **{name: (surface, *TRANSPOSE_WITNESS_FAULTS[name]) for name in (
        "V transposes to zero", "a tGraph transposes to the graph of the next section",
        "an automorphism graph transposes with its sign forced to +1")},
    "swap in _meet flipped": (tensor, "_meet", _flipped_meet),
}

THREEFOLD_TRANSPOSE_SWAP_FAILURES = {
    "V transposes to zero": _transposed_pi((0, 0), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1), (2, 2))
    + ["residual:transpose"],
    "a tGraph transposes to the graph of the next section": _transposed_pi((0, 0), (0, 1), (0, 2), (1, 0), (2, 0))
    + ["residual:transpose"],
    "an automorphism graph transposes with its sign forced to +1": _transposed_pi((0, 1), (1, 0), (1, 1), (1, 2), (2, 1))
    + ["transpose:alt(1,1)", "transpose:sym(1,1)", "residual:transpose"],
    "swap in _meet flipped": ["split:a2_commutes"] + [f"swap:pi({i1},{i2})" for i1 in range(3) for i2 in range(3)],
}


@pytest.mark.parametrize("fault", sorted(THREEFOLD_TRANSPOSE_SWAP_FAULTS))
def test_threefold_transpose_and_swap_rows_fail_under_a_fault(fault, monkeypatch):
    monkeypatch.setattr(*THREEFOLD_TRANSPOSE_SWAP_FAULTS[fault])
    assert _failed(threefold_certificate(4)) == THREEFOLD_TRANSPOSE_SWAP_FAILURES[fault]


def test_every_threefold_transpose_swap_and_structure_entry_fails_under_some_fault():
    rows = [e["name"] for e in threefold_certificate(4) if e["name"].startswith(("transpose:", "swap:"))]
    rows += [e["name"] for e in threefold.verify_structure_identities(4)]
    assert len(rows) == 11 + 9 + 3
    flipped = [*THREEFOLD_TRANSPOSE_SWAP_FAILURES.values(), *STRUCTURE_FAILURES.values()]
    assert set(rows) <= {name for names in flipped for name in names}


# -- the threefold product rows (kronecker, split, residual): each fault with the rows it flips at N = 4

_PRODUCT_ROWS = ("kronecker:", "split:", "residual:")


def _kron(pairs: str) -> list:
    """The rows kronecker:pi(a,b).pi(c,d), each written ab.cd."""
    return [f"kronecker:pi({p[0]},{p[1]}).pi({p[3]},{p[4]})" for p in pairs.split()]


def _named(names: str) -> list:
    """Projector names, a pair projector pi(a,b) written ab and a split part alt(1,1), sym(1,1) as alt, sym."""
    return [f"{name}(1,1)" if name in ("alt", "sym") else f"pi({name[0]},{name[1]})" for name in names.split()]


def _split_orthogonal(after: str, before: str) -> list:
    """split:orthogonal:x.nb for each split part x and nb in after, and split:orthogonal:nb.x for nb in before."""
    return ([f"split:orthogonal:{x}.{nb}" for x in ("alt(1,1)", "sym(1,1)") for nb in _named(after)]
            + [f"split:orthogonal:{nb}.{x}" for x in ("alt(1,1)", "sym(1,1)") for nb in _named(before)])


def _residual(after: str, before: str) -> list:
    """residual:piInf.na for na in after, and residual:na.piInf for na in before."""
    return [f"residual:piInf.{na}" for na in _named(after)] + [f"residual:{na}.piInf" for na in _named(before)]


def _bar_changed(key, change):
    """A `build_pi_bars` whose projector key is change(projector, level)."""
    build = threefold.build_pi_bars

    def changed(n):
        bars = dict(build(n))
        bars[key] = change(bars[key], n)
        return bars

    return changed


def _symmetrizer_bumped(which):
    """A `symmetrizers` with the coefficient of the first part of A2 (which 0) or S2 (which 1) raised by 1."""
    build = threefold.symmetrizers

    def bumped(one):
        parts = list(build(one))
        parts[which] = _bump_first(parts[which])
        return tuple(parts)

    return bumped


def _with_diagonal(x, n):
    return _bumped(x, ("G", surf_end(n, 0, 0)))


_ALL_BUT_11 = "00 01 02 10 12 20 21 22"

# (owner, name, patch)
THREEFOLD_PRODUCT_FAULTS = {
    **{f"{key} coefficient": (threefold, "build_pi_bars", _bar_changed(key, lambda x, n: _bump_first(x)))
       for key in ("pi0", "pi1", "pi2")},
    **{f"{key} with the diagonal added": (threefold, "build_pi_bars", _bar_changed(key, _with_diagonal))
       for key in ("pi0", "pi2")},
    "R1 doubled on inversions": (surface, "compose_atom_pair", _doubled_where(
        lambda x, y: x[0] == y[0] == "G" and not x[1].collapse and x[1].s == -1)),
    "R8 nonzero": (surface, "compose_atom_pair", _rule_where(lambda x, y: x[0] == y[0] == "V", [(VERT, 1)])),
    "swap in _meet flipped": (tensor, "_meet", _flipped_meet),
    "A2 coefficient": (threefold, "symmetrizers", _symmetrizer_bumped(0)),
    "S2 coefficient": (threefold, "symmetrizers", _symmetrizer_bumped(1)),
}

# the kronecker, split and residual rows of threefold_certificate(4) that each fault flips, as sets
THREEFOLD_PRODUCT_FAILURES = {
    "pi0 coefficient": _kron("00.00 00.02 00.20 01.01 01.21 02.02 02.22 10.10 10.12 20.20 20.22")
    + ["residual:idempotent", "residual:transpose"] + _residual(_ALL_BUT_11, "00 01 02 10 20"),
    "pi1 coefficient": _kron(
        "00.01 00.10 00.11 01.00 01.01 01.02 01.10 01.11 01.12 02.01 02.11 02.12 10.00 10.01 10.10 10.11 10.20 10.21 "
        "11.00 11.01 11.02 11.10 11.11 11.12 11.20 11.21 11.22 12.01 12.02 12.11 12.12 12.21 12.22 20.10 20.11 20.21 "
        "21.10 21.11 21.12 21.20 21.21 21.22 22.11 22.12 22.21")
    + ["split:idempotent:alt(1,1)", "split:idempotent:sym(1,1)", "residual:idempotent"]
    + _split_orthogonal(_ALL_BUT_11, _ALL_BUT_11) + _residual(f"{_ALL_BUT_11} 11 alt sym", f"{_ALL_BUT_11} 11 alt sym"),
    "pi2 coefficient": _kron("00.02 00.20 01.21 02.02 02.22 10.12 12.12 20.20 20.22 21.21 22.22")
    + ["residual:idempotent", "residual:transpose"] + _residual("02 12 20 21 22", _ALL_BUT_11),
    "pi0 with the diagonal added": _kron(
        "00.00 00.01 00.02 00.10 00.11 00.12 00.20 00.21 00.22 01.00 01.01 01.10 01.11 01.20 01.21 02.00 02.02 02.10 "
        "02.12 02.20 02.22 10.00 10.01 10.02 10.10 10.11 10.12 11.00 11.01 11.10 12.00 12.02 12.10 20.00 20.01 20.02 "
        "20.20 20.21 20.22 21.00 21.01 21.20 22.00 22.02 22.20")
    + ["residual:idempotent"] + _split_orthogonal("00 01 10", "00 01 10")
    + _residual(f"{_ALL_BUT_11} 11 alt sym", f"{_ALL_BUT_11} 11 alt sym"),
    "pi2 with the diagonal added": _kron(
        "00.02 00.20 00.22 01.02 01.21 01.22 02.00 02.01 02.02 02.20 02.21 02.22 10.12 10.20 10.22 11.12 11.21 11.22 "
        "12.10 12.11 12.12 12.20 12.21 12.22 20.00 20.02 20.10 20.12 20.20 20.22 21.01 21.02 21.11 21.12 21.21 21.22 "
        "22.00 22.01 22.02 22.10 22.11 22.12 22.20 22.21 22.22")
    + ["residual:idempotent"] + _split_orthogonal("12 21 22", "12 21 22")
    + _residual(f"{_ALL_BUT_11} 11 alt sym", f"{_ALL_BUT_11} 11 alt sym"),
    "R1 doubled on inversions": _kron("01.01 01.02 10.10 10.20 11.11 11.12 11.21 11.22 12.12 12.22 21.21 21.22")
    + ["split:idempotent:alt(1,1)", "split:idempotent:sym(1,1)", "split:a2_commutes", "residual:idempotent"]
    + _split_orthogonal("12 21 22", "") + _residual("01 02 10 11 12 20 21 22 alt sym", "01 10 11 12 21 alt sym"),
    # with V o V = V, pi0 pi0 = pi0 + V/4, pi2 pi2 = pi2 + V/4 and pi0 pi2 = pi2 pi0 = V/4; the rows whose two slot
    # products are both V/4, (0,0).(2,2), (0,2).(2,0) and their reverses, pass: V (x) V is the tensor the atom sum drops
    "R8 nonzero": _kron("00.00 00.02 00.20 01.01 01.21 02.00 02.02 02.22 10.10 10.12 12.10 12.12 20.00 20.20 20.22 "
                        "21.01 21.21 22.02 22.20 22.22")
    + ["residual:idempotent"] + _residual(_ALL_BUT_11, _ALL_BUT_11),
    "swap in _meet flipped": ["split:a2_commutes"],
    "A2 coefficient": ["split:idempotent:alt(1,1)", "split:orthogonal", "split:orthogonal_rev", "split:sum"],
    "S2 coefficient": ["split:idempotent:sym(1,1)", "split:orthogonal", "split:orthogonal_rev", "split:sum"],
}


@pytest.mark.parametrize("fault", sorted(THREEFOLD_PRODUCT_FAULTS))
def test_threefold_product_rows_fail_under_a_fault(fault, zero_test, monkeypatch):
    monkeypatch.setattr(*THREEFOLD_PRODUCT_FAULTS[fault])
    failed = [name for name in _failed(threefold_certificate(4)) if name.startswith(_PRODUCT_ROWS)]
    assert len(failed) == len(set(failed))
    assert set(failed) == set(THREEFOLD_PRODUCT_FAILURES[fault])


def _is_zero_keeping_v_tensor_v(x):
    """`TensorExpr.is_zero` without its V (x) V correction: the factored tensor must vanish, V (x) V included."""
    tensors: dict = {}
    for (a, b, e), v in x.nums.items():
        tensors.setdefault(e, {}).setdefault(id(a), (a, []))[1].append(b.scale(v))
    return all(tensor_vanishes(by_left.values()) for by_left in tensors.values())


def test_the_v_tensor_v_correction_decides_four_rows_under_r8_nonzero(monkeypatch):
    # no row of the unmutated certificate has a V (x) V part, so the correction alone flips nothing; under R8 nonzero
    # the four rows whose product is V/4 (x) V/4 pass only through it
    monkeypatch.setattr(TensorExpr, "is_zero", _is_zero_keeping_v_tensor_v)
    assert _failed(threefold_certificate(4)) == []
    monkeypatch.setattr(*THREEFOLD_PRODUCT_FAULTS["R8 nonzero"])
    failed = {name for name in _failed(threefold_certificate(4)) if name.startswith(_PRODUCT_ROWS)}
    assert failed - set(THREEFOLD_PRODUCT_FAILURES["R8 nonzero"]) == set(_kron("00.22 22.00 02.20 20.02"))


def test_every_threefold_product_entry_fails_under_some_fault():
    rows = [e["name"] for e in threefold_certificate(4) if e["name"].startswith(_PRODUCT_ROWS)]
    assert len(rows) == 81 + 38 + 24 == len(set(rows))
    assert set(rows) == set().union(*THREEFOLD_PRODUCT_FAILURES.values())


# -- the divisor action rows: each fault with the surface and threefold entries it flips at N = 4

_keeps, _slot, _act = surface.keeps_fiber, surface.component_slot, surface.act_atom_on_key


def _in_both(name, patched):
    # threefold imports the slot actions by name from surface
    return [(surface, name, patched), (threefold, name, patched)]


def _slot_where(test, image):
    def slot(atom, m, level):
        return image(atom, m, level) if test(atom) else _slot(atom, m, level)

    return slot


def _cusp_action_doubled(atom, key, level):
    produced = _act(atom, key, level)
    return [(k, 2 * v) for k, v in produced] if atom[0] == "C" else produced


ACTION_FAULTS = {
    "V keeps the fiber": _in_both("keeps_fiber", lambda atom: atom[0] == "V" or _keeps(atom)),
    "fiber kept by the sign, not the collapse flag": _in_both(
        "keeps_fiber", lambda atom: atom[0] == "T" or (atom[0] == "G" and atom[1].s == 1)),
    "cusp-product action doubled": [(surface, "act_atom_on_key", _cusp_action_doubled)],
    "component index shifted by one": _in_both(
        "component_slot", lambda atom, m, level: [(k + 1) % level for k in _slot(atom, m, level)]),
    "tGraph pulls back the next component": _in_both("component_slot", _slot_where(
        lambda atom: atom[0] == "T", lambda atom, m, level: range(level) if m == (atom[1].b1 + 1) % level else ())),
    "tGraph pulls back every component": _in_both("component_slot", _slot_where(
        lambda atom: atom[0] == "T", lambda atom, m, level: range(level))),
    "collapse graph acts as its translation": _in_both("component_slot", _slot_where(
        lambda atom: atom[0] == "G" and atom[1].collapse, lambda atom, m, level: ((atom[1].b1 + m) % level,))),
    "translations drop their shift": _in_both("component_slot", _slot_where(
        lambda atom: _is_aut(atom) and atom[1].s == 1, lambda atom, m, level: (m,))),
}

_RESIDUAL_ACTIONS = [f"residual_action:theta(0;{m})" for m in range(4)]

# (surface entries, threefold entries) that each fault flips
ACTION_FAILURES = {
    "V keeps the fiber": (
        ["action:pi0:fiber", "action:pi2:fiber"],
        [f"action:pi({i1},{i2}):fiber" for i1 in (0, 2) for i2 in (0, 2)]),
    "fiber kept by the sign, not the collapse flag": (
        ["action:pi1:fiber", "action:pi2:fiber"],
        [f"action:pi({i1},{i2}):fiber" for i1 in range(3) for i2 in range(3) if (i1, i2) != (0, 0)]),
    "cusp-product action doubled": (
        [f"action:piC(0):theta(0;{m})" for m in (1, 2, 3)] + _RESIDUAL_ACTIONS, []),
    "component index shifted by one": ([], ["action:residual_identity"]),
    "tGraph pulls back the next component": (
        ["action:pi0:theta(0;0)", "action:pi0:theta(0;1)"] + _RESIDUAL_ACTIONS[:2],
        ["action:pi(0,0):Theta(0;0,0)", "action:components_annihilated"]),
    "tGraph pulls back every component": (
        [f"action:pi0:theta(0;{m})" for m in (1, 2, 3)] + _RESIDUAL_ACTIONS[1:], ["action:components_annihilated"]),
    "collapse graph acts as its translation": (
        [f"action:pi2:theta(0;{m})" for m in range(4)] + _RESIDUAL_ACTIONS, ["action:components_annihilated"]),
    "translations drop their shift": (
        [f"action:pi1:theta(0;{m})" for m in range(4)] + ["action:theta_avg"] + _RESIDUAL_ACTIONS,
        ["action:components_annihilated"]),
}


@pytest.mark.parametrize("fault", sorted(ACTION_FAULTS))
def test_divisor_action_rows_fail_under_an_action_fault(fault, monkeypatch):
    for owner, name, patched in ACTION_FAULTS[fault]:
        monkeypatch.setattr(owner, name, patched)
    assert (_failed(surface_certificate(4)), _failed(threefold_certificate(4))) == ACTION_FAILURES[fault]


def test_every_divisor_action_entry_fails_under_some_fault():
    rows = [e["name"] for e in surface_certificate(4) if e["name"].startswith(("action:", "residual_action:"))]
    rows += [e["name"] for e in threefold_certificate(4) if e["name"].startswith("action:")]
    assert len(rows) == 23 + 12
    assert set(rows) == {name for flipped in ACTION_FAILURES.values() for side in flipped for name in side}


def test_a_fiber_row_that_gives_d_a_raises_degree_error_on_d_a_fiber(monkeypatch):
    # the fiber row made to give d_a [fiber], as V gives on a section: once is a class, twice is d_a^2
    def fiber_to_d_a(atom, key, level):
        if key == GENERIC_FIBER and _keeps(atom):
            return [(DA_FIBER, 1)]
        return _act(atom, key, level)

    monkeypatch.setattr(surface, "act_atom_on_key", fiber_to_d_a)
    n = 4
    t = SurfCorr.of(n, ("T", mu0(n)))
    assert act_on_divisor(t, DivClass.of(n, GENERIC_FIBER)) == DivClass.of(n, DA_FIBER)
    with pytest.raises(DegreeError):
        act_on_divisor(t, DivClass.of(n, DA_FIBER))
    with pytest.raises(DegreeError):
        act_on_divisor_linear(t, linear_class(DivClass.of(n, DA_FIBER)))
    # the certificate only acts on [fiber] and the components, so it reads the fault as failed rows
    assert "action:pi0:fiber" in _failed(surface_certificate(n))


# -- the Q[G] kernel (`groups.law_product`): each fault with the entries it flips at N = 6, where it runs

_law = groups.law_product


def _minus_halves_swapped(xs, ys, n):
    # the terms of sign -1 of x and of y exchanged: x- rho(y-) becomes y- rho(x-), and x+ y- becomes x+ x-
    m = n * n
    return _law([t for t in xs if t[0] < m] + [t for t in ys if t[0] >= m],
                [t for t in ys if t[0] < m] + [t for t in xs if t[0] >= m], n)


# (name patched in groups, patch)
KERNEL_FAULTS = {
    "rho dropped": ("_reflected", lambda a, n: a),
    "x- and y- swapped": ("law_product", _minus_halves_swapped),
    "slot width one bit short": ("_slot_width", lambda bound: bound.bit_length()),
}

_PI1_FACTORS = ["pi(0,1)", "pi(1,0)", "pi(1,1)", "pi(1,2)", "pi(2,1)"]

# (group, surface, threefold) entries that each fault flips at N = 6.  Every Q[G] operand that the certificates
# multiply densely (eps, theta, and the graphs of pi1 and piInf) is constant on each half of G but at the identity,
# so rho fixes it; and in each pair multiplied the two constants of sign -1 agree, or the terms of sign +1 have equal
# sums, so the swap changes no product: those two faults flip no entry (a FOUND line of CHANGES.md), and the product
# test below shows both
KERNEL_FAILURES = {
    "rho dropped": ([], [], []),
    "x- and y- swapped": ([], [], []),
    "slot width one bit short": (
        ["eps:idempotent", "theta:idempotent"],
        ["kronecker:pi1.pi1"],
        [f"kronecker:{na}.{na}" for na in _PI1_FACTORS] + ["split:idempotent:alt(1,1)", "split:idempotent:sym(1,1)"]
        + ["residual:idempotent"]
        + [row for na in _PI1_FACTORS + ["alt(1,1)", "sym(1,1)"]
           for row in (f"residual:piInf.{na}", f"residual:{na}.piInf")]),
}


@pytest.mark.parametrize("fault", sorted(KERNEL_FAULTS))
def test_certificates_under_a_kernel_fault(fault, monkeypatch):
    n = 6
    calls = []
    monkeypatch.setattr(groups, "law_product", lambda *args: calls.append(args) or _law(*args))
    assert (_failed(group_certificate(n)), _failed(surface_certificate(n))) == ([], [])
    assert calls  # the kernel runs at this level
    monkeypatch.setattr(groups, *KERNEL_FAULTS[fault])
    got = (_failed(group_certificate(n)), _failed(surface_certificate(n)), _failed(threefold_certificate(n)))
    assert got == KERNEL_FAILURES[fault]


@pytest.mark.parametrize("fault", sorted(KERNEL_FAULTS))
def test_each_kernel_fault_shows_on_products_without_those_symmetries(fault, monkeypatch):
    # a dense x with no symmetry, and eps, each of whose product sums reaches the bound of the slot width
    n = 6
    x = GroupRingElement(n, {g: g.code % 7 - 3 for g in groups.enumerate_g(n)})
    y = GroupRingElement(n, {g: g.code % 5 - 1 for g in groups.enumerate_g(n)})
    eps = groups.epsilon_projector(n)
    pairs = [(x, y), (eps, eps)]
    want = [product(a, b, group_product) for a, b in pairs]
    assert [a * b for a, b in pairs] == want
    monkeypatch.setattr(groups, *KERNEL_FAULTS[fault])
    assert [a * b for a, b in pairs] != want


# -- every entry of the four certificates at N = 4 fails under at least one mapped fault
#
# An entry is keyed by (section, name): names such as residual:idempotent repeat across sections.  The kernel
# faults are mapped at N = 6, where the kernel runs, so they count for no entry here.

_CERTIFICATES = {
    "group_certificate": group_certificate,
    "structure_certificate": threefold.verify_structure_identities,
    "surface_certificate": surface_certificate,
    "threefold_certificate": threefold_certificate,
}

# (section, name) of each entry that no mapped fault flips, each also logged as a FOUND line of CHANGES.md
UNFLIPPED_ENTRIES: set = set()


def _mapped_flips() -> set:
    """(section, name) of every entry at N = 4 that some fault of the maps above flips."""
    maps = {
        "group_certificate": [*GROUP_FAILURES.values()],
        "structure_certificate": [*STRUCTURE_FAILURES.values()],
        "surface_certificate": [
            *SURFACE_RULE_FAILURES.values(), *TRANSPOSE_WITNESS_FAILURES.values(), PI1_FAILURES, CUSP_CROSS_FAILURES,
            *(surface_rows for surface_rows, _ in ACTION_FAILURES.values())],
        "threefold_certificate": [
            *RESTRICTION_FAILURES.values(), *THREEFOLD_TRANSPOSE_SWAP_FAILURES.values(),
            *THREEFOLD_PRODUCT_FAILURES.values(), *(threefold_rows for _, threefold_rows in ACTION_FAILURES.values())],
    }
    return {(section, name) for section, flipped in maps.items() for names in flipped for name in names}


def test_every_certificate_entry_fails_under_some_mapped_fault():
    entries = {section: certificate(4) for section, certificate in _CERTIFICATES.items()}
    assert [len(rows) for rows in entries.values()] == [14, 3, 138, 191]
    keys = {(section, e["name"]) for section, rows in entries.items() for e in rows}
    assert len(keys) == 14 + 3 + 138 + 191
    flipped = _mapped_flips()
    assert flipped <= keys
    assert keys - flipped == UNFLIPPED_ENTRIES
