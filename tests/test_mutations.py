"""Mutation tests: with one rule or one projector coefficient deliberately
wrong, the certificate that covers it must report a failure.  A certificate
that still reads all-pass under such a fault would be checking nothing."""

from fractions import Fraction

import pytest

from motive_calc import groups, surface
from motive_calc.groups import group_certificate
from motive_calc.surface import surface_certificate


def _failed(entries):
    return [e["name"] for e in entries if e["status"] == "fail"]


@pytest.mark.parametrize("certificate", [surface_certificate, group_certificate])
def test_certificates_pass_unmutated(certificate):
    assert _failed(certificate(4)) == []


def _bump_first(x):
    """x with the coefficient of its first atom in print order raised by 1."""
    atom = min(x.terms, key=x.sort_key)
    terms = dict(x.terms)
    terms[atom] += 1
    return type(x)._make(x.level, terms)


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
        return groups.GroupRingElement(terms)

    monkeypatch.setattr(groups, "epsilon_projector", one_coefficient_off)
    failed = _failed(group_certificate(4))
    assert "eps:idempotent" in failed


def test_group_certificate_fails_with_one_product_table_entry_changed(monkeypatch):
    build = groups.g_table

    def one_entry_off(n):
        elems, index, table = build(n)
        if n == 4:
            table = [list(row) for row in table]
            # tau(0,1) tau(0,1) should be tau(0,2); send it to tau(0,3)
            t01, t02, t03 = (index[groups.tau(n, 0, b)] for b in (1, 2, 3))
            assert table[t01][t01] == t02
            table[t01][t01] = t03
        return elems, index, table

    monkeypatch.setattr(groups, "g_table", one_entry_off)
    failed = _failed(group_certificate(4))
    assert "eps:idempotent" in failed
    assert _failed(group_certificate(3)) == []


def test_a_failed_entry_shows_its_residual_capped(monkeypatch):
    build = groups.epsilon2_projector

    def asymmetric(n):
        # doubling the coefficients of (a, b) with a a translation by (1, *) and b by (0, *)
        # breaks the swap symmetry that makes eps2 commute with A2 and S2
        eps2 = build(n)
        terms = {g: 2 * c if (g.g1.b1, g.g2.b1) == (1, 0) else c for g, c in eps2.terms.items()}
        return groups.GroupRingElement(terms)

    monkeypatch.setattr(groups, "epsilon2_projector", asymmetric)
    entries = {e["name"]: e for e in group_certificate(4)}
    failed = entries["a2_eps2:commute"]
    assert failed["status"] == "fail"
    a2 = groups.symmetrizers(4)[0]
    eps2 = asymmetric(4)
    residual = a2 * eps2 - eps2 * a2
    assert len(residual.terms) > 8
    first = sorted(residual.terms, key=residual.sort_key)[:8]
    shown = " + ".join(f"{residual.fmt(residual.terms[a])}*{residual.label(a)}" for a in first)
    assert failed["got"] == f"got - want has {len(residual.terms)} atoms: {shown} + ..."
    # passing entries carry no detail, so their bytes are those of an unmutated run
    assert all("got" not in e for e in entries.values() if e["status"] == "pass")
