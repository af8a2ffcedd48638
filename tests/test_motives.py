import os
import subprocess
import sys
from pathlib import Path

import pytest

from motive_calc.levels import level_invariants
from motive_calc.motives import (
    Count,
    SYMBOL_N,
    SymbolicMultiplicityError,
    basis_chow_degrees,
    chow_kunneth_table,
    codim_one_checklist,
    decompose_surface,
    decompose_threefold,
    filtration_table,
    realize_betti,
    surface_multiplicity,
)

from support import poincare_symmetric


def test_surface_shape_level_three():
    m = decompose_surface(3)
    assert m[("1",)] == Count(1)
    assert m[("L", 1)] == Count(10)
    assert m[("L", 2)] == Count(1)
    assert m[("h1M", 0)] == Count(1)
    assert m[("h1M", 1)] == Count(1)
    assert m[("W1", 0)] == Count(1)
    assert m[("W2",)] == Count(0)


def test_surface_multiplicity_level_four():
    assert decompose_surface(4)[("L", 1)] == Count(20)


def test_threefold_shape():
    m = decompose_threefold(5)
    assert m[("L", 1)] == SYMBOL_N
    assert m[("L", 2)] == SYMBOL_N
    assert m[("L", 3)] == Count(1)
    assert m[("h1M", 1)] == Count(3)
    assert m[("W1", 0)] == Count(2)
    assert m[("W1", 1)] == Count(2)
    assert m[("W2",)] == Count(1)


@pytest.mark.parametrize(
    "n,expected",
    [(3, [1, 0, 10, 0, 1]), (4, [1, 0, 22, 0, 1])],
)
def test_surface_betti_tables(n, expected):
    table = realize_betti(decompose_surface(n), n, "surface")
    assert table.numeric() == expected


def test_surface_betti_level_six():
    table = realize_betti(decompose_surface(6), 6, "surface")
    b = table.numeric()
    assert b[1] == b[3] == 2  # genus one
    assert table.euler().numeric() == 72


@pytest.mark.parametrize("n", range(3, 11))
def test_euler_identity_and_route_agreement(n):
    inv = level_invariants(n)
    table = realize_betti(decompose_surface(n), n, "surface")
    assert table.euler().numeric() == n * inv.cusp_count
    routes = surface_multiplicity(n)
    assert routes["assembly"] == routes["euler_route"] == routes["ns_rank"]
    assert routes["difference_assembly_minus_closed_form"] == 2
    assert poincare_symmetric(table)


def test_threefold_betti_symbolic():
    table = realize_betti(decompose_threefold(3), 3, "threefold")
    assert poincare_symmetric(table)
    assert str(table.b[2]) == "n"
    assert table.b[3] == Count(2)
    with pytest.raises(SymbolicMultiplicityError):
        table.numeric()
    assert table.substitute(72) == [1, 0, 72, 2, 72, 0, 1]


def test_chow_kunneth_tables():
    ck_s = chow_kunneth_table(3, "surface")
    assert ck_s[0].render() == "1"
    assert ck_s[4].render() == "L^2"
    assert ck_s[2][("W1", 0)] == Count(1)
    ck_t = chow_kunneth_table(3, "threefold")
    assert ck_t[0].render() == "1"
    assert ck_t[3][("h1M", 1)] == Count(3)
    assert ck_t[3][("W2",)] == Count(1)
    assert ck_t[6].render() == "L^3"


@pytest.mark.parametrize("which,dim", [("surface", 2), ("threefold", 3)])
def test_filtration_step_counts(which, dim):
    ft = filtration_table(5, which)
    assert len(ft.tables) == dim + 1
    for j, steps in enumerate(ft.tables):
        assert len(steps) == j + 1  # F^0 plus exactly j descents
        assert steps[0].label == f"CH^{j}"
        if j >= 1:
            assert steps[1].label == f"CH^{j}_hom"


def test_filtration_graded_pieces():
    ft = filtration_table(4, "threefold")
    ch3 = ft.tables[3]
    assert ch3[2].label == "CH^3_alb"
    assert ch3[2].graded_piece == "2(CH^2_alb(surface))"
    assert ch3[3].graded_piece == "CH^3(W2)"
    ch1 = ft.tables[1]
    assert ch1[1].graded_piece == "Jac(M) (x) Q"
    fs = filtration_table(4, "surface")
    assert fs.tables[2][1].label == "CH^2_hom"
    assert fs.tables[2][2].label == "CH^2_alb"
    assert fs.tables[2][2].graded_piece == "CH^2_alb(surface)"


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("which", ["surface", "threefold"])
def test_vanishing_pattern(n, which):
    # every constituent of h^i has nonzero Chow degrees j only for j <= i <= 2j
    ck = chow_kunneth_table(n, which)
    for i, piece in enumerate(ck):
        for key in piece.multiplicities:
            for j in basis_chow_degrees(key):
                assert j <= i <= 2 * j
    filtration_table(n, which)  # also asserts internally


@pytest.mark.parametrize("which", ["surface", "threefold"])
def test_codim_one_checklist(which):
    from motive_calc.motives import codim_one_checklist

    entries = codim_one_checklist(chow_kunneth_table(4, which), filtration_table(4, which))
    assert len(entries) == 5
    assert all(e["status"] == "pass" for e in entries)
    assert entries[0]["name"] == "ch1:support"


@pytest.mark.parametrize("table", [
    lambda: realize_betti(decompose_surface(3), 3, "Surface"),
    lambda: chow_kunneth_table(3, "x"),
    lambda: filtration_table(3, "foo"),
    lambda: codim_one_checklist(chow_kunneth_table(3, "x"), filtration_table(3, "x")),
], ids=["realize_betti", "chow_kunneth_table", "filtration_table", "codim_one_checklist"])
def test_an_unknown_variety_is_refused_naming_the_two(table):
    with pytest.raises(ValueError, match="unknown variety .*: expected 'surface' or 'threefold'"):
        table()


def test_a_report_builds_each_variety_s_tables_once(monkeypatch):
    # each variety decomposed once, its Chow-Kunneth table (one Motive per weight) and its filtration table built
    # once; the surface multiplicity runs in the decomposition and once more for its printed routes.  Nothing is
    # kept: a second report counts as much again
    from collections import Counter

    from motive_calc import motives, report

    counts = Counter()

    def counted(name, f):
        return lambda *args: counts.update([name]) or f(*args)

    for which, (dim, decompose) in motives._VARIETIES.items():
        monkeypatch.setitem(motives._VARIETIES, which, motives.Variety(dim, counted(which, decompose)))
    multiplicity = counted("surface_multiplicity", motives.surface_multiplicity)
    monkeypatch.setattr(motives, "surface_multiplicity", multiplicity)
    monkeypatch.setattr(report, "surface_multiplicity", multiplicity)
    monkeypatch.setattr(motives, "Motive", type("Motive", (motives.Motive,), {"__init__": counted("Motive", motives.Motive.__init__)}))
    monkeypatch.setattr(motives, "FiltrationTable", counted("FiltrationTable", motives.FiltrationTable))
    for runs in (1, 2):
        report.run_report(4)
        # a decomposition is one Motive, a Chow-Kunneth table 2d + 1 of them: 5 for the surface, 7 for the threefold
        assert counts == {"surface": runs, "threefold": runs, "surface_multiplicity": 2 * runs,
                          "FiltrationTable": 2 * runs, "Motive": (1 + 5 + 1 + 7) * runs}


def test_count_rendering():
    assert str(Count(3)) == "3"
    assert str(SYMBOL_N) == "n"
    assert str(Count(4, 1)) == "n + 4"
    assert str(Count(-2, 3)) == "3n - 2"
    assert Count(1, 2).substitute(5) == 11


def test_betti_euler_check_runs_under_python_O():
    # with a wrong basis dimension the Euler identity fails; the check must
    # raise even when the interpreter strips asserts
    script = """
import sys
from motive_calc import motives
from motive_calc.levels import InvariantError
motives.basis_dim = lambda key, inv: 7
try:
    table = motives.realize_betti(motives.decompose_surface(3), 3, "surface")
except InvariantError as exc:
    print("raised", sys.flags.optimize, exc)
else:
    print("returned", sys.flags.optimize, table.numeric())
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised 1 Betti Euler number"), out.stdout
