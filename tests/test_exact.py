import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motive_calc.exact import (
    DegreeError,
    RatMatrix,
    SingularMatrixError,
    fmt_rational,
    mat_inverse,
    mat_rank,
)
from motive_calc.dsl import NamedAtom, Scale, parse_expr
from motive_calc.surface import neron_lattice

from support import (
    LinearCoeff, mat_identity, mat_inverse_by_fractions, mat_mul, mat_rank_by_fractions, mat_transpose, mat_zero)

rationals = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**4
)


def ngon_matrix(n):
    def entry(i, j):
        d = (i - j) % n
        if d == 0:
            return -2
        return 1 if d in (1, n - 1) else 0

    return RatMatrix([[entry(i, j) for j in range(n)] for i in range(n)])


def test_rank_identity():
    assert mat_rank(mat_identity(3)) == 3


def test_rank_zero():
    assert mat_rank(mat_zero(2, 5)) == 0


def test_rank_ngon_level_three():
    # direct elimination: row reduce [[-2,1,1],[1,-2,1],[1,1,-2]] by hand
    # gives two pivots
    assert mat_rank(ngon_matrix(3)) == 2


def test_inverse_one_by_one():
    assert mat_inverse(RatMatrix([[1]])) == RatMatrix([[1]])


def test_inverse_two_by_two():
    m = RatMatrix([[-2, 1], [1, -2]])
    # 2x2 formula: adj / det with det = 3
    want = RatMatrix(
        [[Fraction(-2, 3), Fraction(-1, 3)], [Fraction(-1, 3), Fraction(-2, 3)]]
    )
    assert mat_inverse(m) == want


def test_inverse_singular():
    with pytest.raises(SingularMatrixError):
        mat_inverse(RatMatrix([[1, 1], [1, 1]]))


def test_inverse_roundtrip_random():
    rng = random.Random(7)
    for size in (1, 2, 3, 5, 8):
        for _ in range(5):
            m = RatMatrix(
                [
                    [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(size)]
                    for _ in range(size)
                ]
            )
            if mat_rank(m) < size:
                continue
            inv = mat_inverse(m)
            ident = mat_identity(size)
            assert mat_mul(m, inv) == ident
            assert mat_mul(inv, m) == ident


@given(
    st.lists(
        st.lists(
            st.fractions(min_value=-50, max_value=50, max_denominator=8),
            min_size=3,
            max_size=3,
        ),
        min_size=2,
        max_size=4,
    )
)
@settings(max_examples=60, deadline=None)
def test_rank_equals_transpose_rank(rows):
    m = RatMatrix(rows)
    assert mat_rank(m) == mat_rank(mat_transpose(m))


@given(rationals, rationals, rationals)
@settings(max_examples=100, deadline=None)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    if a:
        assert a * (1 / a) == 1


def test_kernel_of_ngon():
    # the N-gon lattice has corank one, and the all-ones vector spans the kernel
    lat = neron_lattice(5)
    assert lat.full_matrix == ngon_matrix(5)
    assert lat.rank == 4
    assert mat_mul(lat.full_matrix, RatMatrix([[1]] * 5)) == mat_zero(5, 1)


def test_fmt_parse_rational():
    assert fmt_rational(Fraction(3, 1)) == "3"
    assert fmt_rational(Fraction(-1, 2)) == "-1/2"
    assert parse_expr("1/2 * pi0") == Scale(Fraction(1, 2), NamedAtom("pi0"))
    assert parse_expr("7 * pi0").coeff == Fraction(7)


def test_linear_coeff_arithmetic():
    x = LinearCoeff.of(Fraction(1, 2)) + LinearCoeff.d_a(3)
    y = x - LinearCoeff.d_a(3)
    assert y == LinearCoeff.of(Fraction(1, 2))
    assert (x.scale(2)).const == 1
    assert str(LinearCoeff.d_a()) == "d_a"
    assert str(x) == "1/2 + 3*d_a"


def test_linear_coeff_degree_error():
    da = LinearCoeff.d_a()
    with pytest.raises(DegreeError):
        _ = da * da
    # products with a pure constant stay fine
    assert (da * LinearCoeff.of(2)).da_part == 2


# -- integer elimination against the Fraction oracle


@st.composite
def rational_matrices(draw):
    """Matrices up to 8x8 with small entries, square about half the time; as often the first row combines later ones."""
    rows = draw(st.integers(1, 8))
    cols = rows if draw(st.booleans()) else draw(st.integers(1, 8))
    entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))  # st.fractions costs about 8x as much
    m = [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        a, b, other = draw(entry), draw(entry), m[draw(st.integers(1, rows - 1))]
        m[0] = [a * x + b * y for x, y in zip(m[-1], other)]
    return RatMatrix(m)


@given(rational_matrices())
@example(RatMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]]))
@example(RatMatrix([[Fraction(1, 2), 1], [1, 2], [3, 4]]))
@settings(max_examples=400, deadline=None)
def test_integer_elimination_matches_the_fraction_oracle(m):
    assert mat_rank(m) == mat_rank_by_fractions(m)
    if m.rows == m.cols:
        try:
            want = mat_inverse_by_fractions(m)
        except SingularMatrixError:
            with pytest.raises(SingularMatrixError):
                mat_inverse(m)
        else:
            assert mat_inverse(m) == want


@pytest.mark.parametrize("n", range(3, 17))
def test_neron_lattice_matches_the_fraction_oracle(n):
    lat = neron_lattice(n)
    assert lat.rank == mat_rank_by_fractions(lat.full_matrix) == n - 1
    assert lat.reduced_inverse == mat_inverse_by_fractions(lat.reduced_block)


def test_a_wrong_row_update_raises_under_python_O():
    # each patched update leaves a column uncleared, breaks an exact division or fails the inverse's check against
    # the matrix: the last alone sees an update that is one off on a matrix whose pivots are all 1, where every
    # division is by 1
    script = """
import sys
from motive_calc import exact, surface
from motive_calc.levels import InvariantError
full = exact.RatMatrix([[surface.an_entry(6, i, j) for j in range(6)] for i in range(6)])
unimodular = exact.RatMatrix([[1, 2], [3, 7]])
wrong = {
    "sign": lambda p, row, f, pivot: [p * x + f * y for x, y in zip(row, pivot)],
    "pivot first": lambda p, row, f, pivot: [f * x - p * y for x, y in zip(row, pivot)],
    "one entry off": lambda p, row, f, pivot: [p * x - f * y for x, y in zip(row, pivot)][:-1] + [p * row[-1] - f * pivot[-1] + 1],
    "no pivot row": lambda p, row, f, pivot: [p * x for x in row],
}
out = []
for name, update in wrong.items():
    exact._row_update = update
    for run in (lambda: exact.mat_rank(full), lambda: exact.mat_inverse(full.submatrix(range(1, 6), range(1, 6))),
                lambda: exact.mat_inverse(unimodular)):
        try:
            out.append(f"{name}: returned {run()!r}")
        except InvariantError:
            out.append(f"{name}: raised")
print(sys.flags.optimize, out)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    raised = [f"{name}: raised" for name in ("sign", "pivot first", "one entry off", "no pivot row") for _ in range(3)]
    assert out.stdout == f"1 {raised}\n"
