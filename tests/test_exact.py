import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
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

from support import LinearCoeff, mat_mul, mat_transpose, mat_zero

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
    assert mat_rank(RatMatrix.identity(3)) == 3


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
            ident = RatMatrix.identity(size)
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
