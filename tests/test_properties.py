"""Randomized structural laws that guard the algebra against regressions."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from motive_calc.dsl import parse_expr
from motive_calc.levels import cusp_count
from motive_calc.surface import (
    SurfCorr,
    VERT,
    compose,
    cusp_prod,
    neron_lattice,
    transpose,
)

from support import enumerate_surf, mat_identity, mat_mul, print_expr


def _random_corr(n, rng, size=4):
    atoms = []
    ends = enumerate_surf(n)
    for _ in range(size):
        kind = rng.randrange(4)
        if kind == 0:
            atoms.append(("G", rng.choice(ends)))
        elif kind == 1:
            collapses = [e for e in ends if e.collapse]
            atoms.append(("T", rng.choice(collapses)))
        elif kind == 2:
            atoms.append(VERT)
        else:
            atoms.append(
                cusp_prod(rng.randrange(cusp_count(n)), rng.randrange(n), rng.randrange(n))
            )
    return SurfCorr(
        n, {a: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for a in atoms}
    )


def test_compose_is_bilinear():
    n = 4
    rng = random.Random(77)
    for _ in range(60):
        x = _random_corr(n, rng)
        y = _random_corr(n, rng)
        z = _random_corr(n, rng)
        assert compose(x + y, z) == compose(x, z) + compose(y, z)
        assert compose(x, y + z) == compose(x, y) + compose(x, z)
        k = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        assert compose(x.scale(k), y) == compose(x, y).scale(k)
        assert compose(x, y.scale(k)) == compose(x, y).scale(k)


def test_transpose_antihomomorphism_on_random_sums():
    n = 4
    rng = random.Random(78)
    for _ in range(60):
        x = _random_corr(n, rng)
        y = _random_corr(n, rng)
        assert transpose(compose(x, y)) == compose(transpose(y), transpose(x))


_names = st.sampled_from(
    [
        "pi0",
        "pi1",
        "pi2",
        "Delta",
        "V",
        "mu0",
        "piF",
        "piInf",
        "piC(0)",
        "CP(0,1,2)",
        "G(1,0,-1)",
    ]
)


@st.composite
def expressions(draw, depth=0):
    if depth >= 3:
        return draw(_names)
    kind = draw(st.integers(min_value=0, max_value=4))
    if kind == 0:
        return draw(_names)
    if kind == 1:
        return f"t({draw(expressions(depth + 1))})"
    if kind == 2:
        return f"({draw(expressions(depth + 1))}) . ({draw(expressions(depth + 1))})"
    if kind == 3:
        num = draw(st.integers(min_value=-9, max_value=9))
        den = draw(st.integers(min_value=1, max_value=9))
        return f"{num}/{den} * ({draw(expressions(depth + 1))})"
    return f"({draw(expressions(depth + 1))}) - ({draw(expressions(depth + 1))})"


@given(expressions())
@settings(max_examples=150, deadline=None)
def test_parser_round_trip_fuzz(source):
    ast = parse_expr(source)
    assert parse_expr(print_expr(ast)) == ast


def test_lattice_at_the_performance_boundary():
    # the design targets exactness up to N around 16
    lat = neron_lattice(16)
    assert lat.rank == 15
    assert mat_mul(lat.reduced_block, lat.reduced_inverse) == mat_identity(15)
