"""The cusp projectors share one block, and a product of that block is made once.

`surface.build_pi_cusp(n, c)` relabels piC(0), built once per level, and
every piC(c) holds piC(0)'s block; `compose` keeps a product that reads
only that block, on the record of the operand whose maps it read, and
relabels it at each cusp.  These tests compare the relabelled build with
the loop it replaced (`support.build_pi_cusp_by_loop`), every product of a
cusp projector with the atom-pair oracle, and bound what is kept on the
sums a process holds for good.
"""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motive_calc import surface
from motive_calc.levels import cusp_count
from motive_calc.surface import (
    VERT, SurfCorr, build_pi_bars, build_pi_cusp, build_pi_inf, compose, cusp_prod, transpose, transpose_atom)

from support import build_pi_cusp_by_loop, compose_by_atom_pairs, enumerate_surf


@pytest.mark.parametrize("n", range(3, 11))
def test_every_cusp_projector_is_the_loop_s_and_holds_the_one_block(n):
    block = build_pi_cusp(n, 0)._derived.parts[2][0]
    for c in range(cusp_count(n)):
        pc, want = build_pi_cusp(n, c), build_pi_cusp_by_loop(n, c)
        assert (pc.nums, pc.d) == (want.nums, want.d)
        assert pc._derived.parts[2] == {c: block} and pc._derived.parts[2][c] is block


@pytest.mark.parametrize("n", [3, 4, 6])
def test_a_cusp_outside_the_level_raises_as_the_loop_does(n):
    for c in (cusp_count(n), -1, 1.0, True):
        with pytest.raises(ValueError) as want:
            build_pi_cusp_by_loop(n, c)
        with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
            build_pi_cusp(n, c)


def _atom_transpose(x: SurfCorr) -> SurfCorr:
    return SurfCorr(x.level, {transpose_atom(a): v for a, v in x.terms.items()})


@st.composite
def cusp_operands(draw, n):
    """Cusp projectors plain, scaled, plus a graph, V or other-cusp term, and a second piC on one cusp,
    with a random sum of graph, V and component product atoms."""
    c, d = draw(st.lists(st.integers(0, cusp_count(n) - 1), min_size=2, max_size=2, unique=True))
    k = draw(st.sampled_from([Fraction(-3, 2), Fraction(1, 2), 2, 3]))
    ends = enumerate_surf(n)
    e = draw(st.sampled_from(ends))
    index = st.integers(0, n - 1)
    other = cusp_prod(d, draw(index), draw(index))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    mixed = {("G", rng.choice(ends)): rng.choice((1, -2)) for _ in range(3)}
    mixed.update({cusp_prod(rng.choice((c, d)), rng.randrange(n), rng.randrange(n)): Fraction(1, 2) for _ in range(4)})
    mixed[VERT] = 1
    return [
        build_pi_cusp(n, c),
        build_pi_cusp(n, c),  # a second object on the same cusp
        build_pi_cusp(n, d),
        build_pi_cusp(n, c).scale(k),
        build_pi_cusp(n, c) + SurfCorr.of(n, ("G", e)),
        build_pi_cusp(n, c) + SurfCorr.of(n, VERT, k),
        build_pi_cusp(n, c) + SurfCorr.of(n, other),
        SurfCorr(n, mixed),
    ]


@settings(max_examples=25, deadline=None)
@given(st.data(), st.integers(3, 6))
def test_products_of_cusp_projectors_match_the_atom_pair_oracle(data, n):
    operands = data.draw(cusp_operands(n))
    bars = [*build_pi_bars(n).values(), build_pi_inf(n)]
    for x in operands:
        assert transpose(x) == _atom_transpose(x)
        for y in operands + bars:
            assert compose(x, y) == compose_by_atom_pairs(x, y)
            assert compose(y, x) == compose_by_atom_pairs(y, x)


def _kept_sizes(n: int) -> list[int]:
    """The entries on the records of the pi bars and of piC(0), the sums a process holds for good."""
    return [len(surface._Operand.of(x).rows) for x in (*surface._pi_bars(n), surface._cusp_template(n))]


def test_random_sums_keep_nothing_on_the_long_lived_sums():
    # a fresh sum that meets a cusp projector keeps that product on its own record, which goes with it
    n = 6
    rng = random.Random(23)
    ends = enumerate_surf(n)
    bars = build_pi_bars(n)
    long_lived = [build_pi_cusp(n, 0), build_pi_cusp(n, 5), bars["pi0"], bars["pi1"]]

    def fresh() -> SurfCorr:
        terms = {("G", rng.choice(ends)): rng.randint(1, 3) for _ in range(rng.randint(0, 4))}
        terms.update({cusp_prod(rng.randrange(cusp_count(n)), rng.randrange(n), rng.randrange(n)): -1
                      for _ in range(rng.randint(0, 3))})
        if rng.random() < 0.5:
            terms[VERT] = Fraction(1, 2)
        return SurfCorr(n, terms)

    sizes = []
    for i in range(500):
        x = fresh()
        for p in long_lived:
            compose(p, x)
            compose(x, p)
        if i == 49:
            sizes = _kept_sizes(n)
    assert _kept_sizes(n) == sizes
    assert max(sizes) <= 4
