"""The integer kernel against the Fraction loop it replaced.

Every product of two rational sums runs on integer numerators over one
common denominator (`sums.integral`, `sums.rationalize`).  The reference
here is the loop that multiplied and added `Fraction`s atom pair by atom
pair: `collect(bilinear(x.terms.items(), y.terms.items(), rule, level))`.
Operands are random sums at N = 3..5 with denominators from
{1, 2, 3, 4, 2N^2}, mixed with named projectors so that products cancel to
zero or to integer coefficients.  Besides equality, every coefficient of
a result must be a nonzero `Fraction` in lowest terms: `==` alone would
pass an `int`, since `Fraction(2) == 2`.
"""

from fractions import Fraction
from itertools import chain
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motive_calc.groups import (
    GroupRingElement,
    enumerate_g,
    epsilon_projector,
    lambda_theta,
    symmetrizers,
)
from motive_calc.levels import cusp_count
from motive_calc.sums import bilinear, collect, integral, rationalize
from motive_calc.surface import (
    VERT,
    SurfCorr,
    UnsupportedCompositionError,
    build_pi_bars,
    build_pi_cusp,
    build_pi_inf,
    compose,
    compose_atom_pair,
    delta,
    restrict_to_open,
)
from motive_calc.threefold import (
    TCorr,
    TensorExpr,
    _tensor_rule,
    b_term_expr,
    compose_t_atom_pair,
    pair_projector_expr,
    sigma_expr,
    t_atom,
    t_compose,
    t_delta_expr,
)

from support import (
    G2Elem,
    G2Sum,
    _open_pair,
    _open_t_pair,
    compose_open,
    compose_open_t,
    enumerate_surf,
    g2_sum,
    group_product,
    tensor_open,
)

LEVELS = st.integers(3, 5)


# -- the reference loop --------------------------------------------------------------

def oracle_product(x, y, rule, cls=None):
    """The Fraction-coefficient product: one normalized Fraction per atom pair."""
    terms = collect(bilinear(x.terms.items(), y.terms.items(), rule, x.level))
    return (cls or type(x))._make(x.level, terms)


def oracle_expand(x: TensorExpr) -> TCorr:
    """`TensorExpr.expand` on Fraction coefficients: merged parts, then each part's atoms."""
    pairs = [
        bilinear([(la, c * ca) for la, ca in a.terms.items()], b.terms.items(), _tensor_rule(e), x.level)
        for (a, b, e), c in x.terms.items()
    ]
    return TCorr._make(x.level, collect(chain.from_iterable(pairs)))


def assert_same(got, want):
    assert type(got) is type(want)
    assert got.level == want.level
    assert got.terms == want.terms
    for c in got.terms.values():
        assert type(c) is Fraction
        assert c != 0
        assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1


def assert_same_outcome(kernel, oracle):
    """Equal results, or both outside the rule table."""
    try:
        want = oracle()
    except UnsupportedCompositionError:
        with pytest.raises(UnsupportedCompositionError):
            kernel()
        return
    assert_same(kernel(), want)


# -- operands ------------------------------------------------------------------------

@st.composite
def coefficients(draw, n):
    den = draw(st.sampled_from([1, 2, 3, 4, 2 * n * n]))
    num = draw(st.integers(-2 * den, 2 * den).filter(bool))
    return Fraction(num, den)


def surface_atoms(n, cusps=True):
    ends = enumerate_surf(n)
    kinds = [
        st.builds(lambda e: ("G", e), st.sampled_from(ends)),
        st.builds(lambda e: ("T", e), st.sampled_from([e for e in ends if e.collapse])),
        st.just(VERT),
    ]
    if cusps:
        index = st.integers(0, n - 1)
        cusp = st.integers(0, min(1, cusp_count(n) - 1))
        kinds.append(st.builds(lambda c, m, k: ("C", c, m, k), cusp, index, index))
    return st.one_of(kinds)


def _named_surface(n, cusps=True):
    bars = build_pi_bars(n)
    named = [delta(n), bars["pi0"], bars["pi1"], bars["pi2"], SurfCorr.of(n, VERT)]
    if cusps:
        named += [build_pi_cusp(n, 0), build_pi_cusp(n, 1), build_pi_inf(n)]
    return named


@st.composite
def surface_sums(draw, n, cusps=True):
    """A random combination of atoms and named projectors, each with a random coefficient."""
    pieces = draw(st.lists(
        st.one_of(
            st.builds(lambda a, c: SurfCorr.of(n, a, c), surface_atoms(n, cusps), coefficients(n)),
            st.builds(lambda p, c: p.scale(c), st.sampled_from(_named_surface(n, cusps)), coefficients(n)),
        ),
        min_size=1,
        max_size=5,
    ))
    total = SurfCorr.zero(n)
    for piece in pieces:
        total = total + piece
    return total


@st.composite
def tensor_sums(draw, n):
    atom = surface_atoms(n, cusps=False)
    named = [p.expand() for p in (t_delta_expr(n), sigma_expr(n), b_term_expr(n, 1), b_term_expr(n, 2))]
    named += [pair_projector_expr(n, i, j).expand() for i in (0, 2) for j in (0, 2)]
    pieces = draw(st.lists(
        st.one_of(
            st.builds(lambda a, b, e, c: TCorr(n, {t_atom(a, b, e): c} if t_atom(a, b, e) else {}),
                      atom, atom, st.booleans(), coefficients(n)),
            st.builds(lambda p, c: p.scale(c), st.sampled_from(named), coefficients(n)),
        ),
        min_size=1,
        max_size=5,
    ))
    total = TCorr.zero(n)
    for piece in pieces:
        total = total + piece
    return total


@st.composite
def group_ring_elements(draw, n, pairs=False):
    if pairs:
        g = st.sampled_from(enumerate_g(n))
        elem = st.builds(lambda a, b, e: G2Elem(n, a, b, e), g, g, st.booleans())
        named = [g2_sum(s) for s in symmetrizers(n)]
    else:
        elem = st.sampled_from(enumerate_g(n))
        named = [epsilon_projector(n), *lambda_theta(n)]
    pieces = draw(st.lists(
        st.one_of(
            st.builds(lambda g, c: GroupRingElement.of(g, c), elem, coefficients(n)),
            st.builds(lambda p, c: p.scale(c), st.sampled_from(named), coefficients(n)),
        ),
        min_size=1,
        max_size=4,
    ))
    total = G2Sum() if pairs else GroupRingElement()
    for piece in pieces:
        total = total + piece
    return total


# -- the helpers ---------------------------------------------------------------------

def test_integral_takes_the_lcm_of_the_denominators():
    d, terms = integral({"a": Fraction(1, 2), "b": Fraction(-2, 3), "c": Fraction(5)})
    assert d == 6
    assert terms == [("a", 3), ("b", -4), ("c", 30)]
    assert integral({}) == (1, [])


def test_rationalize_works_in_place_in_lowest_terms():
    out = {"a": 3, "b": -4, "c": 6}
    assert rationalize(out, 6) is out
    assert out == {"a": Fraction(1, 2), "b": Fraction(-2, 3), "c": Fraction(1)}
    assert all(type(c) is Fraction for c in out.values())


# -- every product that runs through the kernel ------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.data(), LEVELS)
def test_compose_matches_the_fraction_loop(data, n):
    x = data.draw(surface_sums(n))
    y = data.draw(surface_sums(n))
    assert_same(compose(x, y), oracle_product(x, y, compose_atom_pair))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_compose_of_named_projectors_matches_the_fraction_loop(n):
    # Kronecker products cancel to zero, Delta gives integer coefficients
    named = _named_surface(n)
    for x in named:
        for y in named:
            assert_same(compose(x, y), oracle_product(x, y, compose_atom_pair))


@settings(max_examples=40, deadline=None)
@given(st.data(), LEVELS)
def test_t_compose_matches_the_fraction_loop(data, n):
    x = data.draw(tensor_sums(n))
    y = data.draw(tensor_sums(n))
    assert_same(t_compose(x, y), oracle_product(x, y, compose_t_atom_pair))


@settings(max_examples=40, deadline=None)
@given(st.data(), LEVELS, st.booleans())
def test_group_ring_product_matches_the_fraction_loop(data, n, pairs):
    x = data.draw(group_ring_elements(n, pairs))
    y = data.draw(group_ring_elements(n, pairs))
    assert_same(x * y, oracle_product(x, y, group_product))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_group_ring_projector_products_match_the_fraction_loop(n):
    named = [epsilon_projector(n), *lambda_theta(n)]
    for x in named:
        for y in named:
            assert_same(x * y, oracle_product(x, y, group_product))


@settings(max_examples=40, deadline=None)
@given(st.data(), LEVELS)
def test_compose_open_matches_the_fraction_loop(data, n):
    x = restrict_to_open(data.draw(surface_sums(n)))
    y = restrict_to_open(data.draw(surface_sums(n)))
    assert_same_outcome(lambda: compose_open(x, y), lambda: oracle_product(x, y, _open_pair))


@settings(max_examples=30, deadline=None)
@given(st.data(), LEVELS, st.booleans(), st.booleans())
def test_open_tensor_products_match_the_fraction_loop(data, n, e1, e2):
    a, b, c, d = (restrict_to_open(data.draw(surface_sums(n, cusps=False))) for _ in range(4))
    x = tensor_open(a, b, e1)
    assert_same(x, oracle_product(a, b, _tensor_rule(e1), type(x)))
    y = tensor_open(c, d, e2)
    assert_same_outcome(lambda: compose_open_t(x, y), lambda: oracle_product(x, y, _open_t_pair))


@settings(max_examples=40, deadline=None)
@given(st.data(), LEVELS)
def test_expand_matches_the_fraction_loop(data, n):
    factors = st.one_of(surface_sums(n, cusps=False), st.sampled_from(_named_surface(n, cusps=False)))
    parts = data.draw(st.lists(
        st.tuples(coefficients(n), factors, factors, st.booleans()), min_size=1, max_size=4))
    # repeat some parts, negated or not, so that the merge both adds and cancels
    parts += [(data.draw(st.sampled_from([-c, c])), a, b, e)
              for c, a, b, e in parts if data.draw(st.booleans())]
    x = TensorExpr(n, parts)
    assert_same(x.expand(), oracle_expand(x))
