"""The integer kernel against the Fraction loop it replaced, and the canonical form.

A sum is held as (d, {atom: v}), each coefficient v / d, and every
product of two sums runs on their integer numerators, over the product of
their denominators.  The reference here is the loop that multiplied and
added `Fraction`s atom pair by atom pair:
`collect(bilinear(x.terms.items(), y.terms.items(), rule, level))`.
Operands are random sums at N = 3..5 with denominators from
{1, 2, 3, 4, 2N^2}, mixed with named projectors so that products cancel to
zero or to integer coefficients.  Besides equality, every result must be
in canonical form: d >= 1, every numerator a nonzero int, and no common
factor of d and the numerators.  `==` alone would pass a form with a
common factor left, since it compares the forms, not the values.
"""

import sys
from fractions import Fraction
from itertools import chain
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motive_calc.groups import (
    GroupRingElement,
    enumerate_g,
    epsilon_projector,
    lambda_theta,
)
from motive_calc.dsl import evaluate
from motive_calc.levels import cusp_count
from motive_calc.report import run_report
from motive_calc.sums import LinComb, bilinear, collect, linear_map
from motive_calc.surface import (
    DA_FIBER,
    GENERIC_FIBER,
    VERT,
    DivClass,
    SurfCorr,
    UnsupportedCompositionError,
    act_on_divisor,
    build_pi_bars,
    build_pi_cusp,
    build_pi_inf,
    compose,
    compose_atom_pair,
    delta,
    restrict_to_open,
    sec_key,
    theta_key,
    transpose,
)
from motive_calc.threefold import (
    FIBER3,
    TCorr,
    TensorExpr,
    ThreefoldDivClass,
    act_on_threefold_divisor,
    b_term_expr,
    compose_t_atom_pair,
    pair_projector_expr,
    parity_residual,
    restriction_residual,
    sigma_expr,
    t_atom,
    t_compose,
    t_delta_expr,
    theta_half,
    theta_int,
)

from flat_threefold import t_transpose
from support import (
    G2Elem,
    G2Sum,
    LinearCoeff,
    _open_pair,
    _open_t_pair,
    act_on_divisor_linear,
    compose_open,
    compose_open_t,
    enumerate_surf,
    from_fractions,
    g2_sum,
    group_product,
    group_symmetrizers,
    lifted,
    linear_class,
    oracle_g,
    tensor_open,
    tensor_rule,
)

LEVELS = st.integers(3, 5)


# -- the reference loop --------------------------------------------------------------

def oracle_product(x, y, rule, cls=None):
    """The Fraction-coefficient product: one normalized Fraction per atom pair."""
    terms = collect(bilinear(x.terms.items(), y.terms.items(), rule, x.level))
    return from_fractions(cls or type(x), x.level, terms)


def oracle_expand(x: TensorExpr) -> TCorr:
    """`TensorExpr.expand` on Fraction coefficients: merged parts, then each part's atoms."""
    pairs = [
        bilinear([(la, c * ca) for la, ca in a.terms.items()], b.terms.items(), tensor_rule(e), x.level)
        for (a, b, e), c in x.terms.items()
    ]
    return TCorr(x.level, collect(chain.from_iterable(pairs)))


def assert_canonical(x):
    """x is in the form (d, {atom: v}): d >= 1, each v a nonzero int, gcd(d, all v) = 1."""
    assert type(x.d) is int and x.d >= 1
    assert all(type(v) is int and v for v in x.nums.values())
    assert gcd(x.d, *x.nums.values()) == 1
    assert all(type(c) is Fraction for c in x.terms.values())


def assert_same(got, want):
    assert type(got) is type(want)
    assert got.level == want.level
    assert got.terms == want.terms
    assert got == want
    assert_canonical(got)


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
    named = [p.expand(TCorr) for p in (t_delta_expr(n), sigma_expr(n), b_term_expr(n, 1), b_term_expr(n, 2))]
    named += [pair_projector_expr(n, i, j).expand(TCorr) for i in (0, 2) for j in (0, 2)]
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
        g = st.sampled_from(oracle_g(n))
        elem = st.builds(lambda a, b, e: G2Elem(n, a, b, e), g, g, st.booleans())
        named = [g2_sum(s) for s in group_symmetrizers(n)]
    else:
        elem = st.sampled_from(enumerate_g(n))
        named = [epsilon_projector(n), *lambda_theta(n)]
    pieces = draw(st.lists(
        st.one_of(
            st.builds(lambda g, c: (G2Sum if pairs else GroupRingElement)(n, {g: c}), elem, coefficients(n)),
            st.builds(lambda p, c: p.scale(c), st.sampled_from(named), coefficients(n)),
        ),
        min_size=1,
        max_size=4,
    ))
    total = G2Sum(n) if pairs else GroupRingElement(n)
    for piece in pieces:
        total = total + piece
    return total


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
    assert_same(x, oracle_product(a, b, tensor_rule(e1), type(x)))
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
    assert_same(x.expand(TCorr), oracle_expand(x))


# -- the canonical form after every operation that makes a sum ---------------------

@st.composite
def div_classes(draw, n):
    """A random surface divisor class: section and component classes, and the fiber with a d_a part.

    Only the fiber carries d_a, as the class d_a*[fiber]: V and tGraphs
    send a section to it, and d_a^2 is outside the calculus.
    """
    index = st.integers(0, n - 1)
    keys = st.one_of(st.builds(sec_key, index, index), st.builds(theta_key, st.just(0), index))
    terms = draw(st.dictionaries(keys, coefficients(n), max_size=4))
    if draw(st.booleans()):
        terms[GENERIC_FIBER], terms[DA_FIBER] = draw(coefficients(n)), draw(coefficients(n))
    return DivClass(n, terms)


@st.composite
def threefold_div_classes(draw, n):
    index = st.integers(0, n - 1)
    keys = st.one_of(st.just(FIBER3), st.builds(theta_int, st.just(0), index, index),
                     st.builds(theta_half, st.just(0), index, index))
    return ThreefoldDivClass(n, draw(st.dictionaries(keys, coefficients(n), max_size=4)))


def _fraction_sum(x, y, sign):
    """x + sign * y on the `terms` views, by the Fraction loop."""
    return collect(((atom, sign * c) for atom, c in y.terms.items()), dict(x.terms))


@settings(max_examples=40, deadline=None)
@given(st.data(), LEVELS)
def test_every_operation_that_makes_a_sum_leaves_it_in_canonical_form(data, n):
    x, y = data.draw(surface_sums(n)), data.draw(surface_sums(n))
    a, b = data.draw(surface_sums(n, cusps=False)), data.draw(surface_sums(n, cusps=False))
    g, h = data.draw(group_ring_elements(n)), data.draw(group_ring_elements(n))
    s, t = data.draw(tensor_sums(n)), data.draw(tensor_sums(n))
    z, w = data.draw(div_classes(n)), data.draw(threefold_div_classes(n))
    k = data.draw(coefficients(n))
    e = TensorExpr.pure(a, b) + TensorExpr.pure(b, a, swap=True).scale(k)
    f = TensorExpr(n, [(k, a, a, False), (1, b, a, True), (Fraction(1, 2), a, b, False)])
    made = [
        SurfCorr(n, dict(x.terms)), x + y, x - y, x - x, x.scale(k), x.scale(0), z + z.scale(k), z - z,
        compose(x, y), t_compose(s, t), transpose(x), restrict_to_open(x), g * h, g.transpose(),
        e.expand(TCorr), act_on_divisor(x, z), act_on_threefold_divisor(e, w), act_on_threefold_divisor(lifted(s), w),
        restriction_residual(a, b), parity_residual([(a, b), (b, a)], -1),
        e, f, e + f, e - f, e - e, f.scale(k), f.scale(0), e.compose(f), f.transpose(), lifted(s),
    ]
    for made_sum in made:
        assert_canonical(made_sum)
    assert SurfCorr(n, dict(x.terms)) == x
    assert (x + y).terms == _fraction_sum(x, y, 1)
    assert (x - y).terms == _fraction_sum(x, y, -1)
    assert (z - z.scale(k)).terms == _fraction_sum(z, z.scale(k), -1)
    assert x.scale(k).terms == {atom: k * c for atom, c in x.terms.items()}
    assert (e - f).terms == _fraction_sum(e, f, -1)
    assert f.scale(k).terms == {atom: k * c for atom, c in f.terms.items()}


@settings(max_examples=60, deadline=None)
@given(st.data(), LEVELS)
def test_the_divisor_action_matches_the_linear_coeff_oracle(data, n):
    # d_a*[fiber] is a class of its own; the oracle holds d_a as a coefficient of [fiber]
    x = data.draw(surface_sums(n))
    z = data.draw(div_classes(n))
    assert linear_class(act_on_divisor(x, z)) == act_on_divisor_linear(x, linear_class(z))


@st.composite
def tensor_exprs(draw, n):
    """A random `TensorExpr` whose parts share a few small factors, so that equal pure tensors merge."""
    factor = st.builds(lambda terms: SurfCorr(n, terms),
                       st.dictionaries(surface_atoms(n, cusps=False), coefficients(n), min_size=1, max_size=3))
    pool = draw(st.lists(factor, min_size=1, max_size=3)) + [delta(n), build_pi_bars(n)["pi0"]]
    pick = st.sampled_from(pool)
    return TensorExpr(n, draw(st.lists(st.tuples(coefficients(n), pick, pick, st.booleans()), max_size=4)))


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(3, 4))
def test_tensor_expression_operations_expand_to_the_flat_results(data, n):
    x, y = data.draw(tensor_exprs(n)), data.draw(tensor_exprs(n))
    k = data.draw(coefficients(n))
    fx, fy = x.expand(TCorr), y.expand(TCorr)
    assert fx == oracle_expand(x)
    assert x.compose(y).expand(TCorr) == t_compose(fx, fy)
    assert x.transpose().expand(TCorr) == t_transpose(fx)
    assert (x + y).expand(TCorr) == fx + fy
    assert (x - y).expand(TCorr) == fx - fy
    assert x.scale(k).expand(TCorr) == fx.scale(k)
    assert (x - x).nums == {} and x.scale(2) == x + x and x + y == y + x


def test_a_cancellation_that_leaves_a_common_factor_is_divided_out():
    n = 3
    half = Fraction(1, 2)
    a, b = ("G", enumerate_surf(n)[1]), ("G", enumerate_surf(n)[2])
    x = SurfCorr(n, {a: half, b: half})
    assert (x.d, x.nums) == (2, {a: 1, b: 1})
    # a and b mapped to one atom: 1/2 V + 1/2 V = V
    merged = linear_map(x, lambda atom: VERT)
    assert (merged.d, merged.nums) == (1, {VERT: 1})
    summed = x + SurfCorr(n, {a: half, b: -half})
    assert (summed.d, summed.nums) == (1, {a: 1})
    assert summed == SurfCorr.of(n, a)
    # the translation average theta is idempotent: 2N^2 numerators over N^4, divided by N^2
    theta = lambda_theta(n)[1]
    assert (theta * theta).d == theta.d == n * n
    assert (x - x).d == 1 and not (x - x).nums


@pytest.mark.parametrize("make", [
    lambda: SurfCorr(3, {VERT: 0.1}),
    lambda: DivClass(3, {DA_FIBER: 0.5}),
    lambda: SurfCorr.of(3, VERT).scale(0.5),
    lambda: t_delta_expr(3).scale(0.5),
    lambda: LinearCoeff.of(0.1),
    lambda: TensorExpr(3, [(0.5, delta(3), delta(3), False)]),
    lambda: TensorExpr(3, [(0.0, delta(3), delta(3), False)]),
], ids=["constructor", "divisor constructor", "LinComb.scale", "TensorExpr.scale", "LinearCoeff.of",
        "TensorExpr constructor", "TensorExpr constructor, zero"])
def test_a_float_coefficient_is_rejected(make):
    with pytest.raises(TypeError, match="float"):
        make()


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_the_program_never_reads_the_terms_view(monkeypatch):
    # `terms` and `TensorExpr.parts` build Fractions at each read; they are there for tests, printing
    # and the benchmark's tracer
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    reads = []
    for cls, name in ((LinComb, "terms"), (TensorExpr, "parts")):
        view = getattr(cls, name).fget
        monkeypatch.setattr(cls, name, property(lambda x, view=view: reads.append(sys._getframe(1).f_code) or view(x)))
    for n in range(3, 7):
        run_report(n, include_threefold=True)
    for query in workloads.plain_pool():
        evaluate(query.source, query.level, query.mode).render()
    assert reads == []
    assert SurfCorr.of(3, VERT).terms == {VERT: 1} and len(reads) == 1
    assert len(t_delta_expr(3).parts) == 1 and len(reads) == 2
