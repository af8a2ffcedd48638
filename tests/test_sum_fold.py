"""A DSL sum folded once over one denominator, against the running sum it replaced.

`dsl.eval_expr` gives each part of a `Sum` node an integer multiplier
(its sign, times the coefficient of a `Scale` part) and collects every
part's numerators into one dict over the lcm of the parts' denominators.
The oracle, `dsl_oracle.eval_by_running_sums`, adds the parts one at a
time, `acc + value`, after `scale(-1)` or `scale(q)`.  Random trees at
N = 3..6 in both modes, with nested sums, negative and fractional
scalars, parts scaled by 0, transposes, products and T(a,b) parts, must
evaluate to equal sums that print alike.

`TensorExpr.expand` folds the same way: each part's atom products go into
one dict over the lcm of the parts' denominators.  Its oracle,
`support.expand_by_running_sum`, adds the scaled product of each part to
the sum of the parts before it.  Random factored sums at N = 3..5, of
surface or of Q[G] factors, with swapped parts and parts whose factors
both hold V, must expand to equal sums that print alike.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motive_calc.dsl import Compose, NamedAtom, Scale, Sum, Transpose, eval_expr, evaluate, parse_expr
from motive_calc.endos import mu0
from motive_calc.groups import GroupRingElement, PairSum, enumerate_g
from motive_calc.levels import cusp_count
from motive_calc.surface import VERT, SurfCorr, build_pi_bars
from motive_calc.tensor import TensorExpr
from motive_calc.threefold import TCorr

from dsl_oracle import eval_by_running_sums
from support import enumerate_surf, expand_by_running_sum

SCALARS = [0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4), Fraction(-7, 6)]
SIGNS = st.sampled_from([1, -1])


def _surface_leaves(n: int, factors_only: bool):
    """Named surface atoms at level n; a tensor factor holds no cusp product, so piInf, piC and CP are left out."""
    names = ["Delta", "V", "mu0", "pi0", "pi1", "pi2", "piF"]
    g = st.builds(lambda b1, b2, s: NamedAtom("G", (b1, b2, s)), st.integers(-n, 2 * n), st.integers(0, n - 1),
                  st.sampled_from([1, -1]))
    leaves = [st.sampled_from([NamedAtom(name) for name in names]), g]
    if not factors_only:
        c = st.integers(0, cusp_count(n) - 1)
        leaves += [st.just(NamedAtom("piInf")), c.map(lambda c: NamedAtom("piC", (c,))),
                   st.builds(lambda c, m, k: NamedAtom("CP", (c, m, k)), c, st.integers(0, n), st.integers(-1, n))]
    return st.one_of(leaves)


def _nodes(children, sums_only: bool = False):
    """Sums of one to four signed parts, each possibly scaled; and, unless sums_only, products and transposes."""
    part = st.one_of(children, st.builds(Scale, st.sampled_from(SCALARS), children))
    sums = st.builds(lambda parts: Sum(tuple(parts)), st.lists(st.tuples(SIGNS, part), min_size=1, max_size=4))
    if sums_only:
        return st.one_of(sums, st.builds(Transpose, children))
    return st.one_of(sums, sums, st.builds(Transpose, children), st.builds(Compose, children, children))


def _surface_trees(n: int, factors_only: bool = False, max_leaves: int = 8):
    return st.recursive(_surface_leaves(n, factors_only), _nodes, max_leaves=max_leaves)


@st.composite
def surface_queries(draw):
    n = draw(st.integers(3, 6))
    return n, draw(_surface_trees(n))


@st.composite
def threefold_queries(draw):
    n = draw(st.integers(3, 6))
    factor = _surface_trees(n, factors_only=True, max_leaves=4)
    leaves = st.one_of(
        st.sampled_from([NamedAtom(name) for name in ("Delta", "sigma", "b1", "b2", "alt11", "sym11")]),
        st.builds(lambda i, j: NamedAtom("ptilde", (i, j)), st.integers(0, 2), st.integers(0, 2)),
        st.builds(lambda a, b: NamedAtom("T", (a, b)), factor, factor),
    )
    # products of threefold sums at N = 6 are slow: a tree holds at most one, at its root
    tree = st.recursive(leaves, lambda children: _nodes(children, sums_only=True), max_leaves=6)
    return n, draw(st.one_of(tree, tree, st.builds(Compose, tree, tree)))


def _assert_the_fold_is_the_running_sum(n, node, mode):
    got = eval_expr(node, n, mode)
    want = eval_by_running_sums(node, n, mode)
    assert got == want
    assert got.render() == want.render()
    assert all(got.nums.values())


@settings(max_examples=120, deadline=None)
@given(surface_queries())
def test_a_surface_sum_folds_to_the_running_sum(query):
    n, node = query
    _assert_the_fold_is_the_running_sum(n, node, "surface")


@settings(max_examples=60, deadline=None)
@given(threefold_queries())
def test_a_threefold_sum_folds_to_the_running_sum(query):
    n, node = query
    _assert_the_fold_is_the_running_sum(n, node, "threefold")


@pytest.mark.parametrize("mode, source", [
    ("surface", "pi0 - 1/2 * (pi1 - 2/3 * t(pi1) - 0 * V) + 3/4 * G(1,2,-1) . pi2 - pi0"),
    ("surface", "-(Delta - piF) - (-piInf) + 0 * CP(0,1,2) - 5/6 * (piC(1) + t(piC(1)))"),
    ("threefold", "T(pi1, 1/2 * pi2 - V) - 2/3 * (sigma - t(b1) + 0 * alt11) + ptilde(1,2) . (b2 - T(V, Delta))"),
])
def test_written_sums_fold_to_the_running_sum(mode, source):
    _assert_the_fold_is_the_running_sum(4, parse_expr(source, mode), mode)


def test_a_part_scaled_by_0_adds_nothing():
    got = evaluate("0 * G(1,2,1) + V", 3)
    assert got == SurfCorr.of(3, VERT)
    assert got.nums == {VERT: 1} and got.d == 1
    # nested, and a whole sum scaled by 0
    assert evaluate("V + (0 * pi1 - 0 * t(pi1))", 5) == SurfCorr.of(5, VERT)
    assert evaluate("0 * (V + pi1) - 0 * Delta", 4) == SurfCorr.zero(4)
    assert evaluate("pi1 - pi1", 6).nums == {}


def test_a_float_scalar_in_a_hand_built_sum_is_refused():
    with pytest.raises(TypeError, match="float coefficient"):
        eval_expr(Sum(((1, Scale(1.5, NamedAtom("V"))),)), 3)
    with pytest.raises(TypeError, match="float coefficient"):
        eval_expr(Sum(((-1, NamedAtom("Delta")), (1, Scale(0.0, NamedAtom("V"))))), 3)


# -- TensorExpr.expand ------------------------------------------------------------

@st.composite
def factored_sums(draw, n: int, group_ring: bool):
    """A `TensorExpr` of up to five parts on a few shared factors, swapped or not.

    Surface factors hold graphs, transposed collapse graphs and V, and
    V + Graph(id) is always among them, so that parts with V in both factors,
    whose V (x) V the expansion drops, come up often; Q[G] factors hold
    elements of G.
    """
    coeff = st.sampled_from(SCALARS[1:] + [Fraction(1, 2 * n * n), Fraction(-3, n)])
    if group_ring:
        atom = st.sampled_from(enumerate_g(n))
        make, fixed = GroupRingElement, [GroupRingElement(n, {g: 1 for g in enumerate_g(n)[:n]})]
    else:
        ends = enumerate_surf(n)
        atom = st.one_of(st.sampled_from([("G", e) for e in ends]),
                         st.sampled_from([("T", e) for e in ends if e.collapse]), st.just(VERT))
        make, fixed = SurfCorr, [SurfCorr(n, {VERT: 1, ("G", ends[0]): 2}), build_pi_bars(n)["pi0"]]
    factor = st.builds(lambda terms: make(n, terms), st.dictionaries(atom, coeff, min_size=1, max_size=4))
    pick = st.sampled_from(draw(st.lists(factor, min_size=1, max_size=3)) + fixed)
    return TensorExpr(n, draw(st.lists(st.tuples(coeff, pick, pick, st.booleans()), max_size=5)))


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(3, 5), st.booleans())
def test_an_expansion_folds_to_the_running_sum(data, n, group_ring):
    x = data.draw(factored_sums(n, group_ring))
    cls = PairSum if group_ring else TCorr
    got, want = x.expand(cls), expand_by_running_sum(x, cls)
    assert type(got) is type(want)
    assert got == want
    assert got.render() == want.render()
    assert all(got.nums.values())


def test_an_expansion_drops_v_tensor_v_and_cancels_across_parts():
    n = 4
    v, pi0 = SurfCorr.of(n, VERT), build_pi_bars(n)["pi0"]
    # pi0 = tGraph(mu0) - V/2, so pi0 (x) V less tGraph(mu0) (x) V is -V/2 (x) V, which is zero
    x = TensorExpr(n, [(3, v, v, True), (1, pi0, v, False), (-1, SurfCorr.of(n, ("T", mu0(n))), v, False)])
    assert len(x.nums) == 3
    assert x.expand(TCorr).nums == {} and x.expand(TCorr).d == 1
    y = TensorExpr(n, [(1, pi0, v, False), (Fraction(-2, 3), pi0, pi0, True)])
    assert y.expand(TCorr) == expand_by_running_sum(y)
