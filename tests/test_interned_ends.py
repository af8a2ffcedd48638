"""One object per fiberwise map, against the form the program once had.

A `SurfEnd` is the listed object of its level: composed and inverted by
index arithmetic on the codes of the level's list, equal only to itself
and hashed by identity.  `support.TupleEnd` is the old form, a
`NamedTuple` with the law `tuple_compose`; on every pair of the 3N^2 maps
of N = 3..6 the two give the same composite, inverse and label, and the
sums of elements of G print in the order the tuples sorted in.  A copy or
a pickle of a map is the listed object, so no second equal map is ever
made, and a copy or a pickle of a sum holds its level, d and nums only,
not what `compose` derived from them.  An identity hash differs from process to process, so the report
bytes are compared across two processes with different hash seeds.
"""

import copy
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from motive_calc.endos import SurfEnd, level_ends, surf_compose, surf_end
from motive_calc.exact import fmt_rational
from motive_calc.groups import GroupRingElement, PairSum, enumerate_g, epsilon_projector, lambda_theta
from motive_calc import surface
from motive_calc.surface import SurfCorr, build_pi_bars, build_pi_cusp, compose
from motive_calc.threefold import TensorExpr

from support import TupleEnd, tuple_compose, tuple_ends


@pytest.mark.parametrize("n", range(3, 7))
def test_every_map_and_every_composite_is_the_tuple_oracles(n):
    ends, olds = level_ends(n), tuple_ends(n)
    assert [TupleEnd.of(f) for f in ends] == olds
    assert [f.code for f in ends] == list(range(3 * n * n))
    assert [SurfEnd(*old) for old in olds] == ends
    for f, old in zip(ends, olds):
        assert f.label() == old.label() and f.element_label() == old.element_label()
        if f.collapse:
            with pytest.raises(ValueError):
                f.inv()
        else:
            assert TupleEnd.of(f.inv()) == old.inv()
        for h, old_h in zip(ends, olds):
            got = surf_compose(f, h)
            assert type(got) is SurfEnd and TupleEnd.of(got) == tuple_compose(old, old_h)


def _render(terms: dict, label) -> str:
    """The terms {key: (coefficient, atom)} in the order of their keys, as `LinComb.render` prints them."""
    return " + ".join(f"{fmt_rational(c)}*{label(atom)}" for _, (c, atom) in sorted(terms.items()))


@pytest.mark.parametrize("n", range(3, 7))
def test_sums_of_elements_of_g_print_in_the_order_of_the_tuples(n):
    rng = random.Random(n)
    elems = enumerate_g(n)
    shuffled = rng.sample(elems, len(elems))  # the sum's dict order is no print order
    x = GroupRingElement(n, {g: Fraction(i + 1, 7) for i, g in enumerate(shuffled)})
    want = {TupleEnd.of(g): (Fraction(i + 1, 7), g) for i, g in enumerate(shuffled)}
    assert x.render() == _render(want, SurfEnd.element_label)
    pairs = [(g, h, e) for g in rng.sample(elems, 5) for h in rng.sample(elems, 5) for e in (True, False)]
    y = PairSum(n, {atom: Fraction(i + 1) for i, atom in enumerate(pairs)})
    want = {(TupleEnd.of(g), TupleEnd.of(h), e): (Fraction(i + 1), (g, h, e)) for i, (g, h, e) in enumerate(pairs)}
    assert y.render() == _render(want, PairSum.label)


def test_a_copy_or_a_pickle_of_a_map_is_the_map():
    for f in level_ends(4):
        assert copy.copy(f) is f and copy.deepcopy(f) is f
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(f, protocol)) is f
        assert surf_end(4, f.b1 + 4, f.b2 - 4, f.s, f.collapse) is f
    x = SurfCorr(4, build_pi_bars(4)["pi1"].terms)  # a new sum: nothing derived by a product is kept on it
    for clone in (copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert clone == x and all(a[1] is b[1] for a, b in zip(clone.nums, x.nums))


def test_a_copy_or_a_pickle_of_a_composed_sum_holds_its_level_d_and_nums_only(monkeypatch):
    # compose keeps a record of what it derives on each operand; a copy or a pickle carries none of it
    bar = build_pi_bars(6)["pi1"]
    x, pc = SurfCorr(6, bar.terms), build_pi_cusp(6, 0)
    size = len(pickle.dumps(x))
    for _ in range(2):
        compose(x, pc)
    assert x._derived is not None
    assert len(pickle.dumps(x)) == len(pickle.dumps(bar)) == size
    rule = surface.compose_atom_pair
    monkeypatch.setattr(surface, "compose_atom_pair", lambda a, b, level: rule(a, b, level))
    compose(x, pc)  # the record now keys maps by a table of a local function, which cannot be pickled
    for clone in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert clone == x and clone.nums is not x.nums and getattr(clone, "_derived", None) is None
    assert len(pickle.dumps(x)) == size


def test_maps_are_equal_only_to_themselves():
    f = surf_end(3, 1, 2, -1)
    assert f == f and f != tuple(f) and tuple(f) == (3, 1, 2, -1, False)
    assert hash(f) == object.__hash__(f)
    with pytest.raises(TypeError):
        f < f  # noqa: B015 - a map has no order
    with pytest.raises(AttributeError):
        f.b1 = 0
    with pytest.raises(AttributeError):
        del f.s
    assert tuple(f) == (3, 1, 2, -1, False)


def test_group_ring_factors_are_taken_and_a_surface_factor_with_a_cusp_product_is_not():
    # the cusp product test reads a surface factor's atoms only; an element of G is no atom (kind, ...)
    eps = epsilon_projector(3)
    lam, theta = lambda_theta(3)
    t = TensorExpr(3, [(1, eps, lam, False), (Fraction(1, 2), theta, eps, True)])
    assert TensorExpr.pure(eps, lam) + TensorExpr.pure(theta, eps, True).scale(Fraction(1, 2)) == t
    with pytest.raises(ValueError, match="cusp products are not tensor factors"):
        TensorExpr.pure(SurfCorr(3, {("C", 0, 1, 1): 1}), build_pi_bars(3)["pi1"])


def test_report_bytes_do_not_depend_on_the_hash_seed():
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-m", "motive_calc.cli", "report", "--level", "4"], env=env,
                             capture_output=True, timeout=120)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout)
    assert outs[0] == outs[1] and len(outs[0]) > 1000
