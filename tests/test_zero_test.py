"""`TensorExpr.is_zero` against the expand-and-compare oracle.

The zero test decides whether a factored sum expands to zero without
expanding it.  Random sums are almost never zero, so most examples here
are built zero: a random sum minus a rewriting of it that has the same
expansion (a factor split into two, two parts combined into one, a
coefficient moved into a factor, a V part split off, V (x) V parts
added), so that the parts cancel only after elimination.  Some of them
are then perturbed by one more part: a new one, or one with its swap
flipped or its factors exchanged.  `Certificate.check` decides an entry
whose two sides differ in factored form by this test.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motive_calc.endos import mu0, surf_end, surf_identity
from motive_calc.sums import Certificate
from motive_calc.surface import VERT, SurfCorr, build_pi_bars, cusp_prod, delta
from motive_calc.threefold import TCorr, TensorExpr, pair_projector_expr, sigma_expr, split_sym_alt_exprs, t_delta_expr

from flat_threefold import expands_to_zero

LEVELS = (3, 4, 5)


def _atoms(n):
    m0, ident = mu0(n), surf_identity(n)
    return [
        ("G", ident),
        ("G", surf_end(n, 1, 0, -1)),
        ("G", surf_end(n, 0, 1, 1)),
        ("G", m0),
        ("G", surf_end(n, 1, 2, 1, True)),
        ("T", m0),
        VERT,
    ]


def _pool(n):
    """Factors: single atoms (V among them), small mixed sums with V, and the named projectors."""
    atoms = _atoms(n)
    pool = [SurfCorr.of(n, a) for a in atoms]
    pool += [
        SurfCorr(n, {atoms[0]: 1, VERT: Fraction(-1, 2)}),
        SurfCorr(n, {atoms[1]: 2, atoms[5]: -1}),
        SurfCorr(n, {atoms[2]: Fraction(1, 3), atoms[3]: Fraction(-2, 3), VERT: 3}),
        # a + 2b, a + 2c and b - c: dependent, with a content of 2 after one elimination step
        SurfCorr(n, {atoms[0]: 1, atoms[1]: 2}),
        SurfCorr(n, {atoms[0]: 1, atoms[2]: 2, VERT: 1}),
        SurfCorr(n, {atoms[1]: 1, atoms[2]: -1}),
        delta(n),
    ]
    pool += list(build_pi_bars(n).values())
    return pool


POOLS = {n: _pool(n) for n in LEVELS}

_coeffs = st.sampled_from([Fraction(k, 2) for k in (-4, -2, -1, 1, 2, 6)] + [Fraction(1, 3)])
_part = st.tuples(_coeffs, st.integers(0, 99), st.integers(0, 99), st.booleans())


def _split(factor: SurfCorr, mask: list[bool]) -> tuple[SurfCorr, SurfCorr]:
    """factor as the sum of two new factors, its atoms dealt out by mask."""
    atoms = sorted(factor.terms, key=factor.sort_key)
    first = {a: factor.terms[a] for a, keep in zip(atoms, mask) if keep}
    second = {a: factor.terms[a] for a, keep in zip(atoms, mask) if not keep}
    return SurfCorr(factor.level, first), SurfCorr(factor.level, second)


@st.composite
def _rewritten(draw, parts):
    """Parts whose expansion equals that of parts, rewritten by bilinearity and the V (x) V quotient."""
    out = []
    for c, a, b, e in parts:
        how = draw(st.sampled_from(["same", "split left", "split right", "scale", "split V", "repeat"]))
        if how == "split left" and len(a.terms) > 1:
            a1, a2 = _split(a, draw(st.lists(st.booleans(), min_size=len(a.terms), max_size=len(a.terms))))
            out += [(c, a1, b, e), (c, a2, b, e)]
        elif how == "split right" and len(b.terms) > 1:
            b1, b2 = _split(b, draw(st.lists(st.booleans(), min_size=len(b.terms), max_size=len(b.terms))))
            out += [(c, a, b1, e), (c, a, b2, e)]
        elif how == "scale":
            k = draw(st.sampled_from([Fraction(2), Fraction(-1, 3), Fraction(5, 2)]))
            out.append((c * k, a.scale(1 / k), b, e))
        elif how == "split V" and VERT in a.terms and len(a.terms) > 1:
            v = a.terms[VERT]
            out += [(c, a - SurfCorr.of(a.level, VERT, v), b, e), (c * v, SurfCorr.of(a.level, VERT), b, e)]
        elif how == "repeat":
            out += [(c / 2, a, b, e), (c / 2, a, b, e)]
        else:
            out.append((c, a, b, e))
    if len(out) > 1 and draw(st.booleans()):
        # c1 A1 (x) B + c2 A2 (x) B = (c1 A1 + c2 A2) (x) B: a new left factor, in the span of the others
        i, j = draw(st.lists(st.integers(0, len(out) - 1), min_size=2, max_size=2, unique=True))
        (c1, a1, b1, e1), (c2, a2, b2, e2) = out[i], out[j]
        if b1 is b2 and e1 == e2:
            out = [p for k, p in enumerate(out) if k not in (i, j)] + [(Fraction(1), a1.scale(c1) + a2.scale(c2), b1, e1)]
    if draw(st.booleans()):
        # V (x) V expands to nothing
        v = SurfCorr.of(parts[0][1].level, VERT)
        out.append((draw(_coeffs), v, v, draw(st.booleans())))
    return out


@st.composite
def _perturbation(draw, parts, pool):
    """One more part: a drawn one, or a part of parts with its swap flipped or its factors exchanged."""
    how = draw(st.sampled_from(["new", "flip swap", "exchange factors"]))
    if how == "new":
        c, i, j, e = draw(_part)
        return (c, pool[i % len(pool)], pool[j % len(pool)], e)
    c, a, b, e = draw(st.sampled_from(parts))
    return (c, a, b, not e) if how == "flip swap" else (c, b, a, e)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(LEVELS), st.lists(_part, min_size=1, max_size=6), st.data())
def test_zero_test_matches_the_oracle(n, raw, data):
    pool = POOLS[n]
    parts = [(c, pool[i % len(pool)], pool[j % len(pool)], e) for c, i, j, e in raw]
    kind = data.draw(st.sampled_from(["as drawn", "zero", "perturbed"]))
    if kind != "as drawn":
        parts += [(-c, a, b, e) for c, a, b, e in data.draw(_rewritten(parts))]
    if kind == "perturbed":
        parts.append(data.draw(_perturbation(parts, pool)))
    order = data.draw(st.permutations(range(len(parts))))
    x = TensorExpr(n, [parts[i] for i in order])
    got = x.is_zero()
    assert got == expands_to_zero(x)
    if kind == "zero":
        assert got


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(LEVELS), st.lists(_part, max_size=4), _part, st.integers(0, 1), st.data())
def test_a_cusp_product_in_a_factor_raises_as_the_oracle_does(n, raw, bad, slot, data):
    # the sum is refused where it is built, beside any other parts and whatever the other factor,
    # zero included; the flat oracle's constructor refuses each tensor atom of the cusp product
    pool = POOLS[n]
    parts = [(c, pool[i % len(pool)], pool[j % len(pool)], e) for c, i, j, e in raw]
    c, i, j, e = bad
    cusp = SurfCorr(n, {cusp_prod(0, 1, 1): 1, **pool[i % len(pool)].terms})
    other = data.draw(st.sampled_from(pool + [SurfCorr(n)]))
    pair = (cusp, other) if slot == 0 else (other, cusp)
    message = "cusp products are not tensor factors"
    with pytest.raises(ValueError, match=message):
        TensorExpr(n, parts + [(c, *pair, e)])
    with pytest.raises(ValueError, match=message):
        TensorExpr.pure(*pair, e)
    for atom in other.nums:
        with pytest.raises(ValueError, match=message):
            TCorr.of(n, (cusp_prod(0, 1, 1), atom, e) if slot == 0 else (atom, cusp_prod(0, 1, 1), e))


def test_parts_that_cancel_only_after_elimination(n=4):
    a, b, c = (SurfCorr.of(n, atom) for atom in _atoms(n)[:3])
    pi = build_pi_bars(n)
    # a (x) pi1 + b (x) pi1 - (a + b) (x) pi1 + c (x) (pi0 - pi2) - c (x) pi0 + c (x) pi2
    x = TensorExpr(n, [
        (Fraction(1), a, pi["pi1"], False),
        (Fraction(1), b, pi["pi1"], False),
        (Fraction(-1), a + b, pi["pi1"], False),
        (Fraction(1), c, pi["pi0"] - pi["pi2"], True),
        (Fraction(-1), c, pi["pi0"], True),
        (Fraction(1), c, pi["pi2"], True),
    ])
    assert len(x.terms) == 6
    assert x.is_zero() and expands_to_zero(x)
    # the same left factors with one right factor off
    y = x + TensorExpr(n, [(Fraction(1, 2), a + b, pi["pi1"], False)])
    assert not y.is_zero() and not expands_to_zero(y)


def test_elimination_keeps_the_weight_of_a_reduced_row(n=3):
    a, b, c = (SurfCorr.of(n, atom) for atom in _atoms(n)[:3])
    pi = build_pi_bars(n)
    # (a + 2b) - (a + 2c) = 2 (b - c): the reduced row has content 2
    f1, f2, f3 = a + b.scale(2), a + c.scale(2), b - c
    x = TensorExpr(n, [
        (Fraction(1), f1, pi["pi1"], False),
        (Fraction(-1), f2, pi["pi1"], False),
        (Fraction(-2), f3, pi["pi1"], False),
    ])
    assert x.is_zero() and expands_to_zero(x)
    # the same rows with the content left out of the last weight
    y = x + TensorExpr(n, [(Fraction(1), f3, pi["pi1"], False)])
    assert not y.is_zero() and not expands_to_zero(y)


def test_swaps_and_v_pieces_are_independent(n=3):
    v = SurfCorr.of(n, VERT)
    g = delta(n)
    # V (x) V vanishes, whatever its swap and coefficient
    assert TensorExpr(n, [(Fraction(5), v, v, False), (Fraction(-2), v, v, True)]).is_zero()
    # (g + V) (x) (g + V) = g (x) g + V (x) g + g (x) V
    gv = g + v
    x = TensorExpr(n, [(Fraction(1), gv, gv, False), (Fraction(-1), g, g, False)])
    assert not x.is_zero()
    x = x - TensorExpr(n, [(Fraction(1), v, g, False), (Fraction(1), g, v, False)])
    assert x.is_zero() and expands_to_zero(x)
    # the same atoms under the other swap do not cancel them
    y = TensorExpr(n, [(Fraction(1), g, v, False), (Fraction(-1), g, v, True)])
    assert not y.is_zero() and not expands_to_zero(y)
    for swap in (False, True):
        # nor do V in the other slot, or the same pure tensor under the other swap
        y = TensorExpr(n, [(Fraction(1), g, v, swap), (Fraction(-1), v, g, swap)])
        assert not y.is_zero() and not expands_to_zero(y)
        pi1 = build_pi_bars(n)["pi1"]
        y = TensorExpr(n, [(Fraction(1), pi1, g, swap), (Fraction(-1), pi1, g, not swap)])
        assert not y.is_zero() and not expands_to_zero(y)


def test_a_sum_nonzero_only_in_v_tensor_v_reads_zero(n=3):
    v = SurfCorr.of(n, VERT)
    g, h = (SurfCorr.of(n, atom) for atom in _atoms(n)[:2])
    # (g + 2V) (x) (h + 3V) - g (x) h - 2 V (x) h - 3 g (x) V = 6 V (x) V, which expands to nothing
    x = TensorExpr(n, [
        (Fraction(1), g + v.scale(2), h + v.scale(3), False),
        (Fraction(-1), g, h, False),
        (Fraction(-2), v, h, False),
        (Fraction(-3), g, v, False),
    ])
    assert x.is_zero() and expands_to_zero(x)
    # likewise under the swap, with the V (x) V coefficient cancelled in part by a pure V (x) V part
    y = TensorExpr(n, [(c, a, b, True) for c, a, b, _ in x.parts] + [(Fraction(-4), v, v, True)])
    assert y.is_zero() and expands_to_zero(y)
    # with one of the other parts left out it is not zero
    z = TensorExpr(n, x.parts[:3])
    assert not z.is_zero() and not expands_to_zero(z)


def test_a_v_part_cancels_only_against_the_v_part_of_a_mixed_factor(n=3):
    v = SurfCorr.of(n, VERT)
    g, h, k = (SurfCorr.of(n, atom) for atom in _atoms(n)[:3])
    # (g + V) (x) h = g (x) h + V (x) h
    x = TensorExpr(n, [(Fraction(1), g + v, h, False), (Fraction(-1), g, h, False), (Fraction(-1), v, h, False)])
    assert x.is_zero() and expands_to_zero(x)
    # V (x) h does not cancel against the V part of a factor paired with another right factor,
    y = TensorExpr(n, [(Fraction(1), g + v, k, False), (Fraction(-1), g, h, False), (Fraction(-1), v, h, False)])
    assert not y.is_zero() and not expands_to_zero(y)
    # nor against a mixed factor without its V-free part taken away
    y = TensorExpr(n, [(Fraction(1), g + v, h, False), (Fraction(-1), v, h, False)])
    assert not y.is_zero() and not expands_to_zero(y)


def test_a_cusp_factor_is_refused_even_beside_a_zero_factor(n=3):
    cusp = SurfCorr(n, {cusp_prod(0, 1, 1): 1, VERT: 2})
    for parts in ([(Fraction(1), cusp, SurfCorr(n), False)], [(Fraction(2), SurfCorr(n), cusp, True)],
                  [(Fraction(1), cusp, SurfCorr.of(n, VERT), False)]):
        with pytest.raises(ValueError, match="cusp products are not tensor factors"):
            TensorExpr(n, parts)
    # a cusp-free factor beside a zero one is taken, and the part expands to nothing on both routes
    free = SurfCorr(n, {VERT: 2, ("G", surf_identity(n)): 1})
    for parts in ([(Fraction(1), free, SurfCorr(n), False)], [(Fraction(2), SurfCorr(n), free, True)]):
        x = TensorExpr(n, parts)
        assert x.is_zero() and expands_to_zero(x)
        y = x + TensorExpr.pure(delta(n), delta(n))
        assert not y.is_zero() and not expands_to_zero(y)


@pytest.mark.parametrize("n", LEVELS)
def test_named_projector_laws_vanish_on_both_routes(n):
    memo: dict = {}
    alt, sym = split_sym_alt_exprs(n, memo)
    p11 = pair_projector_expr(n, 1, 1)
    laws = [
        alt.compose(alt, memo) - alt,
        alt.compose(sym, memo),
        alt + sym - p11,
        sigma_expr(n).compose(p11, memo).compose(sigma_expr(n), memo) - p11,
        t_delta_expr(n).compose(p11, memo) - p11,
    ]
    for law in laws:
        assert law.is_zero() and expands_to_zero(law)
    off = alt.compose(alt, memo) - sym
    assert not off.is_zero() and not expands_to_zero(off)


def test_equality_compares_canonical_forms_whatever_the_order_and_grouping(n=3):
    x, y = t_delta_expr(n), sigma_expr(n)
    assert x + y == y + x
    assert (x + y).scale(2) == (x + y) + (x + y)
    assert (x - x).parts == [] and x - x == TensorExpr(n)
    # == is not the zero test: one factor split in two expands to the same atoms, as another form
    bars = build_pi_bars(n)
    split = TensorExpr.pure(bars["pi0"], delta(n)) + TensorExpr.pure(bars["pi2"], delta(n))
    joined = TensorExpr.pure(bars["pi0"] + bars["pi2"], delta(n))
    assert split != joined
    assert (split - joined).is_zero() and expands_to_zero(split - joined)


def test_a_certificate_entry_of_two_factored_forms_is_decided_by_the_zero_test(n=3):
    # the certificates' passing entries are equal in factored form, so this is the only check of that path
    a, b, c = delta(n), SurfCorr.of(n, VERT), build_pi_bars(n)["pi1"]
    got, want = TensorExpr.pure(a + b, c), TensorExpr.pure(a, c) + TensorExpr.pure(b, c)
    assert got != want
    cert = Certificate()
    cert.check("split factor", "got = want", got, want, TCorr)
    cert.check("one more part", "got = want", got, want + TensorExpr.pure(b, a), TCorr)
    residual = TensorExpr.pure(b, a).expand(TCorr).scale(-1)
    assert cert.entries == [
        {"name": "split factor", "lhs": "got", "rhs": "want", "status": "pass"},
        {"name": "one more part", "lhs": "got", "rhs": "want", "status": "fail",
         "got": f"got - want has 1 atoms: {residual.render()}"},
    ]
