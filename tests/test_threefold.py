import random
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motive_calc import sums, surface, threefold
from motive_calc.endos import mu0, surf_end, surf_identity
from motive_calc.groups import GroupRingElement, g_identity
from motive_calc.surface import (
    GENERIC_FIBER,
    VERT,
    SurfCorr,
    act_atom_on_key,
    build_pi_bars,
    component_slot,
    delta,
    keeps_fiber,
    open_graph,
    open_tgraph,
    restrict_to_open,
    theta_key,
)
from motive_calc.threefold import (
    FIBER3,
    OpenTCorr,
    TCorr,
    TensorExpr,
    ThreefoldDivClass,
    _half_slot,
    act_on_threefold_divisor,
    b_term_expr,
    cusp_incidence,
    estimate_n,
    euler_fiber,
    model_full_fiber,
    pair_projector_expr,
    restrict_to_open_t,
    sigma_expr,
    split_sym_alt_exprs,
    t_atom,
    t_compose,
    t_delta_expr,
    theta_half,
    theta_int,
    threefold_certificate,
)

from flat_threefold import split_sym_alt, t_transpose
from support import compose_open_t, enumerate_surf, invert_open_t, lifted, tensor_open


def t_delta(n):
    return t_delta_expr(n).expand()


def pair_projectors(n):
    return {f"pi({i1},{i2})": pair_projector_expr(n, i1, i2).expand() for i1 in range(3) for i2 in range(3)}


def test_b_terms_orthogonal_and_nilpotent():
    n = 3
    b1 = b_term_expr(n, 1).expand()
    b2 = b_term_expr(n, 2).expand()
    assert t_compose(b1, b2).is_zero()
    assert t_compose(b2, b1).is_zero()
    assert t_compose(b1, b1).is_zero()
    # b(j) is supported on the vertical class in fiber slot j
    assert all(atom[0] == VERT for atom in b1.terms)
    assert all(atom[1] == VERT for atom in b2.terms)


def test_partial_collapse_relations():
    n = 3
    m0 = mu0(n)
    ident = surf_identity(n)
    tg01 = TCorr.of(n, t_atom(("T", m0), ("G", ident)))
    g10 = TCorr.of(n, t_atom(("G", ident), ("G", m0)))
    lhs = t_compose(tg01, g10)
    rhs = t_compose(g10, tg01)
    assert lhs == rhs  # partial collapses on different slots commute
    assert not lhs.is_zero()


def test_sigma_involution():
    n = 3
    sig = sigma_expr(n).expand()
    assert t_compose(sig, sig) == t_delta(n)


def test_tensor_expressions_of_different_levels_do_not_mix():
    # each entry point checks, as LinComb.check_level does for sums
    for mixed in (
        lambda: TensorExpr.pure(delta(3), delta(4)),
        lambda: t_delta_expr(3) + t_delta_expr(4),
        lambda: (t_delta_expr(3) - t_delta_expr(4)).is_zero(),
    ):
        with pytest.raises(sums.LevelMismatchError):
            mixed()
    # group-ring tensors have the level of their factors
    e = GroupRingElement.of(3, g_identity(3))
    assert (TensorExpr.pure(e, e) - TensorExpr.pure(e, e).scale(1)).is_zero()


def test_two_vertical_factors_vanish():
    assert t_atom(VERT, VERT) is None
    n = 3
    left = TCorr.of(n, t_atom(VERT, ("G", surf_identity(n))))
    right = TCorr.of(n, t_atom(("G", surf_identity(n)), VERT))
    assert t_compose(left, right).is_zero()


@pytest.mark.parametrize("j", [1, 2])
def test_factor_projectors_orthogonal_for_fixed_slot(j, n=3):
    bars = [build_pi_bars(n)[f"pi{i}"] for i in range(3)]
    exprs = [TensorExpr.pure(bar, delta(n)) if j == 1 else TensorExpr.pure(delta(n), bar) for bar in bars]
    for a in range(3):
        for b in range(3):
            got = exprs[a].compose(exprs[b]).expand()
            want = exprs[a].expand() if a == b else TCorr.zero(n)
            assert got == want


def test_slots_commute(n=3):
    bars = build_pi_bars(n)
    for i1 in range(3):
        for i2 in range(3):
            one = TensorExpr.pure(bars[f"pi{i1}"], delta(n))
            two = TensorExpr.pure(delta(n), bars[f"pi{i2}"])
            assert one.compose(two).expand() == two.compose(one).expand()


def test_pair_projector_is_the_product_of_its_slot_projectors(n=3):
    # pi(i1,i2) is built as one pure tensor; the product of pi_i1 on slot 1
    # with pi_i2 on slot 2 is the reference
    bars = build_pi_bars(n)
    for i1 in range(3):
        for i2 in range(3):
            one = TensorExpr.pure(bars[f"pi{i1}"], delta(n))
            two = TensorExpr.pure(delta(n), bars[f"pi{i2}"])
            assert pair_projector_expr(n, i1, i2).expand() == one.compose(two).expand()


def test_pair_projectors_kronecker_small(n=3):
    pairs = {(i1, i2): pair_projector_expr(n, i1, i2) for i1 in range(3) for i2 in range(3)}
    keys = list(pairs)
    rng = random.Random(2)
    sample = [(a, b) for a in keys for b in keys]
    for a, b in rng.sample(sample, 30):
        got = pairs[a].compose(pairs[b]).expand()
        want = pairs[a].expand() if a == b else TCorr.zero(n)
        assert got == want


def test_split_sym_alt(n=3):
    from motive_calc.threefold import split_sym_alt_exprs

    alt_expr, sym_expr = split_sym_alt_exprs(n)
    alt, sym = split_sym_alt(n)
    p11 = pair_projector_expr(n, 1, 1).expand()
    assert alt + sym == p11
    assert alt_expr.compose(alt_expr).expand() == alt
    assert sym_expr.compose(sym_expr).expand() == sym
    assert alt_expr.compose(sym_expr).expand().is_zero()
    assert sym_expr.compose(alt_expr).expand().is_zero()


def test_transpose_pairs(n=3):
    tildes = pair_projectors(n)
    assert t_transpose(tildes["pi(0,2)"]) == tildes["pi(2,0)"]
    assert t_transpose(tildes["pi(1,1)"]) == tildes["pi(1,1)"]
    assert t_transpose(tildes["pi(0,0)"]) == tildes["pi(2,2)"]


def test_restriction_factorizes(n=3):
    bars = build_pi_bars(n)
    tildes = pair_projectors(n)
    for i1 in range(3):
        for i2 in range(3):
            lhs = restrict_to_open_t(tildes[f"pi({i1},{i2})"])
            rhs = tensor_open(restrict_to_open(bars[f"pi{i1}"]), restrict_to_open(bars[f"pi{i2}"]))
            assert lhs == rhs
    assert restrict_to_open_t(b_term_expr(n, 1).expand()) == OpenTCorr(n)
    assert restrict_to_open_t(b_term_expr(n, 2).expand()) == OpenTCorr(n)


_OPENED = {}  # level -> the restricted pair projectors


def _opened_pair_projectors(n):
    if n not in _OPENED:
        _OPENED[n] = [restrict_to_open_t(x) for x in pair_projectors(n).values()]
    return _OPENED[n]


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 5), st.data())
def test_the_parity_map_is_the_product_with_the_inversion(n, data):
    # random open tensor sums: graphs and transposed graphs of every fiberwise map, and restricted projectors
    affine = st.sampled_from(enumerate_surf(n))
    atom = st.one_of(st.builds(open_graph, affine), st.builds(open_tgraph, affine))
    coeff = st.sampled_from([Fraction(k, d) for k in (-3, -1, 1, 2) for d in (1, 2, 3)])
    x = OpenTCorr(n, data.draw(st.dictionaries(st.tuples(atom, atom, st.booleans()), coeff, max_size=8)))
    for projector in data.draw(st.lists(st.sampled_from(_opened_pair_projectors(n)), max_size=2)):
        x = x + projector.scale(data.draw(coeff))
    inversion = open_graph(surf_end(n, 0, 0, -1))
    got = invert_open_t(x)
    assert got == compose_open_t(OpenTCorr.of(n, (inversion, inversion, False)), x)
    assert all(type(c) is Fraction for c in got.terms.values())


def test_action_rows(n=3):
    tildes = {name: lifted(x) for name, x in pair_projectors(n).items()}
    f3 = ThreefoldDivClass.of(n, FIBER3)
    assert act_on_threefold_divisor(tildes["pi(0,0)"], f3) == f3
    assert act_on_threefold_divisor(tildes["pi(1,2)"], f3).is_zero()
    ident = ThreefoldDivClass.of(n, theta_int(0, 0, 0))
    assert act_on_threefold_divisor(tildes["pi(0,0)"], ident) == model_full_fiber(n, 0)
    for key in (theta_int(0, 1, 0), theta_int(0, 0, 2), theta_half(0, 0, 0), theta_half(0, 2, 1)):
        z = ThreefoldDivClass.of(n, key)
        for i1 in range(3):
            for i2 in range(3):
                assert act_on_threefold_divisor(tildes[f"pi({i1},{i2})"], z).is_zero()


def test_sigma_action_transposes_indices(n=3):
    sig = lifted(sigma_expr(n).expand())
    z = ThreefoldDivClass.of(n, theta_int(0, 1, 2))
    assert act_on_threefold_divisor(sig, z) == ThreefoldDivClass.of(n, theta_int(0, 2, 1))
    h = ThreefoldDivClass.of(n, theta_half(0, 1, 0))
    assert act_on_threefold_divisor(sig, h) == ThreefoldDivClass.of(n, theta_half(0, 0, 1))


def test_a_threefold_divisor_class_out_of_range_is_rejected(n=3):
    # refused where the class is built, before any action
    for key in (theta_int(0, 5, 7), theta_int(4, 0, 0), theta_half(0, 0, 3), theta_half(-1, 0, 0)):
        with pytest.raises(ValueError, match="outside level 3"):
            ThreefoldDivClass.of(n, key)
    edge = ThreefoldDivClass(n, {theta_int(3, 2, 0): 1, theta_half(3, 0, 2): 1, FIBER3: 1})
    assert act_on_threefold_divisor(t_delta_expr(n), edge) == edge


def test_half_index_action(n=4):
    # inversion on a half-integer index: -(p + 1/2) = (-p - 1) + 1/2
    auto = t_atom(("G", surf_end(n, 1, 0, -1)), ("G", surf_identity(n)))
    x = lifted(TCorr.of(n, auto))
    z = ThreefoldDivClass.of(n, theta_half(0, 1, 1))
    want = ThreefoldDivClass.of(n, theta_half(0, (1 - 1 - 1) % n, 1))
    assert act_on_threefold_divisor(x, z) == want


def test_action_coherence_sampled(n=3):
    ends = enumerate_surf(n)
    satoms = [("G", e) for e in ends] + [("T", e) for e in ends if e.collapse] + [VERT]
    keys = [FIBER3]
    keys += [theta_int(0, m, k) for m in range(n) for k in range(n)]
    keys += [theta_half(0, p, q) for p in range(n) for q in range(n)]
    rng = random.Random(17)
    checked = 0
    while checked < 4000:
        la, ra = rng.choice(satoms), rng.choice(satoms)
        lb, rb = rng.choice(satoms), rng.choice(satoms)
        xa = t_atom(la, ra, rng.random() < 0.5)
        xb = t_atom(lb, rb, rng.random() < 0.5)
        if xa is None or xb is None:
            continue
        x, y = TCorr.of(n, xa), TCorr.of(n, xb)
        z = ThreefoldDivClass.of(n, rng.choice(keys))
        lhs = act_on_threefold_divisor(lifted(t_compose(x, y)), z)
        rhs = act_on_threefold_divisor(lifted(x), act_on_threefold_divisor(lifted(y), z))
        assert lhs == rhs
        checked += 1


@pytest.mark.parametrize("n", [3, 4])
def test_threefold_action_is_the_tensor_of_the_surface_actions(n):
    ends = enumerate_surf(n)
    satoms = [("G", e) for e in ends] + [("T", e) for e in ends if e.collapse] + [VERT]
    # surface action of each factor on each component index of cusp 1, and on the fiber
    slot = {
        (a, m): [(key[2], k) for key, k in act_atom_on_key(a, theta_key(1, m), n)]
        for a in satoms
        for m in range(n)
    }
    keeps = {a: act_atom_on_key(a, GENERIC_FIBER, n) == [(GENERIC_FIBER, 1)] for a in satoms}
    f3 = ThreefoldDivClass.of(n, FIBER3)
    for left, right in product(satoms, repeat=2):
        for swap in (False, True):
            atom = t_atom(left, right, swap)
            if atom is None:
                continue
            x = lifted(TCorr.of(n, atom))
            assert act_on_threefold_divisor(x, f3) == (f3 if keeps[left] and keeps[right] else ThreefoldDivClass(n))
            for m, k in product(range(n), repeat=2):
                a, b = (k, m) if swap else (m, k)
                want = {theta_int(1, i, j): ci * cj for i, ci in slot[left, a] for j, cj in slot[right, b]}
                assert act_on_threefold_divisor(x, ThreefoldDivClass.of(n, theta_int(1, m, k))).terms == want


def test_t_compose_associativity_submodel(n=3):
    factors = [("G", surf_identity(n)), ("G", mu0(n)), ("T", mu0(n)), VERT]
    atoms = []
    for left in factors:
        for right in factors:
            for sw in (False, True):
                a = t_atom(left, right, sw)
                if a is not None:
                    atoms.append(a)
    corrs = {a: TCorr.of(n, a) for a in atoms}
    for a, b, c in product(atoms, repeat=3):
        lhs = t_compose(t_compose(corrs[a], corrs[b]), corrs[c])
        rhs = t_compose(corrs[a], t_compose(corrs[b], corrs[c]))
        assert lhs == rhs


def test_t_compose_associativity_sampled(n=3):
    ends = enumerate_surf(n)
    satoms = [("G", e) for e in ends] + [("T", e) for e in ends if e.collapse] + [VERT]
    rng = random.Random(23)
    done = 0
    while done < 2500:
        picks = []
        while len(picks) < 3:
            a = t_atom(rng.choice(satoms), rng.choice(satoms), rng.random() < 0.5)
            if a is not None:
                picks.append(TCorr.of(n, a))
        a, b, c = picks
        assert t_compose(t_compose(a, b), c) == t_compose(a, t_compose(b, c))
        done += 1


def test_factored_and_naive_composition_agree(n=3):
    exprs = [pair_projector_expr(n, i1, i2) for i1 in range(3) for i2 in range(3)]
    rng = random.Random(31)
    for _ in range(12):
        a = rng.choice(exprs)
        b = rng.choice(exprs)
        assert a.compose(b).expand() == t_compose(a.expand(), b.expand())


def test_incidence_complex_counts():
    for n in (3, 4):
        ic = cusp_incidence(n)
        assert len(ic.vertices) == 2 * n * n
        assert len(ic.edges) == 6 * n * n
        assert len(ic.triples) == 4 * n * n
        data = ic.to_json()
        quad_neighbors = data["adjacency"]["Q(0+1/2,0+1/2)"]
        assert len(quad_neighbors) == 4
        assert all(name.startswith("T(") for name in quad_neighbors)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_euler_fiber_closed_form(n):
    assert euler_fiber(n) == 4 * n * n


@pytest.mark.parametrize("n", [3, 4, 5])
def test_estimate_n_consistent(n):
    est = estimate_n(n)
    assert est["experimental"] is True
    assert est["consistent"] is True
    assert est["positive_integer"] is True
    assert est["n_euler"] == est["n_lattice"]


def test_estimate_n_level_three_value():
    # lattice route: 4 + cusps * (2 N^2 - 1) = 4 + 4 * 17
    assert estimate_n(3)["n_lattice"] == 72


def test_residual_identity_fails_when_the_action_is_lost(monkeypatch):
    import motive_calc.threefold as threefold

    def no_action(x, z, **_memo):
        return ThreefoldDivClass(z.level)

    monkeypatch.setattr(threefold, "act_on_threefold_divisor", no_action)
    entries = {e["name"]: e for e in threefold.threefold_certificate(3)}
    assert entries["action:residual_identity"]["status"] == "fail"


# -- the factored action and expansion against atom-level references ---------------

def act_t_atom_on_key(atom, key, level):
    """Reference action of one tensor atom: the product of its factors' slot actions."""
    left, right, swap = atom
    if key[0] == "F3":
        return [(FIBER3, 1)] if keeps_fiber(left) and keeps_fiber(right) else []
    kind, c, m, k = key
    if swap:
        m, k = k, m
    slot = component_slot if kind == "I" else _half_slot
    return [((kind, c, a, b), 1) for a in slot(left, m, level) for b in slot(right, k, level)]


def atom_level_action(expanded: TCorr, z: ThreefoldDivClass) -> ThreefoldDivClass:
    return sums.product(expanded, z, act_t_atom_on_key, ThreefoldDivClass)


def named_projector_exprs(n):
    exprs = {f"pi({i1},{i2})": pair_projector_expr(n, i1, i2) for i1 in range(3) for i2 in range(3)}
    exprs["alt(1,1)"], exprs["sym(1,1)"] = split_sym_alt_exprs(n)
    exprs["piF"] = TensorExpr(n, [p for i1 in range(3) for i2 in range(3) for p in exprs[f"pi({i1},{i2})"].parts])
    exprs["piInf"] = t_delta_expr(n) - exprs["piF"]
    return exprs


@pytest.mark.parametrize("n", [3, 4])
def test_factored_action_matches_the_atom_level_action(n):
    keys = [FIBER3]
    keys += [theta_int(0, m, k) for m in range(n) for k in range(n)]
    keys += [theta_half(0, p, q) for p in range(n) for q in range(n)]
    for name, x in named_projector_exprs(n).items():
        expanded = x.expand()
        for key in keys:
            z = ThreefoldDivClass.of(n, key)
            want = atom_level_action(expanded, z)
            assert act_on_threefold_divisor(x, z) == want, (name, key)
            # the expansion, each atom a one-atom pure tensor, acts alike
            assert act_on_threefold_divisor(lifted(expanded), z) == want, (name, key)


def test_factored_action_on_a_mixed_class(n=3):
    rng = random.Random(5)
    keys = [FIBER3] + [theta_int(c, m, k) for c in range(2) for m in range(n) for k in range(n)]
    keys += [theta_half(c, p, q) for c in range(2) for p in range(n) for q in range(n)]
    z = ThreefoldDivClass(n, {key: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for key in keys})
    for name, x in named_projector_exprs(n).items():
        assert act_on_threefold_divisor(x, z) == atom_level_action(x.expand(), z), name


def naive_expand(x: TensorExpr) -> TCorr:
    """Each part expanded on its own, atom by atom, then summed."""
    total = TCorr.zero(x.level)
    for c, a, b, e in x.parts:
        terms = {}
        for la, ca in a.terms.items():
            for rb, cb in b.terms.items():
                atom = t_atom(la, rb, e)
                if atom is not None:
                    terms[atom] = terms.get(atom, 0) + c * ca * cb
        total = total + TCorr(x.level, terms)
    return total


def _factor_pool(n=3):
    m0, ident = mu0(n), surf_identity(n)
    atoms = [("G", ident), ("G", surf_end(n, 1, 0, -1)), ("G", m0), ("T", m0), VERT]
    pool = [SurfCorr.of(n, a) for a in atoms]
    pool += [SurfCorr(n, {atoms[0]: 1, VERT: Fraction(-1, 2)}), SurfCorr(n, {atoms[1]: 2, atoms[3]: -1})]
    pool += list(build_pi_bars(n).values())
    return pool


FACTORS = _factor_pool()

_coeffs = st.sampled_from([Fraction(k, 2) for k in (-4, -2, -1, 0, 1, 2, 6)])
_parts = st.lists(
    st.tuples(
        _coeffs,
        st.integers(0, len(FACTORS) - 1),
        st.integers(0, len(FACTORS) - 1),
        st.booleans(),
    ),
    max_size=8,
)


@settings(max_examples=150, deadline=None)
@given(_parts, st.data())
def test_merged_expand_equals_per_part_expansion(parts, data):
    parts = [(c, FACTORS[i], FACTORS[j], e) for c, i, j, e in parts]
    # repeat some parts, negated or not, so that merging has work to do
    for c, a, b, e in list(parts):
        if data.draw(st.booleans()):
            parts.append((data.draw(st.sampled_from([-c, c])), a, b, e))
    x = TensorExpr(3, parts)
    assert x.expand() == naive_expand(x)


_keys = st.one_of(
    st.just(FIBER3),
    st.builds(theta_int, st.integers(0, 1), st.integers(0, 2), st.integers(0, 2)),
    st.builds(theta_half, st.integers(0, 1), st.integers(0, 2), st.integers(0, 2)),
)


@settings(max_examples=150, deadline=None)
@given(_parts, _keys)
def test_factored_action_matches_on_random_expressions(parts, key):
    # the projectors kill almost every component; these operands act nontrivially
    x = TensorExpr(3, [(c, FACTORS[i], FACTORS[j], e) for c, i, j, e in parts])
    z = ThreefoldDivClass.of(3, key)
    assert act_on_threefold_divisor(x, z) == atom_level_action(x.expand(), z)


# -- the threefold certificate ---------------------------------------------------------

def test_certificate_products_do_not_outlive_the_call(monkeypatch):
    assert all(e["status"] == "pass" for e in threefold_certificate(3))
    rule = surface.compose_atom_pair

    def without_r4(x, y, level):
        # tGraph(c) o Graph(f) for a collapse f: the rule that gives V on equal sections
        if x[0] == "T" and y[0] == "G" and y[1].collapse:
            return None
        return rule(x, y, level)

    monkeypatch.setattr(surface, "compose_atom_pair", without_r4)
    entries = threefold_certificate(3)
    assert any(e["name"].startswith("kronecker:") and e["status"] == "fail" for e in entries)


@pytest.mark.parametrize("n", [6, 7])
def test_threefold_certificate_passes_at_higher_levels(n):
    failed = [e["name"] for e in threefold_certificate(n) if e["status"] != "pass"]
    assert failed == []


def test_a_passing_certificate_expands_only_the_restriction_rows(monkeypatch):
    # only the two b(j) terms, restricted atom by atom: the pair projector rows
    # compare each pair of terms of their factors, and expand no pair projector whole
    expand = TensorExpr.expand
    calls = []

    def counted(self):
        calls.append(len(self.parts))
        return expand(self)

    monkeypatch.setattr(TensorExpr, "expand", counted)
    failed = [e["name"] for e in threefold_certificate(4) if e["status"] != "pass"]
    assert failed == []
    assert len(calls) == 2
    assert calls == [1] * 2


def test_a_passing_certificate_at_level_8_peaks_under_2_mb():
    # the restriction rows hold only the pairs of terms whose atoms differ, none when the law holds,
    # not the 4N^4 atoms of a pair projector expanded whole (about 14 MB at this level)
    threefold_certificate(8)  # the level's projectors and rule tables, made once per process
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        failed = [e["name"] for e in threefold_certificate(8) if e["status"] != "pass"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert failed == []
    assert peak <= 2_000_000


def test_a_passing_certificate_builds_its_factors_once_and_restricts_each_projector_once(monkeypatch):
    # one build_pi_bars for the certificate and one inside split_sym_alt_exprs;
    # the two b(j) terms are restricted once each, and the pair projectors never whole
    calls = {"build_pi_bars": 0, "restrict_to_open_t": 0}

    def counted(name):
        original = getattr(threefold, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(threefold, name, counted(name))
    failed = [e["name"] for e in threefold_certificate(4) if e["status"] != "pass"]
    assert failed == []
    assert calls == {"build_pi_bars": 2, "restrict_to_open_t": 2}


def test_each_open_part_row_reads_the_atom_maps_once_per_distinct_atom(monkeypatch):
    # the 9 restriction, 2 b(j) and 5 parity rows: restrict_atom once per distinct surface atom
    # of a row, and the inversion once per distinct open atom of a parity row
    row = [0]
    reads = {"restrict_atom": [], "compose_open_atoms": []}

    def counted(name):
        original = getattr(threefold, name)

        def wrapper(*args):
            reads[name].append((row[0], args))
            return original(*args)

        return wrapper

    def one_row(name):
        original = getattr(threefold, name)

        def wrapper(*args):
            row[0] += 1
            return original(*args)

        return wrapper

    for name in reads:
        monkeypatch.setattr(threefold, name, counted(name))
    for name in ("restriction_residual", "restrict_to_open_t", "parity_residual"):
        monkeypatch.setattr(threefold, name, one_row(name))
    failed = [e["name"] for e in threefold_certificate(4) if e["status"] != "pass"]
    assert failed == []
    assert row[0] == 9 + 2 + 5
    assert {name: len(got) for name, got in reads.items()} == {"restrict_atom": 289, "compose_open_atoms": 102}
    assert all(len(set(got)) == len(got) for got in reads.values())


def test_a_restriction_row_refuses_factors_of_two_levels():
    with pytest.raises(sums.LevelMismatchError):
        threefold.restriction_residual(build_pi_bars(3)["pi0"], build_pi_bars(4)["pi2"])


def test_a_parity_row_refuses_factors_of_two_levels():
    pi0, pi2 = build_pi_bars(3)["pi0"], build_pi_bars(4)["pi2"]
    for pairs in ([(pi0, pi2)], [(pi0, pi0), (pi2, pi2)]):
        with pytest.raises(sums.LevelMismatchError, match="open-part row"):
            threefold.parity_residual(pairs, 1)


def test_a_parity_row_refuses_no_pairs():
    with pytest.raises(ValueError, match="at least one pair"):
        threefold.parity_residual([], 1)


def test_the_pi_bars_of_a_level_are_made_once_and_handed_out_in_a_fresh_dict():
    a, b = build_pi_bars(4), build_pi_bars(4)
    assert a is not b
    assert all(a[k] is b[k] for k in ("pi0", "pi1", "pi2"))
    a["pi1"] = delta(4)
    assert build_pi_bars(4)["pi1"] is b["pi1"]


def test_a_surface_product_equal_to_an_operand_is_stored_as_that_operand():
    n = 4
    pi0, pi1 = build_pi_bars(n)["pi0"], build_pi_bars(n)["pi1"]
    d = delta(n)
    memo = {}
    assert threefold._surface_product(d, pi1, memo) is pi1
    assert threefold._surface_product(pi1, d, memo) is pi1
    assert threefold._surface_product(pi1, pi1, memo) is pi1
    assert threefold._surface_product(pi1, pi0, memo).is_zero()
    assert all(memo[(x, y)] is pi1 for x, y in ((d, pi1), (pi1, d), (pi1, pi1)))
