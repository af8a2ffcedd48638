import random
from fractions import Fraction

import pytest

from motive_calc.endos import mu0, surf_end
from motive_calc.exact import RatMatrix
from motive_calc.groups import LevelMismatchError, lambda_theta
from motive_calc.levels import cusp_count
from motive_calc.surface import (
    DA_FIBER,
    DivClass,
    GENERIC_FIBER,
    OpenCorr,
    SurfCorr,
    UnsupportedCompositionError,
    VERT,
    act_on_divisor,
    an_entry,
    build_pi_bars,
    build_pi_cusp,
    build_pi_inf,
    compose,
    compose_open_atoms,
    cusp_prod,
    delta,
    full_cusp_fiber,
    graph,
    group_ring_to_corr,
    neron_lattice,
    open_tgraph,
    restrict_to_open,
    sec_key,
    surface_certificate,
    theta_key,
    transpose,
)

from support import compose_open, enumerate_surf, mat_mul, tgraph


def all_atoms(n):
    atoms = []
    for e in enumerate_surf(n):
        atoms.append(("G", e))
        if e.collapse:
            atoms.append(("T", e))
    atoms.append(VERT)
    for c in range(cusp_count(n)):
        for m in range(n):
            for k in range(n):
                atoms.append(("C", c, m, k))
    return atoms


def atom_corr(n, atom):
    return SurfCorr.of(n, atom)


# -- composition table -------------------------------------------------------

def test_collapse_graph_against_transpose():
    n = 3
    m0 = mu0(n)
    g = SurfCorr.of(n, ("G", m0))
    t = SurfCorr.of(n, ("T", m0))
    assert compose(g, t).is_zero()  # image drops dimension
    assert compose(t, g) == SurfCorr.of(n, VERT)


def test_mismatched_sections_give_zero():
    n = 3
    t = SurfCorr.of(n, ("T", mu0(n)))
    g = SurfCorr.of(n, ("G", surf_end(n, 1, 0, 1, True)))
    assert compose(t, g).is_zero()


def test_cusp_product_composition():
    n = 3
    after = SurfCorr.of(n, cusp_prod(0, 1, 1))
    before = SurfCorr.of(n, cusp_prod(0, 1, 2))
    got = compose(after, before)
    assert got == SurfCorr.of(n, cusp_prod(0, 1, 1), an_entry(n, 2, 1))
    assert an_entry(n, 2, 1) == 1


def test_cusp_product_across_cusps_vanishes():
    n = 3
    a = SurfCorr.of(n, cusp_prod(0, 1, 1))
    b = SurfCorr.of(n, cusp_prod(1, 1, 1))
    assert compose(a, b).is_zero()


def test_vert_rules():
    n = 3
    v = SurfCorr.of(n, VERT)
    auto = SurfCorr.of(n, ("G", surf_end(n, 1, 2, -1)))
    col = SurfCorr.of(n, ("G", mu0(n)))
    tcol = SurfCorr.of(n, ("T", mu0(n)))
    assert compose(auto, v) == v
    assert compose(col, v).is_zero()
    assert compose(v, auto) == v
    assert compose(v, col) == v
    assert compose(tcol, v) == v
    assert compose(v, tcol).is_zero()
    assert compose(v, v).is_zero()


def test_transpose_examples():
    n = 4
    bars = build_pi_bars(n)
    assert transpose(bars["pi0"]) == bars["pi2"]
    assert transpose(SurfCorr.of(n, VERT)) == SurfCorr.of(n, VERT)


def test_transpose_involution_random():
    n = 4
    rng = random.Random(5)
    atoms = all_atoms(n)
    for _ in range(50):
        terms = {rng.choice(atoms): Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(6)}
        x = SurfCorr(n, terms)
        assert transpose(transpose(x)) == x


def test_transpose_antihomomorphism_all_pairs():
    n = 3
    atoms = all_atoms(n)
    for x in atoms:
        cx = atom_corr(n, x)
        for y in atoms:
            cy = atom_corr(n, y)
            assert transpose(compose(cx, cy)) == compose(transpose(cy), transpose(cx))


# -- lattice -----------------------------------------------------------------

def test_neron_lattice_level_three():
    lat = neron_lattice(3)
    assert lat.full_matrix == RatMatrix([[-2, 1, 1], [1, -2, 1], [1, 1, -2]])
    assert lat.rank == 2
    assert lat.reduced_inverse == RatMatrix(
        [[Fraction(-2, 3), Fraction(-1, 3)], [Fraction(-1, 3), Fraction(-2, 3)]]
    )


@pytest.mark.parametrize("n", range(3, 13))
def test_neron_lattice_inverse_exact(n):
    lat = neron_lattice(n)
    assert lat.rank == n - 1
    ident = RatMatrix.identity(n - 1)
    assert mat_mul(lat.reduced_inverse, lat.reduced_block) == ident
    assert mat_mul(lat.reduced_block, lat.reduced_inverse) == ident


# -- projectors ---------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 4])
def test_pi_bars_idempotent_orthogonal(n):
    bars = build_pi_bars(n)
    names = ["pi0", "pi1", "pi2"]
    for a in names:
        for b in names:
            got = compose(bars[a], bars[b])
            assert got == (bars[a] if a == b else SurfCorr.zero(n))


@pytest.mark.parametrize("n", [3, 4])
def test_pi_cusp_structure(n):
    bars = build_pi_bars(n)
    for c in range(cusp_count(n)):
        pc = build_pi_cusp(n, c)
        assert compose(pc, pc) == pc
        assert transpose(pc) == pc
        for name in ("pi0", "pi1", "pi2"):
            assert compose(pc, bars[name]).is_zero()
            assert compose(bars[name], pc).is_zero()
    assert compose(build_pi_cusp(n, 0), build_pi_cusp(n, 1)).is_zero()


def test_pi_inf_residual(n=3):
    pinf = build_pi_inf(n)
    assert compose(pinf, pinf) == pinf
    for c in range(cusp_count(n)):
        pc = build_pi_cusp(n, c)
        assert compose(pinf, pc) == pc
        assert compose(pc, pinf) == pc


def test_delta_identity_law():
    n = 4
    d = delta(n)
    rng = random.Random(9)
    atoms = all_atoms(n)
    for _ in range(40):
        x = SurfCorr.of(n, rng.choice(atoms))
        assert compose(d, x) == x
        assert compose(x, d) == x


def test_level_mismatch_raises():
    with pytest.raises(LevelMismatchError):
        compose(delta(3), delta(4))


# -- divisor action -----------------------------------------------------------

def test_action_rows():
    n = 3
    bars = build_pi_bars(n)
    fiber = DivClass.of(n, GENERIC_FIBER)
    assert act_on_divisor(bars["pi0"], fiber) == fiber
    assert act_on_divisor(bars["pi1"], fiber).is_zero()
    assert act_on_divisor(bars["pi2"], fiber).is_zero()
    th = DivClass.of(n, theta_key(0, 1))
    assert act_on_divisor(bars["pi1"], th).is_zero()
    assert act_on_divisor(bars["pi0"], DivClass.of(n, theta_key(0, 0))) == full_cusp_fiber(n, 0)
    lam_corr, theta_corr = (group_ring_to_corr(e) for e in lambda_theta(n))
    got = act_on_divisor(theta_corr, th)
    assert got == full_cusp_fiber(n, 0).scale(Fraction(1, n))
    lam = act_on_divisor(lam_corr, th)
    want = DivClass(n, {theta_key(0, 1): Fraction(1, 2), theta_key(0, 2): Fraction(-1, 2)})
    assert lam == want


def test_action_involves_da_symbol():
    n = 3
    t = SurfCorr.of(n, ("T", mu0(n)))
    z = DivClass.of(n, sec_key(0, 0))
    got = act_on_divisor(t, z)
    assert got == DivClass.of(n, DA_FIBER)
    v = SurfCorr.of(n, VERT)
    assert act_on_divisor(v, z) == DivClass.of(n, DA_FIBER)
    # d_a never squares along in-table chains: the fiber pairs to zero
    assert act_on_divisor(v, got).is_zero()


def test_a_divisor_class_out_of_range_is_rejected():
    # N = 3 has 4 cusps; each of these was once computed as some in-range class, and is now refused
    # where the class is built
    n = 3
    shift = SurfCorr.of(n, graph(surf_end(n, 1, 0, 1)))
    for key in (theta_key(0, 7), theta_key(99, 1), theta_key(4, 0), sec_key(5, -4), theta_key(0, 4)):
        with pytest.raises(ValueError, match="outside level 3"):
            DivClass(n, {GENERIC_FIBER: 1, key: 1})
    edge = DivClass(n, {theta_key(3, 2): 1, sec_key(2, 0): 1, DA_FIBER: 1})
    assert act_on_divisor(shift, edge) == DivClass(n, {theta_key(3, 0): 1, sec_key(0, 0): 1, DA_FIBER: 1})


def test_section_pushforward():
    n = 3
    g = SurfCorr.of(n, ("G", surf_end(n, 1, 2, -1)))
    z = DivClass.of(n, sec_key(1, 0))
    assert act_on_divisor(g, z) == DivClass.of(n, sec_key(0, 2))
    col = SurfCorr.of(n, ("G", surf_end(n, 2, 2, 1, True)))
    assert act_on_divisor(col, z) == DivClass.of(n, sec_key(2, 2))


def test_action_coherence_sampled():
    n = 4
    atoms = all_atoms(n)
    keys = (
        [GENERIC_FIBER]
        + [sec_key(b1, b2) for b1 in range(n) for b2 in range(n)]
        + [theta_key(c, m) for c in range(cusp_count(n)) for m in range(n)]
    )
    rng = random.Random(21)
    for _ in range(3000):
        x = rng.choice(atoms)
        y = rng.choice(atoms)
        key = rng.choice(keys)
        cx, cy = atom_corr(n, x), atom_corr(n, y)
        z = DivClass.of(n, key)
        assert act_on_divisor(compose(cx, cy), z) == act_on_divisor(cx, act_on_divisor(cy, z))


# -- restriction ---------------------------------------------------------------

def test_restriction_of_projectors():
    n = 3
    bars = build_pi_bars(n)
    assert restrict_to_open(bars["pi0"]) == OpenCorr(
        n, {open_tgraph(mu0(n)): Fraction(1)}
    )
    assert restrict_to_open(build_pi_cusp(n, 0)).is_zero()
    pi1_open = restrict_to_open(bars["pi1"])
    assert len(pi1_open.terms) == 2 * n * n
    assert all(species == "g" for (species, _aff) in pi1_open.terms)


def test_restriction_multiplicative_same_species():
    n = 3
    ends = enumerate_surf(n)
    for f in ends:
        for h in ends:
            from motive_calc.endos import surf_compose

            lhs = restrict_to_open(SurfCorr.of(n, ("G", surf_compose(f, h))))
            rhs_val = compose_open(
                restrict_to_open(SurfCorr.of(n, ("G", f))),
                restrict_to_open(SurfCorr.of(n, ("G", h))),
            )
            assert lhs == rhs_val


def test_restriction_respects_mixed_table_cases():
    n = 3
    auto = surf_end(n, 1, 0, -1)
    col = mu0(n)
    # Graph(auto) o tGraph(col) is in-table on both sides
    lhs = restrict_to_open(compose(SurfCorr.of(n, graph(auto)), SurfCorr.of(n, tgraph(col))))
    rhs = compose_open(
        restrict_to_open(SurfCorr.of(n, graph(auto))),
        restrict_to_open(SurfCorr.of(n, tgraph(col))),
    )
    assert lhs == rhs


def test_open_mixed_without_invertible_raises():
    n = 3
    zero_map = ("g", mu0(n))  # x -> 0
    tzero = ("t", surf_end(n, 1, 0, collapse=True))  # the transposed graph of x -> (1, 0)
    with pytest.raises(UnsupportedCompositionError):
        compose_open_atoms(zero_map, tzero)


def test_mu_0_absorption_on_open_part():
    n = 3
    theta_open = restrict_to_open(group_ring_to_corr(lambda_theta(n)[1]))
    mu_0 = OpenCorr(n, {open_tgraph(mu0(n)): Fraction(1)})
    # averaging over torsion translations absorbs into multiplication by 0, which kills torsion
    assert compose_open(theta_open, mu_0) == mu_0


# -- independent matrix oracle for the cusp-product subalgebra ---------------------
#
# A combination sum a_(m,n) CP(c,m,n) is the matrix (a_(m,n)); composition
# x o y corresponds to Y * A_N * X on matrices, because
# E(m',n') o E(m,n) = A_N[n,m'] E(m,n').


def _corr_to_matrix(x, n):
    mat = [[Fraction(0)] * n for _ in range(n)]
    for atom, c in x.terms.items():
        assert atom[0] == "C" and atom[1] == 0
        mat[atom[2]][atom[3]] += c
    return RatMatrix(mat)


def _matrix_to_corr(mat, n):
    return SurfCorr(
        n,
        {cusp_prod(0, m, k): mat[m, k] for m in range(n) for k in range(n) if mat[m, k]},
    )


@pytest.mark.parametrize("n", [3, 5])
def test_cusp_products_match_matrix_oracle(n):
    rng = random.Random(n)
    a_n = neron_lattice(n).full_matrix
    for _ in range(25):
        x = SurfCorr(
            n,
            {
                cusp_prod(0, rng.randrange(n), rng.randrange(n)): Fraction(
                    rng.randint(-3, 3), rng.randint(1, 3)
                )
                for _ in range(4)
            },
        )
        y = SurfCorr(
            n,
            {
                cusp_prod(0, rng.randrange(n), rng.randrange(n)): Fraction(
                    rng.randint(-3, 3), rng.randint(1, 3)
                )
                for _ in range(4)
            },
        )
        want = _matrix_to_corr(mat_mul(mat_mul(_corr_to_matrix(y, n), a_n), _corr_to_matrix(x, n)), n)
        assert compose(x, y) == want


@pytest.mark.parametrize("n", [3, 4, 6])
def test_pi_cusp_idempotent_by_matrix_algebra(n):
    # embed the reduced inverse into the full index range and square it
    # through the intersection matrix, independently of the engine
    lat = neron_lattice(n)
    s_full = [[Fraction(0)] * n for _ in range(n)]
    for m in range(1, n):
        for k in range(1, n):
            s_full[m][k] = lat.reduced_inverse[m - 1, k - 1]
    s_mat = RatMatrix(s_full)
    assert mat_mul(mat_mul(s_mat, lat.full_matrix), s_mat) == s_mat
    assert _corr_to_matrix(build_pi_cusp(n, 0), n) == s_mat


# -- associativity ----------------------------------------------------------------

def test_compose_associative_exhaustive_level_three():
    n = 3
    atoms = all_atoms(n)
    corrs = {a: atom_corr(n, a) for a in atoms}
    pair = {}
    for x in atoms:
        for y in atoms:
            pair[(x, y)] = compose(corrs[x], corrs[y])
    for x in atoms:
        cx = corrs[x]
        for y in atoms:
            pxy = pair[(x, y)]
            for z in atoms:
                assert compose(pxy, corrs[z]) == compose(cx, pair[(y, z)])


@pytest.mark.parametrize("n", [5, 8])
def test_compose_associative_sampled(n):
    atoms = all_atoms(n)
    rng = random.Random(n)
    for _ in range(4000):
        x, y, z = (atom_corr(n, rng.choice(atoms)) for _ in range(3))
        assert compose(compose(x, y), z) == compose(x, compose(y, z))


# -- certificate ----------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 4])
def test_surface_certificate_passes(n):
    entries = surface_certificate(n)
    assert entries
    assert all(e["status"] == "pass" for e in entries)


@pytest.mark.parametrize("n", range(3, 13))
def test_cusp_projector_coefficients_have_the_closed_form(n):
    # the inverse of the reduced N-gon block, entry (i, j) for components 1..N-1
    inv = neron_lattice(n).reduced_inverse
    for i in range(1, n):
        for j in range(1, n):
            assert inv[i - 1, j - 1] == Fraction(-min(i, j) * (n - max(i, j)), n)
