"""Tensor-model correspondence algebra of the desingularized fiber square.

Atoms are (a (x) b) . swap^e with a, b surface atoms restricted to graphs,
transposed collapse graphs, and the vertical class; composition works
factor by factor through the surface rule table, with the swap twisting
which factor meets which.  An atom with two vertical factors is zero
(the two correction supports are chosen disjoint, and same-support
products only arise inside expressions that already vanish), so dropping
them is an algebra quotient and factorized computation stays exact.

The flat engine on these atoms, `TCorr` and `t_compose`, runs the
structure identities and the `restriction:b(j)` rows.  Every other entry
is computed on the factored form, a `tensor.TensorExpr` of surface
correspondences, and decided by `Certificate.check` with the tensor zero
test; only a failed entry expands its residual to atoms.  The restriction
rows keep their law about the factoring, open(a (x) b) =
open(a) (x) open(b), atom by atom: each pair of terms of a and b is built
by `t_atom`, restricted, and compared with the atom that the tensor
product of the surface restrictions expects, and only a pair whose two
atoms differ adds to the residual (`restriction_residual`).  A parity row
is one `TensorExpr` of open factors (`parity_residual`).  Each open-part
row reads `restrict_atom` once per distinct surface atom, into a map made
from the function bound when the row runs and dropped when it ends; no row
holds a pair projector expanded whole.  Divisor actions are also computed
on the factored form: a pure tensor acts as the tensor product of its two
factors' slot actions.  Within one certificate the projectors share their
factors, and each distinct surface product and each slot image is
computed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from math import lcm
from operator import add

from . import surface
from .endos import SurfEnd, mu0, surf_identity
from .groups import mu_inv
from .levels import _check_level, cusp_count, level_invariants
from .sums import Certificate, LevelMismatchError, LinComb, collect, linear_map, product
from .surface import (
    VERT,
    Atom,
    OpenCorr,
    SurfCorr,
    atom_label,
    atom_sort_key,
    build_pi_bars,
    component_slot,
    compose_atom_pair,
    delta,
    graph,
    keeps_fiber,
    open_atom_label,
    open_atom_sort_key,
    open_graph,
    restrict_atom,
)
from .tensor import TensorExpr, _meet, _tensor_print, symmetrizers

TAtom = tuple  # (left_surface_atom, right_surface_atom, swap: bool)


def t_atom(left: Atom, right: Atom, swap: bool = False) -> TAtom | None:
    """None encodes the vanished two-vertical atom."""
    if left == VERT and right == VERT:
        return None
    return (left, right, swap)


class TCorr(LinComb):
    """Formal exact-rational combination of tensor atoms."""

    __slots__ = ()
    sort_key, label = _tensor_print(atom_sort_key, atom_label)

    @staticmethod
    def check(level, atoms) -> None:
        """Each atom (a, b, swap) holds surface atoms a and b of the level, not both V and neither a cusp product."""
        for a, b, swap in atoms:
            SurfCorr.check(level, (a, b))
            SurfCorr.check_factor(level, (a, b))
            if swap not in (False, True) or a == b == VERT:
                raise ValueError(f"unknown atom {(a, b, swap)!r}")


def compose_t_atom_pair(x: TAtom, y: TAtom, level: int) -> tuple[tuple[TAtom, int]] | None:
    """Factorwise composition of two tensor atoms."""
    lx, rx, ex = x
    fy, gy, swap = _meet(ex, *y)
    left = compose_atom_pair(lx, fy, level)
    if not left:
        return None
    right = compose_atom_pair(rx, gy, level)
    if not right:
        return None
    (la, lc), = left
    (ra, rc), = right
    atom = t_atom(la, ra, swap)
    if atom is None:
        return None
    return ((atom, lc * rc),)


def t_compose(after: TCorr, before: TCorr) -> TCorr:
    return product(after, before, compose_t_atom_pair)


# -- factored representation -----------------------------------------------------

def t_delta_expr(n: int) -> TensorExpr:
    return TensorExpr.pure(delta(n), delta(n))


def sigma_expr(n: int) -> TensorExpr:
    return TensorExpr.pure(delta(n), delta(n), swap=True)


def b_term_expr(n: int, j: int) -> TensorExpr:
    """Correction term b(j): half the vertical class in fiber slot j."""
    half_v = SurfCorr.of(n, VERT, Fraction(1, 2))
    if j == 1:
        return TensorExpr.pure(half_v, delta(n))
    return TensorExpr.pure(delta(n), half_v)


def pair_projector_expr(n: int, i1: int, i2: int) -> TensorExpr:
    """pi_i1 on fiber slot 1 and pi_i2 on slot 2."""
    bars = build_pi_bars(n)
    return TensorExpr.pure(bars[f"pi{i1}"], bars[f"pi{i2}"])


def split_sym_alt_exprs(n: int, memo: dict | None = None) -> tuple[TensorExpr, TensorExpr]:
    """(alt, sym) parts of the middle pair projector; memo as in `TensorExpr.compose`."""
    a2, s2 = symmetrizers(delta(n))
    p11 = pair_projector_expr(n, 1, 1)
    return a2.compose(p11, memo), s2.compose(p11, memo)


# -- divisor classes --------------------------------------------------------------

TDivKey = tuple

FIBER3: TDivKey = ("F3",)


def theta_int(c: int, m: int, n: int) -> TDivKey:
    return ("I", c, m, n)


def theta_half(c: int, p: int, q: int) -> TDivKey:
    """Component indexed by the half-integer pair (p + 1/2, q + 1/2)."""
    return ("H", c, p, q)


def t_div_sort_key(key: TDivKey) -> tuple:
    if key[0] == "F3":
        return (0, 0, 0, 0)
    rank = 1 if key[0] == "I" else 2
    return (rank, key[1], key[2], key[3])


def t_div_label(key: TDivKey) -> str:
    if key[0] == "F3":
        return "[fiber]"
    if key[0] == "I":
        return f"[Theta({key[1]};{key[2]},{key[3]})]"
    return f"[Theta({key[1]};{key[2]}+1/2,{key[3]}+1/2)]"


class ThreefoldDivClass(LinComb):
    """Rational combination of fiber and cusp-component classes."""

    __slots__ = ()
    sort_key = staticmethod(t_div_sort_key)
    label = staticmethod(t_div_label)
    ranges = staticmethod(  # a component over a cusp: the cusp, then its two indices
        lambda n: {"F3": (), **dict.fromkeys(("I", "H"), (range(cusp_count(n)), range(n), range(n)))})


def model_full_fiber(n: int, c: int) -> ThreefoldDivClass:
    """The fiber class as the action model sees it: the integer-indexed sheet.

    Collapse pullbacks never produce the exceptional quadric components
    (they cannot survive a collapse in either direction), so the class the
    total collapse pulls the identity component back to is the sum of the
    N^2 integer-indexed components.
    """
    return ThreefoldDivClass(n, {theta_int(c, m, k): 1 for m in range(n) for k in range(n)})


def _half_slot(satom: Atom, idx: int, level: int) -> list[int]:
    """Indices of the quadric components a factor sends half-integer index idx to."""
    kind = satom[0]
    if kind == "G":
        f: SurfEnd = satom[1]
        if f.collapse:
            return []
        if f.s == 1:
            return [(idx + f.b1) % level]
        return [(f.b1 - idx - 1) % level]
    # quadric components never survive a collapse in either direction,
    # and vertical factors annihilate them
    return []


def _slot_image(factor, idx: int, slot, level: int, memo: dict) -> dict:
    """{index: numerator}: the components a factor sends component idx of its slot to, over the factor's d.

    memo keeps every image for later calls.  It is keyed by the factor's
    id and holds the factor too, so that the id is not reused.
    """
    key = (id(factor), idx, slot)
    got = memo.get(key)
    if got is None:
        image = collect((i, v) for atom, v in factor.nums.items() for i in slot(atom, idx, level))
        got = memo[key] = (factor, image)
    return got[1]


def act_on_threefold_divisor(
    x: TensorExpr, z: ThreefoldDivClass, *, slot_images: dict | None = None
) -> ThreefoldDivClass:
    """x acting on z, one pure tensor (A, B, swap) of x at a time.

    A pure tensor acts as the tensor product of the slot actions of its two
    factors, and its swap exchanges the two indices of a component.  A
    factor keeps the fiber class with the sum of the coefficients of its
    atoms that keep it.  Each pure tensor is taken on integer numerators,
    over the lcm of the products A.d * B.d.  slot_images, when given, keeps
    the slot images of the factors for later calls, as the memo of
    `_slot_image`.
    """
    z.check_level(x)
    level = z.level
    if slot_images is None:
        slot_images = {}
    d = lcm(*(a.d * b.d for a, b, _ in x.nums))

    def images():
        for (left, right, swap), v in x.nums.items():
            u = v * (d // (left.d * right.d))
            for key, cz in z.nums.items():
                cc = u * cz
                kind = key[0]
                if kind == "F3":
                    kept = sum(w for a, w in left.nums.items() if keeps_fiber(a))
                    kept *= sum(w for b, w in right.nums.items() if keeps_fiber(b))
                    if kept:
                        yield FIBER3, cc * kept
                    continue
                _, cusp, m, k = key
                if swap:
                    m, k = k, m
                slot = component_slot if kind == "I" else _half_slot
                ms = _slot_image(left, m, slot, level, slot_images)
                if not ms:
                    continue
                ks = _slot_image(right, k, slot, level, slot_images)
                for i, ci in ms.items():
                    ci *= cc
                    for j, cj in ks.items():
                        yield (kind, cusp, i, j), (ci if cj == 1 else ci * cj)

    return ThreefoldDivClass.over(level, x.d * d * z.d, collect(images()))


# -- restriction to the open part --------------------------------------------------

OpenTAtom = tuple  # (left_open_atom, right_open_atom, swap)


class OpenTCorr(LinComb):
    """Open-part tensor correspondence: pairs of affine graphs with a swap."""

    __slots__ = ()
    sort_key, label = _tensor_print(open_atom_sort_key, open_atom_label)

    @staticmethod
    def check(level, atoms) -> None:
        """Each atom (a, b, swap) holds open atoms a and b of the level (`OpenCorr`) and a swap of False or True."""
        for a, b, swap in atoms:
            OpenCorr.check(level, (a, b))
            if swap not in (False, True):
                raise ValueError(f"unknown atom {(a, b, swap)!r}")


class _AtomMap(dict):
    """{atom: f(atom)}, f called once per atom read: the map of one row, dropped with it.

    f is the function bound when the map is made, so a map made inside a
    row reads the open-part maps as they are bound when that row runs.
    """

    __slots__ = ("f",)

    def __init__(self, f) -> None:
        super().__init__()
        self.f = f

    def __missing__(self, atom):
        got = self[atom] = self.f(atom)
        return got


def _restrict_t_atom(atom: TAtom, opened: dict) -> OpenTAtom | None:
    """(open(a), open(b), swap) for the atom (a, b, swap), each open atom read from opened; None if one is."""
    left, right, swap = atom
    lo, ro = opened[left], opened[right]
    if lo is None or ro is None:
        return None
    return (lo, ro, swap)


def restrict_to_open_t(x: TCorr) -> OpenTCorr:
    """Drop vertical-labeled atoms; send tensor factors to affine graphs, each read from `restrict_atom` once."""
    opened = _AtomMap(restrict_atom)
    return linear_map(x, lambda atom: _restrict_t_atom(atom, opened), OpenTCorr)


def _row_level(pairs: list[tuple[SurfCorr, SurfCorr]]) -> int:
    """The level of an open-part row's pairs of factors; no pairs, or factors of two levels, raise ValueError."""
    if not pairs:
        raise ValueError("an open-part row needs at least one pair of factors")
    level = pairs[0][0].level
    for a, b in pairs:
        if a.level != level or b.level != level:
            raise LevelMismatchError("factors of different levels in one open-part row")
    return level


def restriction_residual(a: SurfCorr, b: SurfCorr) -> OpenTCorr:
    """open(a (x) b) - open(a) (x) open(b), summed over the pairs of terms whose two atoms differ.

    Each pair (x, y) of a term of a and a term of b is built by `t_atom`
    and restricted by `_restrict_t_atom`, through the row's map of
    `restrict_atom`: its atom on the left side.  Its atom on the right
    side, the tensor product of the surface restrictions, is
    (open x, open y, False), each open atom read through
    `surface.restrict_atom` as `surface.restrict_to_open` reads it, or none
    when either lies over the cusps.  A pair adds ca cb at the first and
    -ca cb at the second only when the two differ, so when the law holds
    nothing is added, and otherwise the sum is the whole residual, term for
    term, whatever the atom maps do.  Both maps are read once per distinct
    surface atom, into maps that end with the row.
    """
    level = _row_level([(a, b)])
    opened, expected = _AtomMap(restrict_atom), _AtomMap(surface.restrict_atom)
    ys = [(y, cb, expected[y]) for y, cb in b.nums.items()]

    def differences():
        for x, ca in a.nums.items():
            ex = expected[x]
            for y, cb, ey in ys:
                atom = t_atom(x, y)
                got = None if atom is None else _restrict_t_atom(atom, opened)
                want = None if ex is None or ey is None else (ex, ey, False)
                if got != want:
                    if got is not None:
                        yield got, ca * cb
                    if want is not None:
                        yield want, -ca * cb

    return OpenTCorr.over(level, a.d * b.d, collect(differences()))


def parity_residual(pairs: list[tuple[SurfCorr, SurfCorr]], sign: int) -> TensorExpr:
    """inversion . g - sign g, for g the sum of open(a (x) b) over the pairs (a, b), as pure tensors of open factors.

    `t_atom` drops V (x) V before restriction, so open(a (x) b) is
    open(a) (x) open(b) less v_a v_b open(V) (x) open(V), v_a and v_b the
    V coefficients of a and b.  inversion = Graph(-1) (x) Graph(-1) is one
    pure tensor, so it acts factor by factor.  The row reads
    `restrict_atom` once per distinct surface atom, into a map that ends
    with the row.
    """
    level = _row_level(pairs)
    opened = _AtomMap(restrict_atom)
    restrict = partial(linear_map, f=opened.__getitem__, cls=OpenCorr)
    graded = TensorExpr(level, [(1, restrict(a), restrict(b), False) for a, b in pairs])
    vv = sum(Fraction(a.nums.get(VERT, 0), a.d) * Fraction(b.nums.get(VERT, 0), b.d) for a, b in pairs)
    if vv and opened[VERT] is not None:
        v = OpenCorr.over(level, 1, {opened[VERT]: 1})
        graded -= TensorExpr.pure(v, v).scale(vv)
    inv = OpenCorr.over(level, 1, {open_graph(mu_inv(level)): 1})
    return TensorExpr.pure(inv, inv).compose(graded) - graded.scale(sign)


# -- the structure identities -------------------------------------------------
#
# The laws of the projection phi and the zero section alpha between the total
# space and the base, each stated as a product of one-term TCorrs in normal
# form (see `verify_structure_identities`), so no arrow type is needed.


def total_collapse(n: int) -> TCorr:
    """mu(0,0): both fiber factors collapsed onto the zero section."""
    return TCorr.of(n, t_atom(graph(mu0(n)), graph(mu0(n))))


def verify_structure_identities(n: int) -> list[dict]:
    """Check the section/projection identities of phi and alpha, each as a `t_compose` product equal to mu00.

    A fiberwise map (a (x) b).swap^e is the one-term TCorr of the tensor
    atom (Graph(a), Graph(b), e); alpha, into the total space, is held by
    its map, the identity.  In normal form phi absorbs every fiberwise map
    (phi o f = phi), an arrow base -> base is the identity
    (phi o f o alpha = id), and alpha o phi is the total collapse mu00.  An
    identity into the base holds no map, so it is read through
    x -> alpha o x o phi and regrouped by associativity, with
    ap = alpha o phi = alpha . mu00:
        phi o alpha = id_base           becomes  ap . ap = mu00,
        phi o mu00 o alpha = id_base    becomes  ap . (mu00 . ap) = mu00,
    and mu00 o alpha o phi o mu00 = mu00 is mu00 . ap = mu00.
    """
    _check_level(n)
    ident = graph(surf_identity(n))
    alpha, mu00 = TCorr.of(n, t_atom(ident, ident)), total_collapse(n)
    ap = t_compose(alpha, mu00)
    cert = Certificate()
    for name, law, got in (
        ("section_property", "phi o alpha = id_base", t_compose(ap, ap)),
        ("retract_to_base", "phi o mu00 o alpha = id_base", t_compose(ap, t_compose(mu00, ap))),
        ("collapse_roundtrip", "mu00 o alpha o phi o mu00 = mu00", t_compose(mu00, ap)),
    ):
        cert.check(name, law, got, mu00)
    return cert.entries


# -- cusp-fiber incidence model and Euler number -----------------------------------

@dataclass(frozen=True)
class IncidenceComplex:
    """Stratified model of one cusp fiber of the threefold.

    Vertices are components: N^2 proper transforms (doubly ruled surfaces
    blown up at four points, Euler number 8) and N^2 exceptional quadrics
    (Euler number 4).  Edges are the intersection curves, all rational;
    triple points sit where two neighboring proper transforms meet a
    quadric.  Proper transforms differing by (1,1) are assumed disjoint
    after the blow-up.
    """

    level: int
    vertices: tuple
    edges: tuple
    triples: tuple

    def euler_by_strata(self) -> int:
        total = sum(e for _, _, e in self.vertices)
        total -= sum(e for _, _, e in self.edges)
        total += len(self.triples)
        return total

    def to_json(self) -> dict:
        adjacency: dict[str, list[str]] = {}

        def vname(v) -> str:
            kind, a, b = v
            if kind == "T":
                return f"T({a},{b})"
            return f"Q({a}+1/2,{b}+1/2)"

        for v, _, _ in self.vertices:
            adjacency[vname(v)] = []
        for va, vb, _ in self.edges:
            adjacency[vname(va)].append(vname(vb))
            adjacency[vname(vb)].append(vname(va))
        for key in adjacency:
            adjacency[key] = sorted(adjacency[key])
        return {
            "level": self.level,
            "component_count": len(self.vertices),
            "edge_count": len(self.edges),
            "triple_point_count": len(self.triples),
            "euler_number": self.euler_by_strata(),
            "adjacency": dict(sorted(adjacency.items())),
        }


def cusp_incidence(n: int) -> IncidenceComplex:
    _check_level(n)
    vertices = []
    for m in range(n):
        for k in range(n):
            vertices.append((("T", m, k), "proper_transform", 8))
    for p in range(n):
        for q in range(n):
            vertices.append((("Q", p, q), "quadric", 4))
    edges = []
    for m in range(n):
        for k in range(n):
            # neighboring proper transforms share a rational curve
            edges.append((("T", m, k), ("T", (m + 1) % n, k), 2))
            edges.append((("T", m, k), ("T", m, (k + 1) % n), 2))
    for p in range(n):
        for q in range(n):
            quad = ("Q", p, q)
            for dm in (0, 1):
                for dk in (0, 1):
                    edges.append((quad, ("T", (p + dm) % n, (q + dk) % n), 2))
    triples = []
    for p in range(n):
        for q in range(n):
            quad = ("Q", p, q)
            t00 = ("T", p, q)
            t10 = ("T", (p + 1) % n, q)
            t01 = ("T", p, (q + 1) % n)
            t11 = ("T", (p + 1) % n, (q + 1) % n)
            # corners of the quadrilateral of lines on the quadric
            triples.append((quad, t00, t10))
            triples.append((quad, t10, t11))
            triples.append((quad, t11, t01))
            triples.append((quad, t01, t00))
    return IncidenceComplex(n, tuple(vertices), tuple(edges), tuple(triples))


def euler_fiber(n: int) -> int:
    """Euler number of one cusp fiber by inclusion-exclusion over strata."""
    return cusp_incidence(n).euler_by_strata()


def estimate_n(n: int) -> dict:
    """Two experimental estimates of the middle Lefschetz multiplicity.

    The Euler route solves the alternating-sum identity with the known
    odd-degree dimensions; the lattice route counts independent vertical
    component classes (all components per cusp minus one relation) plus
    the four horizontal classes.  Both are extensions beyond what is
    proved and are flagged experimental everywhere they appear.
    """
    inv = level_invariants(n)
    ef = euler_fiber(n)
    e_total = inv.cusp_count * ef
    # e = 2 - 10 g + 2 n + 8 s3 - 2 s4
    twice_n = e_total - 2 + 10 * inv.genus - 8 * inv.s3 + 2 * inv.s4
    n_euler, rem = divmod(twice_n, 2)
    components = 2 * n * n
    n_lattice = 4 + inv.cusp_count * (components - 1)
    return {
        "experimental": True,
        "euler_fiber": ef,
        "euler_fiber_closed_form": 4 * n * n,
        "euler_total": e_total,
        "n_euler": n_euler if rem == 0 else None,
        "n_lattice": n_lattice,
        "consistent": rem == 0 and n_euler == n_lattice,
        "positive_integer": rem == 0 and n_euler > 0,
    }


# -- certificate --------------------------------------------------------------------

def threefold_certificate(n: int) -> list[dict]:
    """Idempotency, orthogonality, transpose, restriction and action checks."""
    _check_level(n)
    cert = Certificate()
    products: dict = {}  # surface products of this certificate only, so a later fault still shows
    slot_images: dict = {}  # likewise the slot images of divisor actions

    def mul(x: TensorExpr, y: TensorExpr) -> TensorExpr:
        return x.compose(y, products)

    def act(x: TensorExpr, z: ThreefoldDivClass) -> ThreefoldDivClass:
        return act_on_threefold_divisor(x, z, slot_images=slot_images)

    check = partial(cert.check, cls=TCorr)

    # one set of factors for every pair projector, built as `pair_projector_expr` builds it
    bars = build_pi_bars(n)
    exprs: dict[str, TensorExpr] = {}
    for i1 in range(3):
        for i2 in range(3):
            exprs[f"pi({i1},{i2})"] = TensorExpr.pure(bars[f"pi{i1}"], bars[f"pi{i2}"])
    alt_expr, sym_expr = split_sym_alt_exprs(n, products)
    exprs["alt(1,1)"] = alt_expr
    exprs["sym(1,1)"] = sym_expr

    pair_names = [f"pi({i1},{i2})" for i1 in range(3) for i2 in range(3)]
    zero = TensorExpr(n)

    # pairwise products among the nine pair projectors
    for na in pair_names:
        for nb in pair_names:
            want = exprs[na] if na == nb else zero
            law = f"{na} . {nb} = {na if na == nb else '0'}"
            check(f"kronecker:{na}.{nb}", law, mul(exprs[na], exprs[nb]), want)

    # the split parts: idempotent, orthogonal, summing to the middle projector
    for na in ("alt(1,1)", "sym(1,1)"):
        check(f"split:idempotent:{na}", f"{na} . {na} = {na}", mul(exprs[na], exprs[na]), exprs[na])
    check("split:orthogonal", "alt(1,1) . sym(1,1) = 0", mul(exprs["alt(1,1)"], exprs["sym(1,1)"]), zero)
    check("split:orthogonal_rev", "sym(1,1) . alt(1,1) = 0", mul(exprs["sym(1,1)"], exprs["alt(1,1)"]), zero)
    check("split:sum", "alt(1,1) + sym(1,1) = pi(1,1)", exprs["alt(1,1)"] + exprs["sym(1,1)"], exprs["pi(1,1)"])
    a2, _s2 = symmetrizers(delta(n))
    check("split:a2_commutes", "A2 . pi(1,1) = pi(1,1) . A2", mul(a2, exprs["pi(1,1)"]), mul(exprs["pi(1,1)"], a2))
    for na in ("alt(1,1)", "sym(1,1)"):
        for nb in pair_names:
            if nb == "pi(1,1)":
                continue
            check(f"split:orthogonal:{na}.{nb}", f"{na} . {nb} = 0", mul(exprs[na], exprs[nb]), zero)
            check(f"split:orthogonal:{nb}.{na}", f"{nb} . {na} = 0", mul(exprs[nb], exprs[na]), zero)

    # transpose symmetry
    for i1 in range(3):
        for i2 in range(3):
            check(
                f"transpose:pi({i1},{i2})",
                f"t(pi({i1},{i2})) = pi({2 - i1},{2 - i2})",
                exprs[f"pi({i1},{i2})"].transpose(),
                exprs[f"pi({2 - i1},{2 - i2})"],
            )
    for na in ("alt(1,1)", "sym(1,1)"):
        check(f"transpose:{na}", f"t({na}) = {na}", exprs[na].transpose(), exprs[na])

    # swap equivariance
    sig = sigma_expr(n)
    for i1 in range(3):
        for i2 in range(3):
            check(
                f"swap:pi({i1},{i2})",
                f"sigma . pi({i1},{i2}) . sigma = pi({i2},{i1})",
                mul(mul(sig, exprs[f"pi({i1},{i2})"]), sig),
                exprs[f"pi({i2},{i1})"],
            )

    # residual projector
    pif = reduce(add, (exprs[name] for name in pair_names))
    pinf = t_delta_expr(n) - pif
    check("residual:idempotent", "piInf . piInf = piInf", mul(pinf, pinf), pinf)
    check("residual:transpose", "t(piInf) = piInf", pinf.transpose(), pinf)
    for na in pair_names + ["alt(1,1)", "sym(1,1)"]:
        check(f"residual:piInf.{na}", f"piInf . {na} = 0", mul(pinf, exprs[na]), zero)
        check(f"residual:{na}.piInf", f"{na} . piInf = 0", mul(exprs[na], pinf), zero)

    # restriction to the open part factors through the surface restrictions: that law
    # is about factoring, so its left side is the expanded projector, restricted atom by
    # atom; the residual sums only the pairs of terms whose two atoms differ
    for i1 in range(3):
        for i2 in range(3):
            cert.check(
                f"restriction:pi({i1},{i2})",
                f"open(pi({i1},{i2})) = open(pi{i1}) (x) open(pi{i2})",
                restriction_residual(bars[f"pi{i1}"], bars[f"pi{i2}"]),
                OpenTCorr(n),
            )
    for j in (1, 2):
        cert.check(
            f"restriction:b({j})",
            f"open(b({j})) = 0",
            restrict_to_open_t(b_term_expr(n, j).expand(TCorr)),
            OpenTCorr(n),
        )
    # parity grading of the restricted projectors under both inversions
    for i in range(5):
        pairs = [(bars[f"pi{i1}"], bars[f"pi{i - i1}"]) for i1 in range(3) if 0 <= i - i1 < 3]
        cert.check(
            f"restriction:parity:{i}",
            f"inversion . (sum of open pi with i1+i2={i}) = (-1)^{i} (same)",
            parity_residual(pairs, (-1) ** i),
            TensorExpr(n),
            OpenTCorr,
        )

    # divisor action rows
    f3 = ThreefoldDivClass.of(n, FIBER3)
    cert.check(
        "action:pi(0,0):fiber",
        "pi(0,0)[fiber] = [fiber]",
        act(exprs["pi(0,0)"], f3),
        f3,
    )
    for na in pair_names:
        if na == "pi(0,0)":
            continue
        cert.check(
            f"action:{na}:fiber",
            f"{na}[fiber] = 0",
            act(exprs[na], f3),
            ThreefoldDivClass(n),
        )
    ident = ThreefoldDivClass.of(n, theta_int(0, 0, 0))
    cert.check(
        "action:pi(0,0):Theta(0;0,0)",
        "pi(0,0)[Theta(0;0,0)] = full integer-indexed fiber sheet",
        act(exprs["pi(0,0)"], ident),
        model_full_fiber(n, 0),
    )
    sample_components = [theta_int(0, m, k) for m in range(n) for k in range(n)]
    sample_components += [theta_half(0, p, q) for p in range(n) for q in range(n)]
    bad = ""
    for key in sample_components:
        if key[0] == "I" and (key[2], key[3]) == (0, 0):
            continue
        z = ThreefoldDivClass.of(n, key)
        for na in pair_names:
            got = act(exprs[na], z)
            if not got.is_zero():
                bad = f"{na}{t_div_label(key)} = {got.render()}"
                break
        if bad:
            break
    cert.record(
        "action:components_annihilated",
        "pi(i1,i2)[every non-identity component over cusp 0] = 0",
        not bad,
        bad,
    )
    # residual acts as the identity wherever the finite part acts as zero
    t_delta = t_delta_expr(n)
    detail = ""
    for key in sample_components:
        z = ThreefoldDivClass.of(n, key)
        killed = act(pif, z)
        if killed.is_zero() and act(t_delta, z) - killed != z:
            detail = f"failed at {t_div_label(key)}"
            break
    cert.record(
        "action:residual_identity",
        "(Delta - piF)[every component piF kills] = [component]",
        not detail,
        detail,
    )
    return cert.entries
