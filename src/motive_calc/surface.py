"""Correspondence algebra of the compactified elliptic modular surface.

A correspondence is an exact-rational combination of four kinds of atoms:
graphs of fiberwise endomorphisms, transposed graphs of collapses, the
vertical class V (pullback of the pushed-down self-intersection of the
zero section), and products of cusp-fiber components.  Composition is the
bilinear extension of a closed rewrite table; each rule beyond the graph
functoriality laws is derived from the pushforward/pullback composition
formulas and the product-correspondence formula
    (Z x W) o (X x Y) = (Y . Z) (X x W),
with (Y . Z) the N-gon intersection pairing.  The derivations are noted
rule by rule below, and the whole table is cross-checked by the
associativity and action-coherence test suites.

`compose` does not send every atom pair through the table.  Two
automorphism graphs meet through `aut_table`, the rule tabulated once per
level on the indices of their group elements, so such a pair is an
integer lookup.  A graph, tGraph or V atom acts on a component product
only through a key (`after_key`, `before_key`), so the atoms that share a
key are summed first and one representative per key meets the component
products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain

from .endos import AffEnd, SurfEnd, aff_compose, aff_end, mu0, surf_compose, surf_end, surf_identity
from .exact import LinearCoeff, RatMatrix, mat_inverse, mat_rank
from .groups import enumerate_g, epsilon_projector, lambda_theta
from .levels import _check_level, cusp_count
from .sums import Certificate, LinComb, bilinear, collect, integral, linear_map, rationalize

Atom = tuple


class UnsupportedCompositionError(ValueError):
    """A composition outside the closed rule table was requested."""


# -- atoms -------------------------------------------------------------------

def graph(f: SurfEnd) -> Atom:
    return ("G", f)


VERT: Atom = ("V",)


def cusp_prod(c: int, m: int, n: int) -> Atom:
    return ("C", c, m, n)


_KIND_RANK = {"G": 0, "T": 1, "V": 2, "C": 3}


def atom_sort_key(atom: Atom) -> tuple:
    kind = atom[0]
    rank = _KIND_RANK[kind]
    if kind in ("G", "T"):
        e: SurfEnd = atom[1]
        return (rank, int(e.collapse), e.b1, e.b2, -e.s)
    if kind == "V":
        return (rank, 0, 0, 0, 0)
    return (rank, atom[1], atom[2], atom[3])


def atom_label(atom: Atom) -> str:
    kind = atom[0]
    if kind == "G":
        return f"Graph({atom[1].label()})"
    if kind == "T":
        return f"tGraph({atom[1].label()})"
    if kind == "V":
        return "V"
    return f"CP({atom[1]};{atom[2]},{atom[3]})"


# -- the Neron N-gon lattice --------------------------------------------------

def an_entry(n: int, i: int, j: int) -> int:
    """Intersection number of cusp-fiber components i and j (cyclic N-gon)."""
    d = (i - j) % n
    if d == 0:
        return -2
    if d == 1 or d == n - 1:
        return 1
    return 0


@dataclass(frozen=True)
class NeronLattice:
    level: int
    full_matrix: RatMatrix
    rank: int
    reduced_block: RatMatrix
    reduced_inverse: RatMatrix

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "full_matrix": self.full_matrix.to_json(),
            "rank": self.rank,
            "reduced_block": self.reduced_block.to_json(),
            "reduced_inverse": self.reduced_inverse.to_json(),
        }


@lru_cache(maxsize=None)
def neron_lattice(n: int) -> NeronLattice:
    _check_level(n)
    full = RatMatrix([[an_entry(n, i, j) for j in range(n)] for i in range(n)])
    reduced = full.submatrix(range(1, n), range(1, n))
    return NeronLattice(
        level=n,
        full_matrix=full,
        rank=mat_rank(full),
        reduced_block=reduced,
        reduced_inverse=mat_inverse(reduced),
    )


# -- formal sums ---------------------------------------------------------------

class SurfCorr(LinComb):
    """Formal exact-rational combination of surface atoms."""

    __slots__ = ()
    sort_key = staticmethod(atom_sort_key)
    label = staticmethod(atom_label)

    def __mul__(self, other: "SurfCorr") -> "SurfCorr":
        """self o other, by this module's `compose` as bound at the call, so a patched one is used."""
        return compose(self, other)


# -- transposition -------------------------------------------------------------

def transpose_atom(atom: Atom) -> Atom:
    kind = atom[0]
    if kind == "G":
        f: SurfEnd = atom[1]
        return ("T", f) if f.collapse else ("G", f.inv())
    if kind == "T":
        return ("G", atom[1])
    if kind == "V":
        return VERT
    return ("C", atom[1], atom[3], atom[2])


def transpose(x: SurfCorr) -> SurfCorr:
    return linear_map(x, transpose_atom)


# -- composition rule table -----------------------------------------------------
#
# Naming: compose(after, before) = after o before.  Derivations:
#   R1/R2  graph functoriality (transposes compose contravariantly).
#   R3/R4  convert the automorphism side to the opposite species via
#          Graph(g) = tGraph(g^-1); a collapse against a collapse is the
#          excess-intersection class: zero in one order (image has the
#          wrong dimension), V in the other when the two sections agree.
#   R5-R8  V is a sum of full fiber squares: automorphisms fix it,
#          pushing it through a collapse drops dimension, pulling the
#          fiber class back through any fiberwise map returns it, and
#          V o V = 0 (V is nilpotent of order two).
#   R9     product-correspondence formula with the N-gon pairing.
#   R10/R11  push/pull a component product through a graph: the free slot
#          is acted on by the component index action (translations shift
#          by the first coordinate, inversion negates); pulling through a
#          collapse expands the matching component to the full fiber.
#   R12/R13  same for transposed collapse graphs on the other slot.
#   R14    a component product against V pairs a cusp component with the
#          full fiber class, and every such pairing is a zero row sum.


def compose_atom_pair(x: Atom, y: Atom, level: int) -> list[tuple[Atom, int]] | None:
    """after=x composed with before=y; None means zero."""
    kx = x[0]
    ky = y[0]
    if kx == "G":
        f: SurfEnd = x[1]
        if ky == "G":
            return [(("G", surf_compose(f, y[1])), 1)]  # R1
        if ky == "T":
            if f.collapse:
                return None  # R3: (f x c)_* of the diagonal drops dimension
            return [(("T", surf_compose(y[1], f.inv())), 1)]  # R3
        if ky == "V":
            return None if f.collapse else [(VERT, 1)]  # R5
        # R10
        if f.collapse:
            return None
        c, m, n = y[1], y[2], y[3]
        return [(("C", c, m, (f.b1 + f.s * n) % level), 1)]
    if kx == "T":
        cend: SurfEnd = x[1]
        if ky == "G":
            f = y[1]
            if f.collapse:
                # R4: equal sections give the vertical class, else disjoint
                if (cend.b1, cend.b2) == (f.b1, f.b2):
                    return [(VERT, 1)]
                return None
            return [(("T", surf_compose(f.inv(), cend)), 1)]  # R4
        if ky == "T":
            return [(("T", surf_compose(y[1], cend)), 1)]  # R2
        if ky == "V":
            return [(VERT, 1)]  # R7
        # R12: pullback expands the matching component to the full fiber
        c, m, n = y[1], y[2], y[3]
        if n == cend.b1:
            return [(("C", c, m, k), 1) for k in range(level)]
        return None
    if kx == "V":
        if ky == "G":
            return [(VERT, 1)]  # R6
        if ky == "T":
            return None  # R7
        return None  # R8 (V o V) and R14 (V o CP)
    # kx == "C"
    cx, mx, nx = x[1], x[2], x[3]
    if ky == "C":
        cy, my, ny = y[1], y[2], y[3]
        if cx != cy:
            return None  # distinct cusp fibers are disjoint
        pairing = an_entry(level, ny, mx)  # R9
        if not pairing:
            return None
        return [(("C", cx, my, nx), pairing)]
    if ky == "G":
        f = y[1]
        if f.collapse:
            # R11 collapse: pull the first slot back through the collapse
            if mx == f.b1:
                return [(("C", cx, k, nx), 1) for k in range(level)]
            return None
        # R11: the first slot is pulled back through f, i.e. pushed through f^-1: m -> s(m - b1)
        return [(("C", cx, (f.s * (mx - f.b1)) % level, nx), 1)]
    if ky == "T":
        return None  # R13
    return None  # R14 (CP o V)


def _split(terms: list, auts: dict) -> tuple[list, list, dict]:
    """(automorphism graph terms, other graph/tGraph/V terms, component product terms per cusp).

    auts is `aut_index`: its graphs meet each other through `aut_table`.
    Component products only meet their own cusp.
    """
    aut: list = []
    other: list = []
    by_cusp: dict[int, list] = {}
    for term in terms:
        atom = term[0]
        if atom[0] == "C":
            by_cusp.setdefault(atom[1], []).append(term)
        elif atom in auts:
            aut.append(term)
        else:
            other.append(term)
    return aut, other, by_cusp


@lru_cache(maxsize=None)
def aut_index(level: int) -> dict[Atom, int]:
    """The 2N^2 automorphism graphs numbered in `enumerate_g` order, as their group elements in `g_table`."""
    return {graph(surf_end(level, g.b1, g.b2, g.s)): i for i, g in enumerate(enumerate_g(level))}


@lru_cache(maxsize=None)
def aut_table(level: int, rule) -> tuple[list[Atom], list[list[tuple]]]:
    """`rule` on every pair of automorphism graphs, tabulated on ids: (atoms, rows).

    rows[i][j] is what rule(atoms[i], atoms[j], level) returned, written as
    (atom id, multiplier) pairs; ids 0..2N^2-1 are those of `aut_index`,
    and an atom the rule produces outside them gets an id after them.
    Equal entries are one shared tuple.  The table is built from the rule
    it is given, not from the product rows of `g_table`, so a patched rule
    gets its own table.
    """
    index = dict(aut_index(level))
    atoms = list(index)
    shared: dict = {}

    def entry(x: Atom, y: Atom) -> tuple:
        ids = []
        for atom, k in rule(x, y, level) or ():
            i = index.get(atom)
            if i is None:
                i = index[atom] = len(atoms)
                atoms.append(atom)
            ids.append((i, k))
        ids = tuple(ids)
        return shared.setdefault(ids, ids)

    auts = atoms[:]
    return atoms, [[entry(x, y) for y in auts] for x in auts]


def _aut_product(xs: list, ys: list, index: dict, table: tuple) -> list:
    """The summed products of automorphism graph terms (atom, v), read from `aut_table`.

    index is `aut_index`.  The numerators are summed on integer ids, as
    `groups._g_product` does; only the atoms of the result are decoded.
    """
    atoms, rows = table
    ys = [(index[b], v) for b, v in ys]
    out: dict = {}
    get = out.get
    for a, u in xs:
        row = rows[index[a]]
        for j, v in ys:
            for k, m in row[j]:
                out[k] = get(k, 0) + u * v * m
    return [(atoms[k], v) for k, v in out.items() if v]


def after_key(atom: Atom) -> tuple | None:
    """What a graph, tGraph or V atom after a component product acts through (R10, R12).

    None when the rule gives 0: a collapse or V.
    """
    kind = atom[0]
    if kind == "G":
        f: SurfEnd = atom[1]
        return None if f.collapse else ("G", f.b1, f.s)
    if kind == "T":
        return ("T", atom[1].b1)
    return None


def before_key(atom: Atom) -> tuple | None:
    """What a graph, tGraph or V atom before a component product acts through (R11).

    None when the rule gives 0: a tGraph (R13) or V (R14).
    """
    if atom[0] == "G":
        f: SurfEnd = atom[1]
        return ("G", f.b1, f.s, f.collapse)
    return None


def by_key(terms: list, key) -> list:
    """One representative atom per key, with the summed numerators of the atoms sharing it.

    Keys whose numerators cancel, and atoms without a key, drop out.
    """
    summed: dict = {}
    for atom, v in terms:
        k = key(atom)
        if k is None:
            continue
        slot = summed.get(k)
        if slot is None:
            summed[k] = [atom, v]
        else:
            slot[1] += v
    return [(atom, v) for atom, v in summed.values() if v]


def compose(after: SurfCorr, before: SurfCorr) -> SurfCorr:
    """after o before: automorphism graph pairs read `aut_table`, graph atoms meet component products by key.

    Two automorphism graphs meet through the tabulated rule, on integer ids.
    A graph, tGraph or V atom acts on a component product only through
    `after_key` or `before_key`, so the atoms that share a key are paired
    once, through one representative.  The other graph pairs and R9 pairs
    on one cusp run atom by atom.
    """
    after.check_level(before)
    level = after.level
    rule = compose_atom_pair  # looked up at each call, so a patched rule is used
    dx, xs = integral(after.terms)
    dy, ys = integral(before.terms)
    auts = aut_index(level)
    x_aut, x_other, x_cusp = _split(xs, auts)
    y_aut, y_other, y_cusp = _split(ys, auts)
    pairs = [bilinear(x_other, y_aut + y_other, rule, level), bilinear(x_aut, y_other, rule, level)]
    if x_aut and y_aut:
        pairs.append(_aut_product(x_aut, y_aut, auts, aut_table(level, rule)))
    if y_cusp and (x_aut or x_other):
        y_cusps = list(chain.from_iterable(y_cusp.values()))
        pairs.append(bilinear(by_key(x_aut + x_other, after_key), y_cusps, rule, level))
    y_keyed = by_key(y_aut + y_other, before_key) if x_cusp else []
    pairs += [bilinear(bucket, y_keyed + y_cusp.get(cusp, []), rule, level) for cusp, bucket in x_cusp.items()]
    return SurfCorr._make(level, rationalize(collect(chain.from_iterable(pairs)), dx * dy))


# -- named projectors -----------------------------------------------------------

def delta(n: int) -> SurfCorr:
    return SurfCorr.of(n, graph(surf_identity(n)))


def group_ring_to_corr(element) -> SurfCorr:
    """Image of a group-ring element under g -> Graph(g)."""
    level = None
    terms = {}
    for g, c in element.terms.items():
        level = g.level
        terms[graph(surf_end(g.level, g.b1, g.b2, g.s, False))] = c
    if level is None:
        raise ValueError("cannot infer the level of an empty group-ring element")
    return SurfCorr(level, terms)


def epsilon_graph_sum(n: int) -> SurfCorr:
    """(1/2N^2) sum over G of eps(g) Graph(g); image of the group-ring projector."""
    return group_ring_to_corr(epsilon_projector(n))


@lru_cache(maxsize=None)
def _pi_bars(n: int) -> tuple[SurfCorr, SurfCorr, SurfCorr]:
    _check_level(n)
    half = Fraction(1, 2)
    m0 = mu0(n)
    pi0 = SurfCorr(n, {("T", m0): Fraction(1), VERT: -half})
    pi2 = SurfCorr(n, {("G", m0): Fraction(1), VERT: -half})
    return pi0, epsilon_graph_sum(n), pi2


def build_pi_bars(n: int) -> dict[str, SurfCorr]:
    """pi0 = tGraph(mu0) - V/2, pi2 = Graph(mu0) - V/2, pi1 = sign-character average.

    The three sums are made once per level, so every caller holds the same
    objects; the dict is new at each call.
    """
    return dict(zip(("pi0", "pi1", "pi2"), _pi_bars(n)))


def build_pi_cusp(n: int, c: int) -> SurfCorr:
    """Dual-basis combination of component products over one cusp fiber."""
    _check_level(n)
    if not 0 <= c < cusp_count(n):
        raise ValueError(f"cusp index {c} out of range")
    inv = neron_lattice(n).reduced_inverse
    terms = {}
    for m in range(1, n):
        for k in range(1, n):
            coeff = inv[m - 1, k - 1]
            if coeff:
                terms[cusp_prod(c, m, k)] = coeff
    return SurfCorr(n, terms)


def build_pi_f(n: int) -> SurfCorr:
    bars = build_pi_bars(n)
    return bars["pi0"] + bars["pi1"] + bars["pi2"]


def build_pi_inf(n: int) -> SurfCorr:
    return delta(n) - build_pi_f(n)


# -- divisor classes and the action table ---------------------------------------

DivKey = tuple

GENERIC_FIBER: DivKey = ("F",)


def sec_key(b1: int, b2: int) -> DivKey:
    return ("S", b1, b2)


def theta_key(c: int, m: int) -> DivKey:
    return ("Th", c, m)


def div_sort_key(key: DivKey) -> tuple:
    kind = key[0]
    if kind == "F":
        return (0, 0, 0)
    if kind == "S":
        return (1, key[1], key[2])
    return (2, key[1], key[2])


def div_label(key: DivKey) -> str:
    if key[0] == "F":
        return "[fiber]"
    if key[0] == "S":
        return f"[sec({key[1]},{key[2]})]"
    return f"[theta({key[1]};{key[2]})]"


def _linear_coeff(c) -> LinearCoeff:
    return c if isinstance(c, LinearCoeff) else LinearCoeff.of(c)


class DivClass(LinComb):
    """Formal combination of divisor basis classes with linear-in-d_a coefficients."""

    __slots__ = ()
    sort_key = staticmethod(div_sort_key)
    label = staticmethod(div_label)
    fmt = staticmethod(lambda c: f"({c})")
    cast = staticmethod(_linear_coeff)


def full_cusp_fiber(n: int, c: int) -> DivClass:
    return DivClass(n, {theta_key(c, m): 1 for m in range(n)})


def component_slot(atom: Atom, m: int, level: int) -> tuple | range:
    """Indices of the components a graph, tGraph or V sends cusp component m to.

    Automorphisms act on the index; a collapse pushes components to points and
    its transpose pulls component b1 back to the whole fiber; V meets none.
    """
    kind = atom[0]
    if kind == "G":
        f: SurfEnd = atom[1]
        return () if f.collapse else ((f.b1 + f.s * m) % level,)
    if kind == "T":
        return range(level) if m == atom[1].b1 else ()
    return ()


def keeps_fiber(atom: Atom) -> bool:
    """Whether a graph, tGraph or V sends the fiber class to itself rather than to 0."""
    kind = atom[0]
    return kind == "T" or (kind == "G" and not atom[1].collapse)


def act_atom_on_key(atom: Atom, key: DivKey, level: int) -> list[tuple[DivKey, int | LinearCoeff]]:
    """One atom acting on one divisor basis class."""
    kind = atom[0]
    if kind == "C":
        # cusp product: z -> (z . theta_c(m)) theta_c(n)
        c, m, n_idx = atom[1], atom[2], atom[3]
        if key[0] == "F":
            return []  # fiber class meets every cusp component in degree zero
        if key[0] == "S":
            if key[1] == m:
                # a section meets the cusp fiber once, on the component named
                # by its first coordinate
                return [(theta_key(c, n_idx), 1)]
            return []
        if key[1] != c:
            return []
        pairing = an_entry(level, key[2], m)
        if not pairing:
            return []
        return [(theta_key(c, n_idx), pairing)]
    if key[0] == "F":
        return [(GENERIC_FIBER, 1)] if keeps_fiber(atom) else []
    if key[0] == "Th":
        return [(theta_key(key[1], k), 1) for k in component_slot(atom, key[2], level)]
    # key is a section class
    if kind == "G":
        f: SurfEnd = atom[1]
        if f.collapse:
            return [(sec_key(f.b1, f.b2), 1)]
        return [(sec_key((f.b1 + f.s * key[1]) % level, (f.b2 + f.s * key[2]) % level), 1)]
    if kind == "T":
        cend: SurfEnd = atom[1]
        if (key[1], key[2]) == (cend.b1, cend.b2):
            # section against itself: d_a times the fiber class
            return [(GENERIC_FIBER, LinearCoeff.d_a())]
        return []
    # V: z -> d_a (z . fiber) fiber; only sections meet the fiber
    return [(GENERIC_FIBER, LinearCoeff.d_a())]


def act_on_divisor(x: SurfCorr, z: DivClass) -> DivClass:
    x.check_level(z)
    terms = collect(bilinear(x.terms.items(), z.terms.items(), act_atom_on_key, x.level))
    return DivClass._make(x.level, terms)


# -- restriction to the open part ------------------------------------------------

def aff_of(f: SurfEnd) -> AffEnd:
    """Restrict a fiberwise endomorphism to the open part."""
    if f.collapse:
        return aff_end(f.level, 0, f.b1, f.b2)
    return aff_end(f.level, f.s, f.b1, f.b2)


OpenAtom = tuple


def open_graph(a: AffEnd) -> OpenAtom:
    return ("g", a)


def open_tgraph(a: AffEnd) -> OpenAtom:
    # the transposed graph of a degree-one map is the graph of its inverse
    if a.is_automorphism():
        return ("g", a.inv())
    return ("t", a)


def open_atom_sort_key(atom: OpenAtom) -> tuple:
    species, a = atom
    return (0 if species == "g" else 1, a.n, a.b1, a.b2)


def open_atom_label(atom: OpenAtom) -> str:
    species, a = atom
    return f"Graph({a.label()})" if species == "g" else f"tGraph({a.label()})"


class OpenCorr(LinComb):
    """Formal combination of open-part graphs and transposed graphs."""

    __slots__ = ()
    sort_key = staticmethod(open_atom_sort_key)
    label = staticmethod(open_atom_label)


def compose_open_atoms(x: OpenAtom, y: OpenAtom) -> OpenAtom:
    """after=x, before=y; mixed species need an invertible side."""
    sx, ax = x
    sy, ay = y
    if sx == "g" and sy == "g":
        return ("g", aff_compose(ax, ay))
    if sx == "t" and sy == "t":
        return open_tgraph(aff_compose(ay, ax))
    if sx == "g" and sy == "t":
        if ax.is_automorphism():
            return open_tgraph(aff_compose(ay, ax.inv()))
        raise UnsupportedCompositionError("graph o tgraph with no invertible side")
    # sx == "t", sy == "g"
    if ay.is_automorphism():
        return open_tgraph(aff_compose(ay.inv(), ax))
    if ax.is_automorphism():
        return ("g", aff_compose(ax.inv(), ay))
    raise UnsupportedCompositionError("tgraph o graph with no invertible side")


def restrict_atom(atom: Atom) -> OpenAtom | None:
    """The open-part atom of a graph or transposed graph; None over the cusps."""
    kind = atom[0]
    if kind == "G":
        return open_graph(aff_of(atom[1]))
    if kind == "T":
        return open_tgraph(aff_of(atom[1]))
    return None  # V and cusp products are supported over the cusps


def restrict_to_open(x: SurfCorr) -> OpenCorr:
    """Kill everything supported over the cusps; keep graphs as affine graphs."""
    return linear_map(x, restrict_atom, OpenCorr)


# -- certificate -----------------------------------------------------------------

def surface_certificate(n: int) -> list[dict]:
    """Every composition/orthogonality/action identity for the surface projectors."""
    _check_level(n)
    bars = build_pi_bars(n)
    cusps = [build_pi_cusp(n, c) for c in range(cusp_count(n))]
    named: list[tuple[str, SurfCorr]] = [(k, bars[k]) for k in ("pi0", "pi1", "pi2")]
    named += [(f"piC({c})", pc) for c, pc in enumerate(cusps)]
    pi_f = build_pi_f(n)
    pi_inf = delta(n) - pi_f

    cert = Certificate()
    check = cert.equal

    # Kronecker pattern over the full projector list
    for (name_a, pa) in named:
        for (name_b, pb) in named:
            product = compose(pa, pb)
            want = pa if name_a == name_b else SurfCorr.zero(n)
            law = f"{name_a} . {name_b} = {name_a if name_a == name_b else '0'}"
            check(f"kronecker:{name_a}.{name_b}", law, product, want)

    # transpose symmetry
    check("transpose:pi0", "t(pi0) = pi2", transpose(bars["pi0"]), bars["pi2"])
    check("transpose:pi1", "t(pi1) = pi1", transpose(bars["pi1"]), bars["pi1"])
    for c, pc in enumerate(cusps):
        check(f"transpose:piC({c})", f"t(piC({c})) = piC({c})", transpose(pc), pc)

    # residual projector
    check("residual:idempotent", "piInf . piInf = piInf", compose(pi_inf, pi_inf), pi_inf)
    check("residual:transpose", "t(piInf) = piInf", transpose(pi_inf), pi_inf)
    for name_a, pa in named[:3]:
        check(
            f"residual:piInf.{name_a}",
            f"piInf . {name_a} = 0",
            compose(pi_inf, pa),
            SurfCorr.zero(n),
        )
        check(
            f"residual:{name_a}.piInf",
            f"{name_a} . piInf = 0",
            compose(pa, pi_inf),
            SurfCorr.zero(n),
        )
    for c, pc in enumerate(cusps):
        check(
            f"residual:piInf.piC({c})",
            f"piInf . piC({c}) = piC({c})",
            compose(pi_inf, pc),
            pc,
        )
        check(
            f"residual:piC({c}).piInf",
            f"piC({c}) . piInf = piC({c})",
            compose(pc, pi_inf),
            pc,
        )

    # nilpotent-lift witnesses: p and its corrected projector define the
    # same motive because (p - p')^2 = 0 and p p' p = p, p' p p' = p'
    m0 = mu0(n)
    for tag, p, p_prime in (
        ("pi0", SurfCorr.of(n, ("T", m0)), bars["pi0"]),
        ("pi2", SurfCorr.of(n, ("G", m0)), bars["pi2"]),
    ):
        diff = p - p_prime
        check(
            f"witness:{tag}:nilpotent",
            "(p - p')^2 = 0",
            compose(diff, diff),
            SurfCorr.zero(n),
        )
        check(
            f"witness:{tag}:p.p'.p",
            "p . p' . p = p",
            compose(compose(p, p_prime), p),
            p,
        )
        check(
            f"witness:{tag}:p'.p.p'",
            "p' . p . p' = p'",
            compose(compose(p_prime, p), p_prime),
            p_prime,
        )

    # divisor action rows
    fiber = DivClass.of(n, GENERIC_FIBER)
    check("action:pi0:fiber", "pi0[fiber] = [fiber]", act_on_divisor(bars["pi0"], fiber), fiber)
    for name_a, pa in named[1:3]:
        check(
            f"action:{name_a}:fiber",
            f"{name_a}[fiber] = 0",
            act_on_divisor(pa, fiber),
            DivClass(n),
        )
    theta00 = DivClass.of(n, theta_key(0, 0))
    check(
        "action:pi0:theta(0;0)",
        "pi0[theta(0;0)] = full fiber over cusp 0",
        act_on_divisor(bars["pi0"], theta00),
        full_cusp_fiber(n, 0),
    )
    for name_a, pa in named[:3]:
        for m in range(n):
            if name_a == "pi0" and m == 0:
                continue
            z = DivClass.of(n, theta_key(0, m))
            check(
                f"action:{name_a}:theta(0;{m})",
                f"{name_a}[theta(0;{m})] = 0",
                act_on_divisor(pa, z),
                DivClass(n),
            )
    pc0 = cusps[0]
    for m in range(1, n):
        z = DivClass.of(n, theta_key(0, m))
        check(
            f"action:piC(0):theta(0;{m})",
            f"piC(0)[theta(0;{m})] = theta(0;{m})",
            act_on_divisor(pc0, z),
            z,
        )
    # averaging row for the translation part
    theta_avg = act_on_divisor(group_ring_to_corr(lambda_theta(n)[1]), theta00)
    check(
        "action:theta_avg",
        "translation average of theta(0;0) = (1/N) full fiber",
        theta_avg,
        full_cusp_fiber(n, 0).scale(Fraction(1, n)),
    )
    # the residual acts on cusp components exactly as the cusp projectors do
    for m in range(n):
        z = DivClass.of(n, theta_key(0, m))
        lhs = z - act_on_divisor(pi_f, z)
        rhs = act_on_divisor(pc0, z)
        check(
            f"residual_action:theta(0;{m})",
            "(Delta - piF)[theta] = piC[theta]",
            lhs,
            rhs,
        )

    return cert.entries
