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
automorphism graphs meet by one rule: when the rule agrees with the group
law on every pair, checked once per level and rule (`aut_table`), they
multiply as elements of Q[G] by `groups.id_product`, whose dense products
are the group-law kernel `groups.law_product`; otherwise the rule is
called pair by pair, as for every other atom pair.  The component
products of one cusp form a sparse integer block, and the rest of the
table acts on blocks as matrices read from the rule and kept per level
(`CuspRule`): R9 is the block product with the N-gon pairing, three
nonzeros per row, and a graph, tGraph or V atom acts on a block through
an index map on its rows or columns.  Component products on disjoint
cusps compose to zero before any arithmetic.  Every cusp fiber is the same
N-gon, so each cusp projector is piC(0) relabelled and holds piC(0)'s block:
a product that reads only that block is made once and relabelled per cusp.

The constructor of a correspondence or a divisor class takes only atoms of
its level (`atom_ranges`); results are built by `LinComb.over`, unchecked.
As a tensor factor (`tensor`) a correspondence transposes by `transpose`,
refuses cusp products, and drops V (x) V.

On the open part, away from the cusps, V and the component products
vanish, and a graph or tGraph of a fiberwise map is read as the graph or
tGraph of x -> n x + b (`endos`): `restrict_atom` keeps the `SurfEnd` and
only changes its species, and `compose_open_atoms` composes through
`surf_compose`, pair by pair in a product of two `OpenCorr`s.  An open
atom prints as aff(n;b1,b2) and sorts by (species, n, b1, b2).  `OpenCorr`
takes the open atoms of the surface's graphs and tGraphs only, tGraphs
being in the normal form of `open_tgraph`.

A divisor class is a rational sum of basis classes: the fiber, sections,
cusp components, and d_a times the fiber (`DA_FIBER`), d_a being the
degree of the pushed-down self-intersection of the zero section.  Only
the fiber carries d_a, so d_a is a class here, not a coefficient, and an
image that would carry it twice raises `DegreeError`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat
from typing import NamedTuple

from . import groups
from .endos import SurfEnd, SurfEnds, mu0, surf_compose, surf_identity
from .exact import DegreeError, RatMatrix, mat_inverse, mat_rank
from .groups import epsilon_projector, lambda_theta
from .levels import _check_level, cusp_count
from .sums import Certificate, LinComb, bilinear, collect, linear_map, product

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


class NeronLattice(NamedTuple):
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

@lru_cache(maxsize=None, typed=True)  # typed: 3.0 is not the level 3
def atom_ranges(level: int) -> dict:
    """The surface atoms of a level for `LinComb.check`.

    Graphs of the 3N^2 endomorphisms of the level, tGraphs of its N^2
    collapses, V, and CP(c;m,n) with c below `cusp_count` and m, n in 0..N-1.
    """
    cusps, idx = range(cusp_count(level)), range(level)
    return {"G": (SurfEnds(level),), "T": (SurfEnds(level, True),), "V": (), "C": (cusps, idx, idx)}


class SurfCorr(LinComb):
    """Formal exact-rational combination of surface atoms, those of `atom_ranges`."""

    __slots__ = ("_derived",)  # what `compose` derives from the terms (`_Operand`), set at its first call
    sort_key = staticmethod(atom_sort_key)
    label = staticmethod(atom_label)
    ranges = staticmethod(atom_ranges)
    tensor_null = VERT  # V (x) V vanishes on the threefold

    @classmethod
    def check_factor(cls, level, atoms) -> None:
        """Cusp products are no tensor factors."""
        for atom in atoms:
            if atom[0] == "C":
                raise ValueError("cusp products are not tensor factors")

    def __mul__(self, other: "SurfCorr") -> "SurfCorr":
        """self o other, by this module's `compose` as bound at the call, so a patched one is used."""
        return compose(self, other)

    def transpose(self) -> "SurfCorr":
        """This module's `transpose` as bound at the call."""
        return transpose(self)


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


# R1's output per composite map h: the one tuple ((Graph(h), 1),), shared by every pair that composes to h
_GRAPH_TERMS: dict = {}


def compose_atom_pair(x: Atom, y: Atom, level: int) -> list[tuple[Atom, int]] | tuple | None:
    """after=x composed with before=y; None means zero.  Read the output, do not change it: R1's is shared."""
    kx = x[0]
    ky = y[0]
    if kx == "G":
        f: SurfEnd = x[1]
        if ky == "G":
            h = surf_compose(f, y[1])
            return _GRAPH_TERMS.get(h) or _GRAPH_TERMS.setdefault(h, ((("G", h), 1),))  # R1
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


def _split(terms: list) -> tuple[list, list, dict]:
    """(automorphism graph terms, other graph/tGraph/V terms, component product blocks per cusp).

    Automorphism graphs meet each other through `aut_table`.
    The block of a cusp holds the numerator of CP(c;m,n) at block[m][n].
    """
    aut: list = []
    other: list = []
    blocks: dict[int, dict] = {}
    for atom, v in terms:
        if atom[0] == "C":
            _, c, m, n = atom
            block = blocks.get(c)
            if block is None:
                block = blocks[c] = {}
            row = block.get(m)
            if row is None:
                row = block[m] = {}
            row[n] = v
        elif atom[0] == "G" and not atom[1].collapse:
            aut.append((atom, v))
        else:
            other.append((atom, v))
    return aut, other, blocks


@lru_cache(maxsize=None)
def aut_table(level: int, rule) -> list[Atom] | None:
    """The automorphism graphs by id, if `rule` agrees with the group law on every pair of them, else None.

    atoms[i] is the graph of the element of G with code i.  The rule is
    called once per pair, one row of pairs per `map`, and each row is
    compared as a whole with the law's row, as `groups.law_rows` builds it:
    R1's shared outputs for the products that row lists.  No row is kept.
    At the first row that differs the check stops and the result is None:
    `compose` then calls the rule pair by pair.
    """
    # the law's outputs by id: R1's shared output for each element, as R1 makes it
    terms = [_GRAPH_TERMS.get(h) or _GRAPH_TERMS.setdefault(h, ((("G", h), 1),)) for h in groups.enumerate_g(level)]
    atoms = [out[0][0] for out in terms]
    m = len(atoms)
    for x, row in zip(atoms, groups.law_rows(level)):
        if list(map(rule, repeat(x, m), atoms, repeat(level, m))) != list(map(terms.__getitem__, row)):
            return None
    return atoms


def _aut_product(xs: list, ys: list, atoms: list, level: int) -> list:
    """The summed products of automorphism graph terms (atom, v) by `groups.id_product`, as bound at the call.

    An atom's id is the code of its map; only the atoms of the result are
    decoded.
    """
    out = groups.id_product([(a[1].code, u) for a, u in xs], [(b[1].code, v) for b, v in ys], level)
    return [(atoms[k], v) for k, v in out]


# -- component products as blocks -------------------------------------------------
#
# The component products of one cusp form a block, a sparse integer matrix
# {m: {n: v}} holding the numerator of CP(c;m,n) at [m][n].  R9 on one
# cusp is the matrix product Y.A.X of the before block Y, the N-gon
# pairing A and the after block X.  A graph, tGraph or V atom acts on a
# block through an index map: on its columns when the atom comes after it
# (R10, R12, R14), on its rows when it comes before (R11, R13, R14).  The
# maps of an operand's atoms, weighted by their numerators, add up to one
# sparse matrix, so an operand meets a block in one matrix product.


def _read(rule, x: Atom, y: Atom, level: int, slot: int) -> tuple:
    """rule(x, y) as ((j, k), ...) for its terms k CP(0;j,0) (slot 2) or k CP(0;0,j) (slot 3)."""
    out = []
    for atom, k in rule(x, y, level) or ():
        if atom[0] != "C" or atom[1] or atom[5 - slot]:
            raise UnsupportedCompositionError(
                f"{atom_label(x)} o {atom_label(y)} gives {atom_label(atom)}, which no block map can write")
        out.append((atom[slot], k))
    return tuple(out)


def _sparse(rows) -> dict:
    """{i: {j: w}} from (i, {j: w}) pairs, without zero entries or empty rows."""
    out = {}
    for i, row in rows:
        row = {j: w for j, w in row.items() if w}
        if row:
            out[i] = row
    return out


class CuspRule:
    """A rule on the component products of cusp 0: R9's pairing, and an index map per graph, tGraph or V atom.

    `pairing` is A as a sparse matrix {ny: {mx: k}}, with
    CP(0;mx,0) o CP(0;0,ny) = k CP(0;0,0); it has three nonzeros per row.
    A map sends each index i to ((j, w), ...).  An atom after a block sends
    column i to columns j, read from atom o CP(0;0,i); an atom before a
    block sends row i to rows j, read from CP(0;i,0) o atom.  An atom's map
    is read the first time it meets a block; equal maps share one id in
    `maps`, and the map that sends every index to nothing, zero, is id None.
    """

    def __init__(self, level: int, rule) -> None:
        self.level = level
        self.rule = rule
        pairing = []
        for ny in range(level):
            row = {}
            for mx in range(level):
                for j, k in _read(rule, cusp_prod(0, mx, 0), cusp_prod(0, 0, ny), level, 3):
                    if j:
                        raise UnsupportedCompositionError(f"CP(0;{mx},0) o CP(0;0,{ny}) leaves CP(0;0,0)")
                    row[mx] = row.get(mx, 0) + k
            pairing.append((ny, row))
        self.pairing = _sparse(pairing)
        self.maps: list[tuple] = []
        self._ids: dict = {}
        self._after: dict = {}
        self._before: dict = {}

    def map_id(self, atom: Atom, after: bool) -> int | None:
        """The id of atom's map: on the columns of a block after atom, or on the rows of one before it."""
        ids = self._after if after else self._before
        i = ids.get(atom, ids)
        if i is ids:
            rule, n = self.rule, self.level
            if after:
                images = tuple(_read(rule, atom, cusp_prod(0, 0, j), n, 3) for j in range(n))
            else:
                images = tuple(_read(rule, cusp_prod(0, j, 0), atom, n, 2) for j in range(n))
            i = None
            if any(images):
                i = self._ids.get(images)
                if i is None:
                    i = self._ids[images] = len(self.maps)
                    self.maps.append(images)
            ids[atom] = i
        return i


@lru_cache(maxsize=None)
def cusp_rule(level: int, rule) -> CuspRule:
    """The `CuspRule` of rule at level, cached per rule as `aut_table` is."""
    return CuspRule(level, rule)


def _mul(a: dict, row, out: dict) -> dict:
    """Add the product a.b of two sparse matrices {i: {j: v}} into out, and return out; row(k) reads b's row k."""
    for i, arow in a.items():
        orow = out.get(i)
        if orow is None:
            orow = out[i] = {}
        get = orow.get
        for k, v in arow.items():
            brow = row(k)
            if v and brow:
                for j, w in brow.items():
                    orow[j] = get(j, 0) + v * w
    return out


def _mul_columns(columns, b: dict, out: dict) -> dict:
    """Add the product a.b into out, and return out, for a read by its columns: columns[i] = {j: a[j][i]}."""
    for i, brow in b.items():
        for j, w in columns[i].items():
            orow = out.get(j)
            if orow is None:
                orow = out[j] = {}
            get = orow.get
            for k, v in brow.items():
                orow[k] = get(k, 0) + w * v
    return out


class _Rows(dict):
    """{i: {j: w}}: the sum of v M over the (M, v) in `terms`, M a map of `CuspRule.maps`; row i is made at its first read."""

    __slots__ = ("terms",)

    def __init__(self, terms: list) -> None:
        super().__init__()
        self.terms = terms

    def __missing__(self, i: int) -> dict:
        row: dict = {}
        for images, v in self.terms:
            for j, w in images[i]:
                row[j] = row.get(j, 0) + v * w
        row = self[i] = {j: w for j, w in row.items() if w}
        return row


class _Operand:
    """What `compose` derives from an operand's terms, kept on it as `_derived`: the terms of a sum never change.

    `cusps` are its cusps when it holds only component products, else None;
    `parts` is `_split`'s, made at the first product that needs it; `rows`
    holds per (`CuspRule`, after) the `_Rows` of its graph, tGraph and V
    atoms, None for zero, keyed by the table itself so that a patched rule
    reads its own maps, and the products that `_block_products` keeps.
    """

    __slots__ = ("cusps", "parts", "rows")

    def __init__(self, cusps: frozenset | None, parts: tuple | None = None, rows: dict | None = None) -> None:
        self.cusps, self.parts, self.rows = cusps, parts, {} if rows is None else rows

    @staticmethod
    def of(x: SurfCorr) -> "_Operand":
        op = getattr(x, "_derived", None)  # an unset slot: no exception raised and caught per fresh operand
        if op is None:
            nums = x.nums
            op = x._derived = _Operand(frozenset(a[1] for a in nums) if all(a[0] == "C" for a in nums) else None)
        return op

    def maps(self, table: CuspRule, after: bool) -> _Rows | None:
        """The sum of v M over the graph, tGraph and V terms (atom, v), M the atom's map on one side of a block."""
        key = (table, after)
        rows = self.rows.get(key, key)
        if rows is key:
            summed: dict = {}
            for atom, v in chain(self.parts[0], self.parts[1]):
                m = table.map_id(atom, after)
                if m is not None:
                    summed[m] = summed.get(m, 0) + v
            terms = [(table.maps[m], v) for m, v in summed.items() if v]
            rows = self.rows[key] = _Rows(terms) if terms else None
        return rows


class _Block(dict):
    """The block of piC(0), which every piC(c) of its level holds (`build_pi_cusp`); it hashes by identity."""

    __hash__ = object.__hash__


def _block_products(x: _Operand, y: _Operand, table: CuspRule) -> dict:
    """{atom: numerator} of every product of the after operand x and the before operand y that meets a block.

    Per cusp that is Y.C + Y.A.X + R.X, with C the summed maps of x's
    other atoms and R those of y's, each row read from the operand's
    `_Rows`, made at its first read.  Where every block of a cusp is a
    `_Block`, the product is the same at every cusp: it is made once, kept
    by its blocks and table on the record of the operand whose maps it read
    (Y.A.X on the record that every piC(c) of the level shares), and only
    relabelled at each cusp.
    """
    x_blocks, y_blocks = x.parts[2], y.parts[2]
    after = x.maps(table, True) if y_blocks else None
    before = y.maps(table, False) if x_blocks else None
    per_cusp = []
    for c in dict.fromkeys(chain(y_blocks, x_blocks)):
        yb = y_blocks.get(c)
        xb = x_blocks.get(c)
        shared = type(yb or xb) is _Block and type(xb or yb) is _Block
        record, key = y.rows if yb is None else x.rows, (table, yb, xb)
        block = record.get(key) if shared else None
        if block is None:
            block = {}
            if yb and after is not None:
                _mul(yb, after.__getitem__, block)
            if yb and xb:
                _mul(_mul(yb, table.pairing.get, {}), xb.get, block)
            if xb and before is not None:
                _mul_columns(before, xb, block)
            if shared:
                block = record[key] = _sparse(block.items())
        per_cusp.append((c, block))
    return {("C", c, m, k): v for c, block in per_cusp for m, row in block.items() for k, v in row.items() if v}


def compose(after: SurfCorr, before: SurfCorr) -> SurfCorr:
    """after o before: automorphism graph pairs by the group law, component products meet as blocks.

    Two operands that hold only component products, on disjoint sets of
    cusps, compose to zero before any arithmetic.  Otherwise the
    component products of each cusp are one integer block (`CuspRule`):
    R9 is the block product Y.A.X, and a graph, tGraph or V atom acts on
    a block through its index map, the atoms of one map summed first.
    Two automorphism graphs multiply on integer ids by the group law when
    `aut_table` finds the rule agrees with it, through `groups.id_product`
    as bound in `groups` at the call, so a patched law reaches them; with
    any other rule they run atom by atom, as the other graph, tGraph and V
    pairs do.  What this reads of an operand is derived once and kept on it
    (`_Operand`), and so is a block product that is the same at every cusp.
    """
    after.check_level(before)
    level = after.level
    x, y = _Operand.of(after), _Operand.of(before)
    if x.cusps is not None and y.cusps is not None and x.cusps.isdisjoint(y.cusps):
        return SurfCorr.over(level, 1, {})
    rule = compose_atom_pair  # looked up at each call, so a patched rule is used
    for op, z in ((x, after), (y, before)):
        if op.parts is None:
            op.parts = _split(z.nums.items())
    (x_aut, x_other, x_blocks), (y_aut, y_other, y_blocks) = x.parts, y.parts
    nums = _block_products(x, y, cusp_rule(level, rule)) if x_blocks or y_blocks else {}
    pairs = [bilinear(x_other, y_aut + y_other, rule, level), bilinear(x_aut, y_other, rule, level) if y_other else ()]
    if x_aut and y_aut:
        atoms = aut_table(level, rule)
        pairs.append(bilinear(x_aut, y_aut, rule, level) if atoms is None else _aut_product(x_aut, y_aut, atoms, level))
    return SurfCorr.over(level, after.d * before.d, collect(chain.from_iterable(pairs), nums))


# -- named projectors -----------------------------------------------------------

def delta(n: int) -> SurfCorr:
    return SurfCorr.of(n, graph(surf_identity(n)))


def group_ring_to_corr(element) -> SurfCorr:
    """Image of a group-ring element under g -> Graph(g); an element of G is already a `SurfEnd`."""
    return SurfCorr.over(element.level, element.d, {graph(g): v for g, v in element.nums.items()})


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


@lru_cache(maxsize=None, typed=True)  # typed: 3.0 is not the level 3
def _cusp_template(n: int) -> SurfCorr:
    """piC(0), built by the constructor once per level, with its record: its block as the level's `_Block`."""
    inv = neron_lattice(n).reduced_inverse
    t = SurfCorr(n, {cusp_prod(0, m, k): inv[m - 1, k - 1] for m in range(1, n) for k in range(1, n) if inv[m - 1, k - 1]})
    t._derived = _Operand(frozenset((0,)), ([], [], {0: _Block(_split(t.nums.items())[2][0])}))
    return t


def build_pi_cusp(n: int, c: int) -> SurfCorr:
    """Dual-basis combination of component products over one cusp fiber; c must lie below `cusp_count`.

    Every cusp fiber is the same N-gon, so piC(c) is piC(0) relabelled:
    its record holds piC(0)'s `_Block` at c and shares piC(0)'s kept
    products, so `compose` makes each product of the block once per level.
    """
    t = _cusp_template(n)
    SurfCorr.check(n, (cusp_prod(c, 1, 1),))  # a c outside the level raises as the constructor does
    pc = SurfCorr.over(n, t.d, {("C", c, m, k): v for (_, _, m, k), v in t.nums.items()})
    pc._derived = _Operand(frozenset((c,)), ([], [], {c: t._derived.parts[2][0]}), t._derived.rows)
    return pc


def build_pi_f(n: int) -> SurfCorr:
    bars = build_pi_bars(n)
    return bars["pi0"] + bars["pi1"] + bars["pi2"]


def build_pi_inf(n: int) -> SurfCorr:
    return delta(n) - build_pi_f(n)


# -- divisor classes and the action table ---------------------------------------

DivKey = tuple

GENERIC_FIBER: DivKey = ("F",)

DA_FIBER: DivKey = ("D",)  # d_a times the fiber class, the one class that carries d_a


def sec_key(b1: int, b2: int) -> DivKey:
    return ("S", b1, b2)


def theta_key(c: int, m: int) -> DivKey:
    return ("Th", c, m)


_DIV_RANK = {"F": 0, "D": 1, "S": 2, "Th": 3}


def div_sort_key(key: DivKey) -> tuple:
    return (_DIV_RANK[key[0]], *key[1:])


def div_label(key: DivKey) -> str:
    if key[0] == "F":
        return "[fiber]"
    if key[0] == "D":
        return "d_a*[fiber]"
    if key[0] == "S":
        return f"[sec({key[1]},{key[2]})]"
    return f"[theta({key[1]};{key[2]})]"


class DivClass(LinComb):
    """Formal rational combination of divisor basis classes, d_a*[fiber] among them."""

    __slots__ = ()
    sort_key = staticmethod(div_sort_key)
    label = staticmethod(div_label)
    ranges = staticmethod(lambda n: {"F": (), "D": (), "S": (range(n),) * 2, "Th": (range(cusp_count(n)), range(n))})


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


def act_atom_on_key(atom: Atom, key: DivKey, level: int) -> list[tuple[DivKey, int]]:
    """One atom acting on one divisor basis class."""
    if key == DA_FIBER:
        # d_a times the image of the fiber, which may hold no d_a itself: that would be d_a^2
        image = act_atom_on_key(atom, GENERIC_FIBER, level)
        for k, _ in image:
            if k != GENERIC_FIBER:
                raise DegreeError(f"{atom_label(atom)} sends d_a*[fiber] to d_a*{div_label(k)}")
        return [(DA_FIBER, v) for _, v in image]
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
            return [(DA_FIBER, 1)]
        return []
    # V: z -> d_a (z . fiber) fiber; only sections meet the fiber
    return [(DA_FIBER, 1)]


def act_on_divisor(x: SurfCorr, z: DivClass) -> DivClass:
    """x acting on z, atom by atom through `act_atom_on_key`."""
    return product(x, z, act_atom_on_key, DivClass)


# -- restriction to the open part ------------------------------------------------

OpenAtom = tuple


def open_graph(f: SurfEnd) -> OpenAtom:
    return ("g", f)


def open_tgraph(f: SurfEnd) -> OpenAtom:
    # the transposed graph of a degree-one map is the graph of its inverse
    return ("t", f) if f.collapse else ("g", f.inv())


def open_atom_sort_key(atom: OpenAtom) -> tuple:
    species, f = atom
    return (0 if species == "g" else 1, f.n, f.b1, f.b2)


def open_atom_label(atom: OpenAtom) -> str:
    species, f = atom
    return f"{'Graph' if species == 'g' else 'tGraph'}(aff({f.n};{f.b1},{f.b2}))"


class OpenCorr(LinComb):
    """Formal combination of open-part graphs and transposed graphs: the surface's, of `atom_ranges`."""

    __slots__ = ()
    sort_key = staticmethod(open_atom_sort_key)
    label = staticmethod(open_atom_label)
    ranges = staticmethod(lambda n: {"g": atom_ranges(n)["G"], "t": atom_ranges(n)["T"]})

    def __mul__(self, other: "OpenCorr") -> "OpenCorr":
        """self o other, atom pair by atom pair through this module's `compose_open_atoms` as bound at the call."""
        return product(self, other, lambda x, y, _level: ((compose_open_atoms(x, y), 1),))


def compose_open_atoms(x: OpenAtom, y: OpenAtom) -> OpenAtom:
    """after=x, before=y, through `surf_compose`; mixed species need an invertible side."""
    sx, fx = x
    sy, fy = y
    if sx == "g" and sy == "g":
        return ("g", surf_compose(fx, fy))
    if sx == "t" and sy == "t":
        return open_tgraph(surf_compose(fy, fx))
    if sx == "g" and sy == "t":
        if not fx.collapse:
            return open_tgraph(surf_compose(fy, fx.inv()))
        raise UnsupportedCompositionError("graph o tgraph with no invertible side")
    # sx == "t", sy == "g"
    if not fy.collapse:
        return open_tgraph(surf_compose(fy.inv(), fx))
    if not fx.collapse:
        return ("g", surf_compose(fx.inv(), fy))
    raise UnsupportedCompositionError("tgraph o graph with no invertible side")


_OPEN_SPECIES = {"G": "g", "T": "t"}


def restrict_atom(atom: Atom) -> OpenAtom | None:
    """The open-part atom of a graph or transposed graph: the same map, of the open species; None over the cusps."""
    species = _OPEN_SPECIES.get(atom[0])
    return None if species is None else (species, atom[1])  # V and cusp products lie over the cusps


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
    zero = SurfCorr.zero(n)  # the want of every "= 0" entry

    cert = Certificate()
    check = cert.check

    # Kronecker pattern over the full projector list
    for (name_a, pa) in named:
        for (name_b, pb) in named:
            product = compose(pa, pb)
            want = pa if name_a == name_b else zero
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
            zero,
        )
        check(
            f"residual:{name_a}.piInf",
            f"{name_a} . piInf = 0",
            compose(pa, pi_inf),
            zero,
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
            zero,
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
