"""Constructors, products and a printer that only the tests use.

The program never enumerates its endomorphism monoid or composes two
open-part correspondences; the tests do, to check the rule table
exhaustively and the restriction to the open part against it.  The
atom-pair products are the oracles of the program's keyed products:
`compose_by_atom_pairs` sends every atom pair through the rule table, where
`surface.compose` multiplies the component products of a cusp as blocks,
`group_product` multiplies group elements one pair at a time, where
`GroupRingElement.__mul__` computes each product's id from the ids of its
factors, and
`compose_open_t` multiplies open tensor sums atom pair by atom pair, where
`invert_open_t` and `threefold.parity_residual` apply the inversion
factor by factor.

The program builds each cusp projector piC(c) by relabelling piC(0), built
once per level, so that every piC(c) holds piC(0)'s block;
`build_pi_cusp_by_loop` builds it as the program once did at each call,
entry by entry from the reduced inverse of the Neron lattice, through the
constructor, for any c.

The program decides the restriction rows of the threefold certificate
pair by pair, adding only the pairs whose restricted atom differs from the
one the tensor product of the surface restrictions expects
(`threefold.restriction_residual`), and the parity rows on the factored
open form (`threefold.parity_residual`).
Their oracles expand the pair projector whole, restrict it with
`threefold.restrict_to_open_t`, and compare it with `tensor_open` of the
surface restrictions, or invert it with `invert_open_t`; both read the
restriction through `threefold` and the open-part composition through
`surface`, so a fault patched there reaches them as it reaches the
program.  A parity row builds no restricted t-atom, so a patched
`_restrict_t_atom` reaches only its oracle.

The program has one type of fiberwise map, `endos.SurfEnd`, with one law,
`surf_compose`: one object per map of a level, equal only to itself, and
composed and inverted by index arithmetic on the codes of the level's
list.  `TupleEnd` is the form it once had, a `NamedTuple` compared and
hashed by value and ordered as a tuple, with the law `tuple_compose` and
the inverse `TupleEnd.inv` written out on its fields.
The program keeps no product table of G: `groups.law_rows` yields its rows
one at a time by index arithmetic, and `groups.id_product` computes the id
of each product, or takes a dense product to `groups.law_product`, which
reads no table.  `g_table_by_compose` builds the whole table as the program
once did, one `surf_compose` call per entry, and `id_product_by_dict` is the
pair loop on such a table as the program once had it, zeros kept: the
oracles of all three.  `product_on_table` is `id_product` read from any
table, the form a patched law takes in the tests.  The types the program once had are
the oracles of the law: `GElem` with its `mul` and `inv`, for the
elements of G and their product ids, and `AffEnd` with `aff_compose`, for the
open part, where `aff_of` reads a `SurfEnd` as x -> n x + b and
`compose_affine_atoms`, `affine_label` and `affine_sort_key` compose,
print and sort open atoms as the program once did.

`TensorExpr.expand` folds its parts once over one denominator;
`expand_by_running_sum` is the running sum it replaced, each part's
product scaled and added to the sum of the parts before it.

The program holds an element of G^2 x| S_2's group ring factored, as a
`TensorExpr` with Q[G] factors.  Its oracle is the ring as the program
once held it: sums of `G2Elem`s, one element (g1, g2, swap) at a time,
multiplied by `group_product` with `G2Elem.mul`'s own swap rule.
The two elements of a `G2Elem` are `GElem`s.
`g2_sum` expands a factored element to such a `G2Sum`, `factored`
factors one back, and the `*` of a `G2Sum` is the program's product
between the two, so `x * y == product(x, y, group_product)` compares the
program with the oracle.  `g2_epsilon2` builds eps2 the old way, term by
term.

`print_expr` prints a parsed query back to source text, so that the tests
can check that parsing its print gives the same tree.

`mat_mul`, `mat_transpose` and `mat_zero` multiply, transpose and build
`RatMatrix`es, and `poincare_symmetric` reads a Betti table's Poincare
symmetry: the program needs none of them.  The program eliminates on the
integer multiple of a matrix (`exact.mat_rank`, `exact.mat_inverse`);
`mat_rank_by_fractions` and `mat_inverse_by_fractions` are the elimination
on its `Fraction` entries that it replaced, their oracles.

The program holds d_a times the fiber as a basis class of its own,
`surface.DA_FIBER`, with plain rational coefficients.  The oracle is the
form it once had: `LinearCoeff` coefficients const + da_part d_a on the
fiber, whose product raises `DegreeError` at d_a^2.  `linear_class`
reads a divisor class in that form, and `act_on_divisor_linear` acts on
it atom by atom with `LinearCoeff` arithmetic.

The program's threefold divisor action takes only a `TensorExpr`;
`lifted` turns a `TCorr` into one pure tensor per atom, so that a test
can act with an atom-level sum through the program's action.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add
from typing import NamedTuple

from motive_calc import surface, threefold
from motive_calc.dsl import Compose, NamedAtom, Node, Scale, Sum, Transpose
from motive_calc.endos import SurfEnd, surf_compose, surf_end, surf_identity
from motive_calc.exact import DegreeError, RatMatrix, RationalLike, SingularMatrixError, exact_rational, fmt_rational
from motive_calc.groups import GroupRingElement, PairSum, enumerate_g, mu_inv
from motive_calc.levels import _check_level
from motive_calc.motives import BettiTable
from motive_calc.sums import LevelMismatchError, LinComb, linear_map, product
from motive_calc.surface import (
    DA_FIBER, GENERIC_FIBER, Atom, DivClass, OpenAtom, OpenCorr, SurfCorr, UnsupportedCompositionError,
    compose_open_atoms, open_graph, restrict_to_open)
from motive_calc.tensor import TensorExpr, _meet, symmetrizers
from motive_calc.threefold import OpenTAtom, OpenTCorr, TCorr, t_atom


def mu_minus1(n: int) -> SurfEnd:
    """Fiberwise inversion."""
    return surf_end(n, 0, 0, -1, False)


def tau_end(n: int, b1: int, b2: int) -> SurfEnd:
    """Translation by the torsion section b."""
    return surf_end(n, b1, b2, 1, False)


def tgraph(f: SurfEnd) -> Atom:
    """Transposed graph; for automorphisms this is the graph of the inverse."""
    if not f.collapse:
        return ("G", f.inv())
    return ("T", f)


def enumerate_surf(n: int) -> list[SurfEnd]:
    """All distinct surface endomorphisms: 2N^2 automorphisms, N^2 collapses."""
    _check_level(n)
    out = [surf_end(n, b1, b2, s, False) for s in (1, -1) for b1 in range(n) for b2 in range(n)]
    out += [surf_end(n, b1, b2, 1, True) for b1 in range(n) for b2 in range(n)]
    return out


def from_fractions(cls: type, level, terms: dict) -> LinComb:
    """The sum of type cls with the {atom: coefficient} terms, through the constructor every `LinComb` shares."""
    x = cls.__new__(cls)
    LinComb.__init__(x, level, terms)
    return x


def _open_pair(x: OpenAtom, y: OpenAtom, _level: int) -> tuple:
    return ((compose_open_atoms(x, y), 1),)


def compose_open(after: OpenCorr, before: OpenCorr) -> OpenCorr:
    return product(after, before, _open_pair)


def compose_by_atom_pairs(after: SurfCorr, before: SurfCorr) -> SurfCorr:
    """after o before with every atom pair through `surface.compose_atom_pair`."""
    return product(after, before, surface.compose_atom_pair)


def build_pi_cusp_by_loop(n: int, c) -> SurfCorr:
    """piC(c) as `surface.build_pi_cusp` once built it: the dual-basis terms on cusp c, through the constructor."""
    inv = surface.neron_lattice(n).reduced_inverse
    terms = {}
    for m in range(1, n):
        for k in range(1, n):
            coeff = inv[m - 1, k - 1]
            if coeff:
                terms[surface.cusp_prod(c, m, k)] = coeff
    return SurfCorr(n, terms)


class TupleEnd(NamedTuple):
    """A fiberwise map as the program once held it: the oracle of the interned `SurfEnd`.

    `of` reads a `SurfEnd`, `end` gives the interned one back.
    """

    level: int
    b1: int
    b2: int
    s: int
    collapse: bool

    @staticmethod
    def of(f: SurfEnd) -> "TupleEnd":
        return TupleEnd(*f)

    def end(self) -> SurfEnd:
        return SurfEnd(*self)

    def inv(self) -> "TupleEnd":
        """(b, s)^-1 = (-s b, s); a collapse has no inverse."""
        if self.collapse:
            raise ValueError("collapse endomorphisms are not invertible")
        n, s = self.level, self.s
        return TupleEnd(n, (-s * self.b1) % n, (-s * self.b2) % n, s, False)

    def element_label(self) -> str:
        return f"({self.b1},{self.b2},{'+' if self.s == 1 else '-'})"

    def label(self) -> str:
        return ("col" if self.collapse else "aut") + self.element_label()


def tuple_compose(f: TupleEnd, h: TupleEnd) -> TupleEnd:
    """f after h, field by field: (n, b) o (n', b') = (n n', n b' + b), a collapse keeping inversion part +1."""
    m, b1, b2, s, collapse = f
    level, c1, c2, t, h_collapse = h
    if m != level:
        raise LevelMismatchError("endomorphisms of different levels")
    if collapse:
        return f
    return TupleEnd(m, (b1 + s * c1) % m, (b2 + s * c2) % m, 1 if h_collapse else s * t, h_collapse)


def tuple_ends(n: int) -> list[TupleEnd]:
    """The 3N^2 maps of a level in the order of their codes, as `TupleEnd`s."""
    _check_level(n)
    kinds = ((1, False), (-1, False), (1, True))
    return [TupleEnd(n, b1, b2, s, c) for s, c in kinds for b1 in range(n) for b2 in range(n)]


class GElem(NamedTuple):
    """Element (b, s) of (Z/N)^2 semidirect mu_2, as the program once held it; law (b,s)(b',s') = (b+s b', s s').

    The oracle of the program's elements of G, the automorphism `SurfEnd`s,
    and of their law `surf_compose`: `of` reads a `SurfEnd`, `end` gives one back.
    """

    level: int
    b1: int
    b2: int
    s: int

    @staticmethod
    def of(g: SurfEnd) -> "GElem":
        return GElem(g.level, g.b1, g.b2, g.s)

    def end(self) -> SurfEnd:
        return SurfEnd(self.level, self.b1, self.b2, self.s, False)

    def mul(self, other: "GElem") -> "GElem":
        if self.level != other.level:
            raise LevelMismatchError("group elements of different levels")
        n = self.level
        return GElem(n, (self.b1 + self.s * other.b1) % n, (self.b2 + self.s * other.b2) % n, self.s * other.s)

    def inv(self) -> "GElem":
        n = self.level
        return GElem(n, (-self.s * self.b1) % n, (-self.s * self.b2) % n, self.s)

    def label(self) -> str:
        return f"({self.b1},{self.b2},{'+' if self.s == 1 else '-'})"


def oracle_g(n: int) -> list[GElem]:
    """G in `enumerate_g` order, as `GElem`s."""
    return [GElem.of(g) for g in enumerate_g(n)]


def g_table_by_compose(n: int) -> list[list[int]]:
    """The product table of G as the program once built it, one `surf_compose` call per entry: row i, column j holds the id of i j."""
    elems = enumerate_g(n)
    index = {g: i for i, g in enumerate(elems)}
    return [[index[surf_compose(g, h)] for h in elems] for g in elems]


def id_product_by_dict(xs: list, ys: list, rows: list) -> dict:
    """The pair loop on a product table as the program once had it: the sums keyed by id in a dict, in the order first reached, zeros kept."""
    out: dict = {}
    get = out.get
    for i, a in xs:
        row = rows[i]
        for j, b in ys:
            e = row[j]
            out[e] = get(e, 0) + a * b
    return out


def product_on_table(table):
    """`groups.id_product` read from table(n), a product table of ids at level n, by `id_product_by_dict`: the (id, sum) pairs with a nonzero sum, by id."""

    def product_of(xs: list, ys: list, n: int) -> list:
        return sorted((k, v) for k, v in id_product_by_dict(xs, ys, table(n)).items() if v)

    return product_of


def group_product(g, h, _level) -> tuple:
    """The product of two group elements by `GElem.mul`, as a rule for `sums.product`.

    g and h are elements of G (`SurfEnd`s), or `G2Elem`s.
    """
    if type(g) is G2Elem:
        return ((g.mul(h), 1),)
    return ((GElem.of(g).mul(GElem.of(h)).end(), 1),)


class AffEnd(NamedTuple):
    """Affine map x -> n x + b of the open part, b N-torsion, as the program once held it.

    With `aff_compose` it is the oracle of the open part's law: the program
    reads an open atom's `SurfEnd` as such a map (`aff_of`).
    """

    level: int
    n: int
    b1: int
    b2: int

    def is_automorphism(self) -> bool:
        return self.n in (1, -1)

    def inv(self) -> "AffEnd":
        if not self.is_automorphism():
            raise ValueError("only degree-one affine maps invert")
        # (n,b)^-1 = (n, -n b) when n = +-1
        m = self.level
        return AffEnd(m, self.n, (-self.n * self.b1) % m, (-self.n * self.b2) % m)

    def label(self) -> str:
        return f"aff({self.n};{self.b1},{self.b2})"


def aff_end(level: int, n: int, b1: int = 0, b2: int = 0) -> AffEnd:
    return AffEnd(level, n, b1 % level, b2 % level)


def aff_compose(f: AffEnd, h: AffEnd) -> AffEnd:
    """(n,b) o (n',b') = (n n', n b' + b); torsion reduced mod the level."""
    if f.level != h.level:
        raise LevelMismatchError("affine endomorphisms of different levels")
    m = f.level
    return AffEnd(m, f.n * h.n, (f.n * h.b1 + f.b1) % m, (f.n * h.b2 + f.b2) % m)


def aff_of(f: SurfEnd) -> AffEnd:
    """A fiberwise map restricted to the open part, as an `AffEnd`: n = s, or 0 for a collapse."""
    return aff_end(f.level, 0 if f.collapse else f.s, f.b1, f.b2)


def affine_atom(atom: OpenAtom) -> tuple:
    """An open atom with its map as an `AffEnd`."""
    return atom[0], aff_of(atom[1])


def _affine_tgraph(a: AffEnd) -> tuple:
    return ("g", a.inv()) if a.is_automorphism() else ("t", a)


def compose_affine_atoms(x: tuple, y: tuple) -> tuple:
    """after=x, before=y on open atoms of `AffEnd`s by `aff_compose`: the oracle of `surface.compose_open_atoms`."""
    (sx, ax), (sy, ay) = x, y
    if sx == "g" and sy == "g":
        return ("g", aff_compose(ax, ay))
    if sx == "t" and sy == "t":
        return _affine_tgraph(aff_compose(ay, ax))
    if sx == "g" and ax.is_automorphism():
        return _affine_tgraph(aff_compose(ay, ax.inv()))
    if sx == "t" and ay.is_automorphism():
        return _affine_tgraph(aff_compose(ay.inv(), ax))
    if sx == "t" and ax.is_automorphism():
        return ("g", aff_compose(ax.inv(), ay))
    raise UnsupportedCompositionError("mixed species with no invertible side")


def affine_sort_key(atom: tuple) -> tuple:
    species, a = atom
    return (0 if species == "g" else 1, a.n, a.b1, a.b2)


def affine_label(atom: tuple) -> str:
    species, a = atom
    return f"Graph({a.label()})" if species == "g" else f"tGraph({a.label()})"


class G2Elem(NamedTuple):
    """Element of G^2 semidirect S_2; swap conjugates by exchanging the pair."""

    level: int
    g1: GElem
    g2: GElem
    swap: bool

    def mul(self, other: "G2Elem") -> "G2Elem":
        if self.level != other.level:
            raise LevelMismatchError("group elements of different levels")
        h1, h2 = (other.g2, other.g1) if self.swap else (other.g1, other.g2)
        return G2Elem(self.level, self.g1.mul(h1), self.g2.mul(h2), self.swap != other.swap)

    def inv(self) -> "G2Elem":
        if not self.swap:
            return G2Elem(self.level, self.g1.inv(), self.g2.inv(), False)
        # (g1,g2,swap)^-1 = (g2^-1, g1^-1, swap)
        return G2Elem(self.level, self.g2.inv(), self.g1.inv(), True)

    def label(self) -> str:
        sigma = ".s" if self.swap else ""
        return f"[{self.g1.label()},{self.g2.label()}]{sigma}"


def g2_identity(n: int) -> G2Elem:
    return G2Elem(n, GElem(n, 0, 0, 1), GElem(n, 0, 0, 1), False)


def sigma_swap(n: int) -> G2Elem:
    return G2Elem(n, GElem(n, 0, 0, 1), GElem(n, 0, 0, 1), True)


class G2Sum(GroupRingElement):
    """A sum of `G2Elem`s, whose `*` is the program's factored product."""

    __slots__ = ()
    sort_key = None  # the natural order of the `G2Elem` tuples
    label = staticmethod(lambda g: g.label())

    @staticmethod
    def check(level, atoms) -> None:
        """Each atom a `G2Elem` whose two group elements `GroupRingElement` takes at the level."""
        GroupRingElement.check(level, [g.end() for x in atoms for g in (x.g1, x.g2)])

    def __mul__(self, other: "G2Sum") -> "G2Sum":
        # the program has no product of a G^2 x| S_2 element with a Q[G] one: they are two types there
        if not isinstance(other, G2Sum):
            raise LevelMismatchError("group elements of different kinds")
        return g2_sum(factored(self).compose(factored(other)))


def factored(x: G2Sum) -> TensorExpr:
    """x as pure tensors a (x) h.sigma^e with a in Q[G]: its atoms grouped by their h and e."""
    lefts: dict = {}
    for g, c in x.terms.items():
        lefts.setdefault((g.g2.end(), g.swap), {})[g.g1.end()] = c
    parts = [(Fraction(1), GroupRingElement(x.level, a), GroupRingElement.of(x.level, h), e) for (h, e), a in lefts.items()]
    return TensorExpr(x.level, parts)


def group_symmetrizers(n: int) -> tuple[TensorExpr, TensorExpr]:
    """(A2, S2) of Q[G^2 x| S_2] at level n: `tensor.symmetrizers` of the identity of G."""
    return symmetrizers(GroupRingElement.of(n, surf_identity(n)))


def g2_sum(x: TensorExpr) -> G2Sum:
    """The atoms of a factored element of Q[G^2 x| S_2], each (g, h, swap) as a `G2Elem`."""
    return G2Sum(x.level, {G2Elem(g.level, GElem.of(g), GElem.of(h), e): c for (g, h, e), c in x.expand(PairSum).terms.items()})


def g2_epsilon2(n: int) -> G2Sum:
    """(1/4N^4) sum over G^2 of eps2(g)^-1 g, term by term."""
    _check_level(n)
    plus = Fraction(1, 4 * n ** 4)
    minus = -plus
    elems = oracle_g(n)
    terms = {G2Elem(n, a, b, False): plus if a.s == b.s else minus
             for a in elems for b in elems}
    return G2Sum(n, terms)


def _open_t_pair(x: OpenTAtom, y: OpenTAtom, _level: int) -> tuple:
    lx, rx, ex = x
    fy, gy, swap = _meet(ex, *y)
    return (((compose_open_atoms(lx, fy), compose_open_atoms(rx, gy), swap), 1),)


def compose_open_t(after: OpenTCorr, before: OpenTCorr) -> OpenTCorr:
    return product(after, before, _open_t_pair)


def tensor_rule(swap: bool):
    """Product rule of a pure tensor: one left and one right factor atom, V (x) V dropped by `t_atom`."""

    def rule(left: tuple, right: tuple, _level: int) -> tuple | None:
        atom = t_atom(left, right, swap)
        return None if atom is None else ((atom, 1),)

    return rule


def tensor_open(a: OpenCorr, b: OpenCorr, swap: bool = False) -> OpenTCorr:
    return product(a, b, tensor_rule(swap), OpenTCorr)


def invert_open_t(x: OpenTCorr) -> OpenTCorr:
    """inversion . x, with inversion = Graph(-1) (x) Graph(-1): one pure tensor, so it acts factor by factor."""
    inv = open_graph(mu_inv(x.level))
    compose = surface.compose_open_atoms
    return linear_map(x, lambda atom: (compose(inv, atom[0]), compose(inv, atom[1]), atom[2]))


def expanded_open(a: SurfCorr, b: SurfCorr) -> OpenTCorr:
    """open(a (x) b): the pure tensor expanded whole, then restricted atom by atom."""
    return threefold.restrict_to_open_t(TensorExpr.pure(a, b).expand(TCorr))


def expand_by_running_sum(x: TensorExpr, cls: type | None = None) -> LinComb:
    """`TensorExpr.expand` as it once was: each pure tensor's `product`, scaled, added to the running sum."""
    cls = cls or TCorr
    parts = (product(a, b, tensor_rule(e), cls).scale(Fraction(v, x.d)) for (a, b, e), v in x.nums.items())
    return reduce(add, parts, cls.over(x.level, 1, {}))


def restriction_residual_by_expansion(a: SurfCorr, b: SurfCorr) -> OpenTCorr:
    """The oracle of `threefold.restriction_residual`."""
    return expanded_open(a, b) - tensor_open(restrict_to_open(a), restrict_to_open(b))


def parity_residual_by_expansion(pairs: list, sign: int) -> OpenTCorr:
    """The oracle of `threefold.parity_residual`."""
    graded = OpenTCorr(pairs[0][0].level)
    for a, b in pairs:
        graded = graded + expanded_open(a, b)
    return invert_open_t(graded) - graded.scale(sign)


def print_expr(node: Node) -> str:
    if isinstance(node, NamedAtom):
        if not node.args:
            return node.name
        rendered = ",".join(str(a) if isinstance(a, int) else print_expr(a) for a in node.args)
        return f"{node.name}({rendered})"
    if isinstance(node, Transpose):
        return f"t({print_expr(node.node)})"
    if isinstance(node, Compose):
        # composition parses left-associated, so a right-nested chain
        # must keep its parentheses
        right = node.right
        right_text = f"({print_expr(right)})" if isinstance(right, Compose) else _wrap(right)
        return f"{_wrap(node.left)} . {right_text}"
    if isinstance(node, Scale):
        num = node.coeff
        text = str(num.numerator) if num.denominator == 1 else f"{num.numerator}/{num.denominator}"
        return f"{text} * {_wrap(node.node)}"
    if isinstance(node, Sum):
        out = []
        for i, (sign, part) in enumerate(node.parts):
            rendered = _wrap(part) if isinstance(part, Sum) else print_expr(part)
            if i == 0:
                out.append(rendered if sign == 1 else f"-{rendered}")
            else:
                out.append(f"{'+' if sign == 1 else '-'} {rendered}")
        return " ".join(out)
    raise TypeError(f"unknown node {node!r}")


def _wrap(node: Node) -> str:
    if isinstance(node, (Sum, Scale)):
        return f"({print_expr(node)})"
    return print_expr(node)


def mat_zero(rows: int, cols: int) -> RatMatrix:
    return RatMatrix([[Fraction(0)] * cols for _ in range(rows)])


def mat_transpose(m: RatMatrix) -> RatMatrix:
    return RatMatrix([[m.entries[i][j] for i in range(m.rows)] for j in range(m.cols)])


def mat_mul(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """The matrix product a.b; a ValueError when a's columns are not b's rows."""
    if a.cols != b.rows:
        raise ValueError("dimension mismatch")
    return RatMatrix([[sum((a.entries[i][k] * b.entries[k][j] for k in range(a.cols)), Fraction(0))
                       for j in range(b.cols)] for i in range(a.rows)])


def mat_rank_by_fractions(m: RatMatrix) -> int:
    """Rank by fraction-free (Bareiss) elimination on the Fraction entries."""
    a = [row[:] for row in m.entries]
    rows, cols = m.rows, m.cols
    rank = 0
    prev = Fraction(1)
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot_row = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        pivot = a[r][c]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                a[i][j] = (a[i][j] * pivot - a[i][c] * a[r][j]) / prev
            a[i][c] = Fraction(0)
        prev = pivot
        r += 1
        rank += 1
    return rank


def mat_inverse_by_fractions(m: RatMatrix) -> RatMatrix:
    """Inverse by Gauss-Jordan on the Fraction entries; raises SingularMatrixError."""
    if m.rows != m.cols:
        raise SingularMatrixError("inverse of a non-square matrix")
    n = m.rows
    a = [row[:] + ident_row for row, ident_row in zip(m.entries, RatMatrix.identity(n).entries)]
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError("matrix is singular")
        a[c], a[pivot_row] = a[pivot_row], a[c]
        pivot = a[c][c]
        a[c] = [x / pivot for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                factor = a[i][c]
                a[i] = [x - factor * y for x, y in zip(a[i], a[c])]
    return RatMatrix([row[n:] for row in a])


def poincare_symmetric(table: BettiTable) -> bool:
    """Whether b_i = b_(2d-i) for every degree i of the table."""
    return all(table.b[i] == table.b[len(table.b) - 1 - i] for i in range(len(table.b)))


# -- d_a as a coefficient: the oracle of the divisor actions

@dataclass(frozen=True)
class LinearCoeff:
    """Value of the form `const + da_part * d_a` with d_a a free symbol; products may never produce d_a**2."""

    const: RationalLike = 0
    da_part: RationalLike = 0

    @staticmethod
    def of(value: RationalLike) -> "LinearCoeff":
        return LinearCoeff(exact_rational(value), 0)

    @staticmethod
    def d_a(scale: RationalLike = 1) -> "LinearCoeff":
        return LinearCoeff(0, exact_rational(scale))

    def __bool__(self) -> bool:
        return bool(self.const) or bool(self.da_part)

    def __add__(self, other: "LinearCoeff") -> "LinearCoeff":
        return LinearCoeff(self.const + other.const, self.da_part + other.da_part)

    def __sub__(self, other: "LinearCoeff") -> "LinearCoeff":
        return LinearCoeff(self.const - other.const, self.da_part - other.da_part)

    def __neg__(self) -> "LinearCoeff":
        return LinearCoeff(-self.const, -self.da_part)

    def __mul__(self, other: "LinearCoeff | RationalLike") -> "LinearCoeff":
        if not isinstance(other, LinearCoeff):
            return self.scale(other)
        if self.da_part and other.da_part:
            raise DegreeError("product would have a d_a^2 term")
        return LinearCoeff(
            self.const * other.const,
            self.const * other.da_part + self.da_part * other.const,
        )

    __rmul__ = __mul__

    def scale(self, k: RationalLike) -> "LinearCoeff":
        return LinearCoeff(self.const * k, self.da_part * k)

    def __str__(self) -> str:
        if not self.da_part:
            return fmt_rational(self.const)
        da = "d_a" if self.da_part == 1 else f"{fmt_rational(self.da_part)}*d_a"
        if not self.const:
            return da
        return f"{fmt_rational(self.const)} + {da}"


def _add_linear(out: dict, key, c: LinearCoeff) -> None:
    total = out.get(key, LinearCoeff()) + c
    if total:
        out[key] = total
    else:
        out.pop(key, None)


def linear_class(z: DivClass) -> dict:
    """{key: LinearCoeff}: z with its d_a*[fiber] coefficient read as the d_a part of [fiber]."""
    out: dict = {}
    for key, c in z.terms.items():
        if key == DA_FIBER:
            _add_linear(out, GENERIC_FIBER, LinearCoeff.d_a(c))
        else:
            _add_linear(out, key, LinearCoeff.of(c))
    return out


def act_on_divisor_linear(x: SurfCorr, z: dict) -> dict:
    """x acting on the {key: LinearCoeff} class z, atom pair by atom pair, with d_a a coefficient.

    Each row is `surface.act_atom_on_key` on a class without d_a, a
    d_a*[fiber] in its image read as d_a times [fiber]; a d_a^2 raises
    `DegreeError` in the `LinearCoeff` product.
    """
    out: dict = {}
    for atom, c in x.terms.items():
        for key, cz in z.items():
            for k, m in surface.act_atom_on_key(atom, key, x.level):
                image = LinearCoeff.d_a(m) if k == DA_FIBER else LinearCoeff.of(m)
                _add_linear(out, GENERIC_FIBER if k == DA_FIBER else k, image * cz * c)
    return out


def lifted(x: TCorr) -> TensorExpr:
    """x as one pure tensor per atom (a, b, swap), with the one-atom factors a and b."""
    n = x.level
    return TensorExpr(n, [(c, SurfCorr.of(n, a), SurfCorr.of(n, b), e) for (a, b, e), c in x.terms.items()])
