"""The finite symmetry groups and their exact group rings.

G = (Z/N)^2 semidirect mu_2 acts fiberwise on the surface by torsion
translations and inversion; G x G semidirect S_2 acts on the threefold,
the S_2 factor swapping the two fiber coordinates.  The named idempotents
(the sign-character projector, its translation/inversion factors, and the
swap symmetrizers) all live in these group rings with rational
coefficients, and every identity about them is checked by exact
group-ring multiplication.

The elements of G are the automorphism `endos.SurfEnd`s (collapse
False), multiplied by `endos.surf_compose` and inverted by
`SurfEnd.inv`; one prints as (b1,b2,+-) and sorts by (b1, b2, s), and
g -> Graph(g) takes it to the surface atom ("G", g) as it is.  An element
of Q[G] is a `LinComb` like every other sum: a level N and its elements
of G at that level, each refused at the constructor otherwise, so sums
and products of two levels raise `LevelMismatchError`.  Q[G]
multiplies on indices: G is numbered 0..2N^2-1 in `enumerate_g` order,
an element's index being its `SurfEnd.code`, with a product table that
`g_table` builds once per level by index arithmetic on that numbering,
not by `surf_compose`.  A product multiplies the operands' integer
numerators on indices, over the product of their denominators, sums them
in a list indexed by id (`id_product`), and turns only its nonzero atoms
back into elements of G.

G^2 x| S_2 is the wreath product of G by S_2, so its group ring is
(Q[G] (x) Q[G]) x| S_2: an element is a `threefold.TensorExpr` with Q[G]
factors of its level, the sum of c (a (x) b) sigma^e held as a `LinComb`
of the triples (a, b, e), multiplied factor by factor.  Its entries go
through `Certificate.check` like every other, whose zero test,
`TensorExpr.is_zero`, enumerates no element of G^2 x| S_2; only a failed
entry expands its residual, to atoms (g, h, swap) of a `PairSum`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

from .endos import SurfEnd, level_ends, surf_end
from .levels import _check_level
from .sums import Certificate, LevelMismatchError, LinComb, linear_map

# threefold imports surface, which imports this module: the G^2 builders import it when called
if TYPE_CHECKING:
    from .threefold import TensorExpr


def g_identity(n: int) -> SurfEnd:
    return SurfEnd(n, 0, 0, 1, False)


def tau(n: int, b1: int, b2: int) -> SurfEnd:
    """Translation by the torsion point b."""
    return surf_end(n, b1, b2)


def mu_inv(n: int) -> SurfEnd:
    """Fiberwise inversion."""
    return SurfEnd(n, 0, 0, -1, False)


def enumerate_g(n: int) -> list[SurfEnd]:
    return level_ends(n)[:2 * n * n]


def epsilon(x: SurfEnd) -> int:
    """Sign character: trivial on translations, -1 on the inversion part."""
    return x.s


@lru_cache(maxsize=None)
def g_table(n: int) -> tuple[list[SurfEnd], list[list[int]]]:
    """G numbered 0..2N^2-1 in `enumerate_g` order, each element by its code: (elements, product table).

    Row i, column j of the table holds the index of the product of elements
    i and j.  (b, s) is numbered ((s < 0) N + b1) N + b2, and (b, s) sends
    (c, t) to (b + s c, s t), so the columns (c, t) with one (t, c1) make a
    block of N indices: those of (b2 + s c2) mod N over the c2, each plus
    N times ((st < 0) N + (b1 + s c1) mod N).  A row joins 2N such blocks,
    built once per (s, b2); every entry is one of the ints of `ids`.
    """
    elems = enumerate_g(n)
    ids = list(range(len(elems)))
    table = []
    for s in (1, -1):
        # blocks[b2][k]: the indices k N + (b2 + s c2) mod N over the c2, for k in 0..2N-1
        blocks = [[[ids[k * n + (b2 + s * c2) % n] for c2 in range(n)] for k in range(2 * n)] for b2 in range(n)]
        for b1 in range(n):
            ks = [(0 if t == s else n) + (b1 + s * c1) % n for t in (1, -1) for c1 in range(n)]
            table += [[i for k in ks for i in row[k]] for row in blocks]
    return elems, table


def id_product(xs: list, ys: list, rows: list, size: int, general: list = ()) -> list:
    """Summed integer products of terms (i, v) encoded by id: the (id, sum) pairs with a nonzero sum, by id.

    rows[i][j] is the id of the product of ids i and j, or ~g for general[g],
    a sum of (id, multiplier) pairs.  `g_table` has no such entry;
    `surface.aut_table` has one for each output of its rule that is not one
    atom with multiplier 1.  The sums are added into a list of `size` slots,
    one per id a product can have: 2N^2 for Q[G], and every atom of the
    table for `aut_table`, whose patched rules can add atoms.
    """
    out = [0] * size
    for i, a in xs:
        row = rows[i]
        for j, b in ys:
            e = row[j]
            if e >= 0:
                out[e] += a * b
            else:
                for k, m in general[~e]:
                    out[k] += a * b * m
    return [(k, v) for k, v in enumerate(out) if v]


class GroupRingElement(LinComb):
    """Finite formal rational combination of the elements of G at its level."""

    __slots__ = ()
    sort_key = staticmethod(lambda g: (g.b1, g.b2, g.s))
    label = staticmethod(SurfEnd.element_label)

    @staticmethod
    def check(level, atoms) -> None:
        """Each atom an element of G (`enumerate_g`) at the level."""
        for g in atoms:
            if type(g) is not SurfEnd or g.collapse or g.level != level:
                raise ValueError(f"{g!r} is not an element of G at level {level}")

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        """The product on integer numerators, with each element encoded by its index in G, its code.

        Only the atoms of the result are decoded back to group elements.
        """
        if type(other) is not GroupRingElement:
            raise LevelMismatchError("group elements of different kinds")
        self.check_level(other)
        elems, table = g_table(self.level)
        xs = [(g.code, v) for g, v in self.nums.items()]
        out = id_product(xs, [(h.code, v) for h, v in other.nums.items()], table, len(table))
        return GroupRingElement.over(self.level, self.d * other.d, {elems[k]: v for k, v in out})

    def involute(self) -> "GroupRingElement":
        """Coefficient-preserving g -> g^-1 (the group-ring transpose)."""
        return linear_map(self, lambda g: g.inv())

    def __repr__(self) -> str:
        return self.render()


def epsilon_projector(n: int) -> GroupRingElement:
    """(1/2N^2) sum over G of eps(g)^-1 g; an idempotent fixed by involution."""
    _check_level(n)
    scale = Fraction(1, 2 * n * n)
    return GroupRingElement(n, {g: scale * epsilon(g) for g in enumerate_g(n)})


def lambda_theta(n: int) -> tuple[GroupRingElement, GroupRingElement]:
    """The inversion-antisymmetrizer and the translation average.

    lambda = (1 - mu(-1))/2 and theta = (1/N^2) sum tau(b): commuting
    idempotents whose product (either order) is the epsilon projector.
    """
    half = Fraction(1, 2)
    lam = GroupRingElement(n, {g_identity(n): half, mu_inv(n): -half})
    theta_terms = {tau(n, b1, b2): Fraction(1, n * n) for b1 in range(n) for b2 in range(n)}
    return lam, GroupRingElement(n, theta_terms)


class PairSum(LinComb):
    """An element of Q[G^2 x| S_2] expanded to atoms (g, h, swap), printed as [g,h].s, sorted by g, h, then swap."""

    __slots__ = ()
    sort_key = staticmethod(
        lambda atom: (GroupRingElement.sort_key(atom[0]), GroupRingElement.sort_key(atom[1]), atom[2]))
    label = staticmethod(lambda atom: f"[{atom[0].element_label()},{atom[1].element_label()}]{'.s' if atom[2] else ''}")

    @staticmethod
    def check(level, atoms) -> None:
        """Each atom (g, h, swap): g and h elements of G at the level (`GroupRingElement.check`), swap a bool."""
        for atom in atoms:
            if type(atom) is not tuple or len(atom) != 3 or type(atom[2]) is not bool:
                raise ValueError(f"unknown atom {atom!r}")
            GroupRingElement.check(level, atom[:2])


def epsilon2_projector(n: int) -> TensorExpr:
    """eps (x) eps = (1/4N^4) sum over G^2 of eps2(g)^-1 g, inside Q[G^2 x| S_2]."""
    from .threefold import TensorExpr

    eps = epsilon_projector(n)
    return TensorExpr.pure(eps, eps)


def symmetrizers(n: int) -> tuple[TensorExpr, TensorExpr]:
    """(A2, S2) = ((1 + sigma)/2, (1 - sigma)/2): orthogonal, summing to 1."""
    from .threefold import TensorExpr

    e = GroupRingElement.of(n, g_identity(n))
    one, sigma = TensorExpr.pure(e, e), TensorExpr.pure(e, e, swap=True)
    half = Fraction(1, 2)
    return (one + sigma).scale(half), (one - sigma).scale(half)


def group_certificate(n: int) -> list[dict]:
    """Idempotency, commutation and orthogonality of the named idempotents."""
    from .threefold import TensorExpr

    cert = Certificate()
    check = cert.check
    eps = epsilon_projector(n)
    lam, theta = lambda_theta(n)
    check("eps:idempotent", "eps . eps = eps", eps * eps, eps)
    check("eps:involution", "involution(eps) = eps", eps.involute(), eps)
    check("lambda:idempotent", "lambda . lambda = lambda", lam * lam, lam)
    check("theta:idempotent", "theta . theta = theta", theta * theta, theta)
    check("lambda_theta:commute", "lambda . theta = theta . lambda", lam * theta, theta * lam)
    check("lambda_theta:product", "lambda . theta = eps", lam * theta, eps)
    check("theta_lambda:product", "theta . lambda = eps", theta * lam, eps)

    a2, s2 = symmetrizers(n)
    e = GroupRingElement.of(n, g_identity(n))
    zero = TensorExpr(n)
    eps2 = epsilon2_projector(n)
    for name, law, got, want in (
        ("a2:idempotent", "A2 . A2 = A2", a2.compose(a2), a2),
        ("s2:idempotent", "S2 . S2 = S2", s2.compose(s2), s2),
        ("a2_s2:orthogonal", "A2 . S2 = 0", a2.compose(s2), zero),
        ("s2_a2:orthogonal", "S2 . A2 = 0", s2.compose(a2), zero),
        ("a2_s2:sum", "A2 + S2 = 1", a2 + s2, TensorExpr.pure(e, e)),
        ("a2_eps2:commute", "A2 . eps2 = eps2 . A2", a2.compose(eps2), eps2.compose(a2)),
        ("s2_eps2:commute", "S2 . eps2 = eps2 . S2", s2.compose(eps2), eps2.compose(s2)),
    ):
        check(name, law, got, want, PairSum)
    return cert.entries
