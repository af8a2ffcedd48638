"""The finite symmetry groups and their exact group rings.

G = (Z/N)^2 semidirect mu_2 acts fiberwise on the surface by torsion
translations and inversion; G x G semidirect S_2 acts on the threefold,
the S_2 factor swapping the two fiber coordinates.  The named idempotents
(the sign-character projector, its translation/inversion factors, and the
swap symmetrizers) all live in these group rings with rational
coefficients, and every identity about them is checked by exact
group-ring multiplication.

Multiplication runs on indices: G is numbered 0..2N^2-1 in `enumerate_g`
order, with a product table built once per level (`g_table`), and an
element of G^2 x| S_2 is the triple (i, j, swap) over it.  Coefficients
are integer numerators over one common denominator per operand, and only
the atoms of a product are turned back into `GElem`s and `G2Elem`s.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Union

from .levels import _check_level
from .sums import Certificate, LevelMismatchError, LinComb, integral, linear_map, rationalize


class GElem(NamedTuple):
    """Element (b, s) of (Z/N)^2 semidirect mu_2; law (b,s)(b',s') = (b+s b', s s')."""

    level: int
    b1: int
    b2: int
    s: int

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


def g_identity(n: int) -> GElem:
    return GElem(n, 0, 0, 1)


def tau(n: int, b1: int, b2: int) -> GElem:
    """Translation by the torsion point b."""
    return GElem(n, b1 % n, b2 % n, 1)


def mu_inv(n: int) -> GElem:
    """Fiberwise inversion."""
    return GElem(n, 0, 0, -1)


def enumerate_g(n: int) -> list[GElem]:
    _check_level(n)
    return [GElem(n, b1, b2, s) for s in (1, -1) for b1 in range(n) for b2 in range(n)]


def epsilon(x: GElem) -> int:
    """Sign character: trivial on translations, -1 on the inversion part."""
    return x.s


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
    return G2Elem(n, g_identity(n), g_identity(n), False)


def sigma_swap(n: int) -> G2Elem:
    return G2Elem(n, g_identity(n), g_identity(n), True)


GroupElem = Union[GElem, G2Elem]


@lru_cache(maxsize=None)
def g_table(n: int) -> tuple[list[GElem], dict[GElem, int], list[list[int]]]:
    """G numbered 0..2N^2-1 in `enumerate_g` order: (elements, index of each, product table).

    Row i, column j of the table holds the index of the product of elements i and j.
    """
    elems = enumerate_g(n)
    index = {g: i for i, g in enumerate(elems)}
    return elems, index, [[index[g.mul(h)] for h in elems] for g in elems]


def _g_product(xs: list, ys: list, table: list) -> dict:
    """Summed integer products of encoded G terms (i, v), keyed by the index of each product."""
    out: dict = {}
    get = out.get
    for i, a in xs:
        row = table[i]
        for j, b in ys:
            k = row[j]
            out[k] = get(k, 0) + a * b
    return out


def _g2_product(xs: list, ys: list, table: list) -> dict:
    """The same for G^2 x| S_2 terms (i, j, swap, v); a product (i, j, swap) is keyed 2(iM + j) + swap.

    (g1, g2, s)(h1, h2, t) = (g1 h1', g2 h2', s xor t), with (h1', h2') = (h2, h1) when s is set.
    """
    size = len(table)
    by_swap = (
        [(k, l, int(t), b) for k, l, t, b in ys],
        [(l, k, int(not t), b) for k, l, t, b in ys],
    )
    out: dict = {}
    get = out.get
    for i, j, s, a in xs:
        r1, r2 = table[i], table[j]
        for k, l, u, b in by_swap[s]:
            key = (r1[k] * size + r2[l]) * 2 + u
            out[key] = get(key, 0) + a * b
    return out


class GroupRingElement(LinComb):
    """Finite formal rational combination of group elements.

    Its level is None: each group element carries its own.
    """

    __slots__ = ()
    label = staticmethod(lambda g: g.label())

    def __init__(self, terms: dict | None = None):
        super().__init__(None, terms)

    @staticmethod
    def of(g: GroupElem, coeff=1) -> "GroupRingElement":
        return GroupRingElement({g: coeff})

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        """The product on integer numerators, with each element encoded by its index in G.

        An element of G^2 x| S_2 is encoded as (i, j, swap); only the atoms of
        the result are decoded back to group elements.
        """
        if not (self.terms and other.terms):
            return GroupRingElement()
        first = next(iter(self.terms))
        n = first.level
        elems, index, table = g_table(n)
        dx, xs = integral(self.terms)
        dy, ys = integral(other.terms)
        in_g2 = type(first) is G2Elem
        try:
            if in_g2:
                xs = [(index[g.g1], index[g.g2], g.swap, v) for g, v in xs]
                ys = [(index[h.g1], index[h.g2], h.swap, v) for h, v in ys]
            else:
                xs = [(index[g], v) for g, v in xs]
                ys = [(index[h], v) for h, v in ys]
        except (KeyError, AttributeError):
            raise LevelMismatchError("group elements of different levels or kinds") from None
        if not in_g2:
            out = _g_product(xs, ys, table)
            terms = {elems[k]: v for k, v in out.items() if v}
        else:
            out = _g2_product(xs, ys, table)
            size = len(elems)
            new = tuple.__new__  # G2Elem(...) without its keyword-argument layer
            terms = {}
            for k, v in out.items():
                if v:
                    i, j = divmod(k >> 1, size)
                    terms[new(G2Elem, (n, elems[i], elems[j], k & 1 == 1))] = v
        return GroupRingElement._make(None, rationalize(terms, dx * dy))

    def involute(self) -> "GroupRingElement":
        """Coefficient-preserving g -> g^-1 (the group-ring transpose)."""
        return linear_map(self, lambda g: g.inv())

    def __repr__(self) -> str:
        return self.render()


def epsilon_projector(n: int) -> GroupRingElement:
    """(1/2N^2) sum over G of eps(g)^-1 g; an idempotent fixed by involution."""
    _check_level(n)
    scale = Fraction(1, 2 * n * n)
    return GroupRingElement({g: scale * epsilon(g) for g in enumerate_g(n)})


def lambda_theta(n: int) -> tuple[GroupRingElement, GroupRingElement]:
    """The inversion-antisymmetrizer and the translation average.

    lambda = (1 - mu(-1))/2 and theta = (1/N^2) sum tau(b): commuting
    idempotents whose product (either order) is the epsilon projector.
    """
    _check_level(n)
    half = Fraction(1, 2)
    lam = GroupRingElement({g_identity(n): half, mu_inv(n): -half})
    theta_terms = {tau(n, b1, b2): Fraction(1, n * n) for b1 in range(n) for b2 in range(n)}
    return lam, GroupRingElement(theta_terms)


def epsilon2_projector(n: int) -> GroupRingElement:
    """(1/4N^4) sum over G^2 of eps2(g)^-1 g, inside Q[G^2 x| S_2]."""
    _check_level(n)
    plus = Fraction(1, 4 * n ** 4)
    minus = -plus
    elems = enumerate_g(n)
    terms = {G2Elem(n, a, b, False): plus if epsilon(a) == epsilon(b) else minus
             for a in elems for b in elems}
    return GroupRingElement._make(None, terms)


def symmetrizers(n: int) -> tuple[GroupRingElement, GroupRingElement]:
    """(A2, S2) = ((1 + sigma)/2, (1 - sigma)/2): orthogonal, summing to 1."""
    _check_level(n)
    half = Fraction(1, 2)
    e = g2_identity(n)
    s = sigma_swap(n)
    return (
        GroupRingElement({e: half, s: half}),
        GroupRingElement({e: half, s: -half}),
    )


def group_certificate(n: int) -> list[dict]:
    """Idempotency, commutation and orthogonality of the named idempotents."""
    cert = Certificate()
    check = cert.equal
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
    one = GroupRingElement.of(g2_identity(n))
    check("a2:idempotent", "A2 . A2 = A2", a2 * a2, a2)
    check("s2:idempotent", "S2 . S2 = S2", s2 * s2, s2)
    check("a2_s2:orthogonal", "A2 . S2 = 0", a2 * s2, GroupRingElement())
    check("s2_a2:orthogonal", "S2 . A2 = 0", s2 * a2, GroupRingElement())
    check("a2_s2:sum", "A2 + S2 = 1", a2 + s2, one)
    eps2 = epsilon2_projector(n)
    check("a2_eps2:commute", "A2 . eps2 = eps2 . A2", a2 * eps2, eps2 * a2)
    check("s2_eps2:commute", "S2 . eps2 = eps2 . S2", s2 * eps2, eps2 * s2)
    return cert.entries
