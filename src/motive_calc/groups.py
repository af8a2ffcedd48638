"""The finite symmetry groups and their exact group rings.

G = (Z/N)^2 semidirect mu_2 acts fiberwise on the surface by torsion
translations and inversion; G x G semidirect S_2 acts on the threefold,
the S_2 factor swapping the two fiber coordinates.  The named idempotents
(the sign-character projector, its translation/inversion factors, and the
swap symmetrizers) all live in these group rings with rational
coefficients, and every identity about them is checked by exact
group-ring multiplication.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Union

from .levels import _check_level
from .sums import Certificate, LevelMismatchError, LinComb, linear_map, product


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


def _group_product(g: GroupElem, h: GroupElem, _level) -> tuple:
    return ((g.mul(h), 1),)


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
        return product(self, other, _group_product)

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
    scale = Fraction(1, 4 * n ** 4)
    terms = {}
    for a in enumerate_g(n):
        for b in enumerate_g(n):
            terms[G2Elem(n, a, b, False)] = scale * epsilon(a) * epsilon(b)
    return GroupRingElement(terms)


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
