"""Finite monoids of fiberwise endomorphisms.

Surface endomorphisms are automorphisms g in G together with collapses
x -> g.(zero-section point in the fiber of x).  A collapse map depends
only on where it sends the zero section, so collapse elements are
normalized to inversion part +1 at construction; with that normalization
`mu(-1) o mu(0) = mu(0)` holds on the nose, which the projector
orthogonality certificates require.  Affine endomorphisms x -> n x + b
model the open part, where multiplication by any integer n makes sense.
"""

from __future__ import annotations

from typing import NamedTuple

from .groups import LevelMismatchError


class SurfEnd(NamedTuple):
    level: int
    b1: int
    b2: int
    s: int
    collapse: bool

    def is_automorphism(self) -> bool:
        return not self.collapse

    def inv(self) -> "SurfEnd":
        if self.collapse:
            raise ValueError("collapse endomorphisms are not invertible")
        n, s = self.level, self.s
        return SurfEnd(n, (-s * self.b1) % n, (-s * self.b2) % n, s, False)

    def label(self) -> str:
        core = f"({self.b1},{self.b2},{'+' if self.s == 1 else '-'})"
        return f"col{core}" if self.collapse else f"aut{core}"


def surf_end(n: int, b1: int, b2: int, s: int = 1, collapse: bool = False) -> SurfEnd:
    if s not in (1, -1):
        raise ValueError("inversion part must be +-1")
    if collapse:
        s = 1  # the collapse map is determined by its section alone
    return SurfEnd(n, b1 % n, b2 % n, s, collapse)


def surf_identity(n: int) -> SurfEnd:
    return surf_end(n, 0, 0, 1, False)


def mu0(n: int) -> SurfEnd:
    """Projection onto the zero section."""
    return surf_end(n, 0, 0, 1, True)


def surf_compose(f: SurfEnd, h: SurfEnd) -> SurfEnd:
    """f after h.  Collapses absorb on the right: (g,col) o h = (g,col)."""
    if f.level != h.level:
        raise LevelMismatchError("endomorphisms of different levels")
    if f.collapse:
        return f
    # the group law (b,s)(b',s') = (b + s b', s s') on the automorphism parts
    s = f.s
    return surf_end(f.level, f.b1 + s * h.b1, f.b2 + s * h.b2, s * h.s, h.collapse)


class AffEnd(NamedTuple):
    """Affine endomorphism x -> n x + b of the open part; b is N-torsion."""

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
