"""Fiberwise maps: the elements of G, the surface endomorphisms and the open-part affine maps.

A fiberwise map is x -> n x + b, b an N-torsion point and n in {0, +-1}:
`SurfEnd(level, b1, b2, s, collapse)`, with n = s for an automorphism and
n = 0 for a collapse x -> b (the point b in the fiber of x).  The
automorphisms are the elements (b, s) of G = (Z/N)^2 semidirect mu_2
(`groups`), and on the open part every map is read as x -> n x + b
(`surface.restrict_atom`).  A collapse depends only on where it sends the
zero section, so it is normalized to inversion part +1 at construction;
with that normalization `mu(-1) o mu(0) = mu(0)` holds on the nose, which
the projector orthogonality certificates require.  `surf_compose` is the
one composition law and `SurfEnd.inv` the one inverse.
"""

from __future__ import annotations

from typing import NamedTuple

from .sums import LevelMismatchError


class SurfEnd(NamedTuple):
    level: int
    b1: int
    b2: int
    s: int
    collapse: bool

    @property
    def n(self) -> int:
        """The multiplier n of x -> n x + b: s for an automorphism, 0 for a collapse."""
        return 0 if self.collapse else self.s

    def is_automorphism(self) -> bool:
        return not self.collapse

    def inv(self) -> "SurfEnd":
        """(b, s)^-1 = (-s b, s); a collapse has no inverse."""
        if self.collapse:
            raise ValueError("collapse endomorphisms are not invertible")
        n, s = self.level, self.s
        return SurfEnd(n, (-s * self.b1) % n, (-s * self.b2) % n, s, False)

    def element_label(self) -> str:
        """(b1,b2,+-): how an element of G prints."""
        return f"({self.b1},{self.b2},{'+' if self.s == 1 else '-'})"

    def label(self) -> str:
        return ("col" if self.collapse else "aut") + self.element_label()


class SurfEnds(frozenset):
    """A set of `SurfEnd`s that holds no value of another type, such as a plain tuple equal to a member.

    `LinComb.check` reads one as the range of a map slot of an atom.
    """

    __slots__ = ()

    def __contains__(self, f) -> bool:
        return type(f) is SurfEnd and frozenset.__contains__(self, f)


# what `SurfEnd._make` calls: it builds a SurfEnd from a tuple of its fields without the generated `__new__`
_new = tuple.__new__


def surf_end(n: int, b1: int, b2: int, s: int = 1, collapse: bool = False) -> SurfEnd:
    if type(s) is not int or s not in (1, -1):  # a bool equals 1 but is no inversion part
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
    """f after h: (n, b) o (n', b') = (n n', n b' + b), so a collapse absorbs on the right: (g,col) o h = (g,col).

    On G that is the group law (b,s)(b',s') = (b + s b', s s').
    """
    m, b1, b2, s, collapse = f
    level, c1, c2, t, h_collapse = h
    if m != level:
        raise LevelMismatchError("endomorphisms of different levels")
    if collapse:
        return f
    # a collapse keeps inversion part +1, as `surf_end` normalizes it
    return _new(SurfEnd, (m, (b1 + s * c1) % m, (b2 + s * c2) % m, 1 if h_collapse else s * t, h_collapse))
