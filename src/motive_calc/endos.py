"""Fiberwise maps: the elements of G, the surface endomorphisms and the open-part affine maps.

A fiberwise map is x -> n x + b, b an N-torsion point and n in {0, +-1}:
`SurfEnd(level, b1, b2, s, collapse)`, with n = s for an automorphism and
n = 0 for a collapse x -> b (the point b in the fiber of x).  The
automorphisms are the elements (b, s) of G = (Z/N)^2 semidirect mu_2
(`groups`), and on the open part every map is read as x -> n x + b
(`surface.restrict_atom`).  A collapse depends only on where it sends the
zero section, so its inversion part is +1; with that normal form
`mu(-1) o mu(0) = mu(0)` holds on the nose, which the projector
orthogonality certificates require.  `surf_end` normalizes its arguments.

Each map is one object: the 3N^2 maps of a level are built at its first
use (`level_ends`) and listed by code (k N + b1) N + b2, k = 0 for s = +1,
1 for s = -1 and 2 for a collapse, so G comes first, as `groups.enumerate_g`
lists it.  The constructor takes the normal form only and returns the
listed object, as a copy or a pickle does.  A map is equal only to itself,
hashes by identity, has no order and iterates its five fields.
`surf_compose`, the one law, and `SurfEnd.inv`, the one inverse, compute
a code and read the list.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .levels import _check_level
from .sums import LevelMismatchError


class SurfEnd:
    """x -> n x + b at a level: the one object of its map, at index `code` of `level_ends(level)`."""

    __slots__ = ("level", "b1", "b2", "s", "collapse", "code", "_ends")

    def __new__(cls, level: int, b1: int, b2: int, s: int, collapse: bool) -> "SurfEnd":
        ends = level_ends(level)  # a bool equals 0 or 1 and a float can equal an int, but neither is a field
        if (type(b1) is type(b2) is type(s) is int and type(collapse) is bool
                and 0 <= b1 < level and 0 <= b2 < level and (s == 1 or s == -1 and not collapse)):
            return ends[((2 if collapse else s < 0) * level + b1) * level + b2]
        raise ValueError(f"SurfEnd{(level, b1, b2, s, collapse)!r} is no map of level {level} in normal form")

    def __setattr__(self, name, value=None):  # also __delattr__
        raise AttributeError(f"SurfEnd.{name} is read-only: a map is one object")

    __delattr__ = __setattr__

    def __iter__(self):
        return iter((self.level, self.b1, self.b2, self.s, self.collapse))

    def __reduce__(self):
        return SurfEnd, tuple(self)

    def __repr__(self) -> str:
        return f"SurfEnd{tuple(self)}"

    @property
    def n(self) -> int:
        """The multiplier n of x -> n x + b: s for an automorphism, 0 for a collapse."""
        return 0 if self.collapse else self.s

    def inv(self) -> "SurfEnd":
        """(b, s)^-1 = (-s b, s); a collapse has no inverse, and (b, -1) is its own."""
        if self.collapse:
            raise ValueError("collapse endomorphisms are not invertible")
        if self.s < 0:
            return self
        n = self.level
        return self._ends[-self.b1 % n * n + -self.b2 % n]

    def element_label(self) -> str:
        """(b1,b2,+-): how an element of G prints."""
        return f"({self.b1},{self.b2},{'+' if self.s == 1 else '-'})"

    def label(self) -> str:
        return ("col" if self.collapse else "aut") + self.element_label()


@lru_cache(maxsize=None, typed=True)  # typed: 3.0 is not the level 3
def level_ends(level: int) -> list[SurfEnd]:
    """The 3N^2 maps of a level, by code, built at the first use of the level."""
    _check_level(level)
    ends: list[SurfEnd] = []
    for (s, collapse), b1, b2 in product(((1, False), (-1, False), (1, True)), range(level), range(level)):
        f = object.__new__(SurfEnd)
        for name, value in zip(SurfEnd.__slots__, (level, b1, b2, s, collapse, len(ends), ends)):
            object.__setattr__(f, name, value)
        ends.append(f)
    return ends


class SurfEnds:
    """The maps of one level, or its collapses only: the range of a map slot that `LinComb.check` reads."""

    __slots__ = ("level", "collapses")

    def __init__(self, level: int, collapses: bool = False) -> None:
        self.level, self.collapses = level, collapses

    def __contains__(self, f) -> bool:
        return type(f) is SurfEnd and f.level == self.level and (f.collapse or not self.collapses)


def surf_end(n: int, b1: int, b2: int, s: int = 1, collapse: bool = False) -> SurfEnd:
    if type(s) is not int or s not in (1, -1):  # a bool equals 1 but is no inversion part
        raise ValueError("inversion part must be +-1")
    if collapse:
        s = 1  # the collapse map is determined by its section alone
    return SurfEnd(n, b1 % n, b2 % n, s, collapse)


def surf_identity(n: int) -> SurfEnd:
    return SurfEnd(n, 0, 0, 1, False)


def mu0(n: int) -> SurfEnd:
    """Projection onto the zero section."""
    return SurfEnd(n, 0, 0, 1, True)


def surf_compose(f: SurfEnd, h: SurfEnd) -> SurfEnd:
    """f after h: (n, b) o (n', b') = (n n', n b' + b), so a collapse absorbs on the right: (g,col) o h = (g,col).

    On G that is the group law (b,s)(b',s') = (b + s b', s s').  The code's k is h's, s = -1 swapping 0 and 1.
    """
    m = f.level
    if h.level != m:
        raise LevelMismatchError("endomorphisms of different levels")
    if f.collapse:
        return f
    k = h.code // (m * m)
    if f.s == 1:
        return f._ends[(k * m + (f.b1 + h.b1) % m) * m + (f.b2 + h.b2) % m]
    return f._ends[((k if k == 2 else 1 - k) * m + (f.b1 - h.b1) % m) * m + (f.b2 - h.b2) % m]
