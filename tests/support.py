"""Constructors and products that only the tests use.

The program never enumerates its endomorphism monoid or composes two
open-part surface correspondences; the tests do, to check the rule table
exhaustively and the restriction to the open part against it.
"""

from motive_calc.endos import SurfEnd, surf_end
from motive_calc.levels import _check_level
from motive_calc.sums import product
from motive_calc.surface import OpenAtom, OpenCorr, compose_open_atoms


def mu_minus1(n: int) -> SurfEnd:
    """Fiberwise inversion."""
    return surf_end(n, 0, 0, -1, False)


def tau_end(n: int, b1: int, b2: int) -> SurfEnd:
    """Translation by the torsion section b."""
    return surf_end(n, b1, b2, 1, False)


def enumerate_surf(n: int) -> list[SurfEnd]:
    """All distinct surface endomorphisms: 2N^2 automorphisms, N^2 collapses."""
    _check_level(n)
    out = [surf_end(n, b1, b2, s, False) for s in (1, -1) for b1 in range(n) for b2 in range(n)]
    out += [surf_end(n, b1, b2, 1, True) for b1 in range(n) for b2 in range(n)]
    return out


def _open_pair(x: OpenAtom, y: OpenAtom, _level: int) -> tuple:
    return ((compose_open_atoms(x, y), 1),)


def compose_open(after: OpenCorr, before: OpenCorr) -> OpenCorr:
    return product(after, before, _open_pair)
