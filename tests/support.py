"""Constructors and products that only the tests use.

The program never enumerates its endomorphism monoid or composes two
open-part surface correspondences; the tests do, to check the rule table
exhaustively and the restriction to the open part against it.  The
atom-pair products are the oracles of the program's keyed products:
`compose_by_atom_pairs` sends every atom pair through the rule table, where
`surface.compose` pairs graph atoms with component products once per key,
and `group_product` multiplies group elements one pair at a time, where
`GroupRingElement.__mul__` reads an integer product table.
"""

from motive_calc import surface
from motive_calc.endos import SurfEnd, surf_end
from motive_calc.levels import _check_level
from motive_calc.sums import product
from motive_calc.surface import OpenAtom, OpenCorr, SurfCorr, compose_open_atoms


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


def compose_by_atom_pairs(after: SurfCorr, before: SurfCorr) -> SurfCorr:
    """after o before with every atom pair through `surface.compose_atom_pair`."""
    return product(after, before, surface.compose_atom_pair)


def group_product(g, h, _level) -> tuple:
    """The product of two group elements, as a rule for `sums.product`."""
    return ((g.mul(h), 1),)
