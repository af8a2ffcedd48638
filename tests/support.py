"""Constructors, products and a printer that only the tests use.

The program never enumerates its endomorphism monoid or composes two
open-part correspondences; the tests do, to check the rule table
exhaustively and the restriction to the open part against it.  The
atom-pair products are the oracles of the program's keyed products:
`compose_by_atom_pairs` sends every atom pair through the rule table, where
`surface.compose` pairs graph atoms with component products once per key,
`group_product` multiplies group elements one pair at a time, where
`GroupRingElement.__mul__` reads an integer product table, and
`compose_open_t` multiplies open tensor sums atom pair by atom pair, where
`threefold.invert_open_t` applies the inversion factor by factor.
`print_expr` prints a parsed query back to source text, so that the tests
can check that parsing its print gives the same tree.
"""

from motive_calc import surface
from motive_calc.dsl import Compose, NamedAtom, Node, Scale, Sum, Transpose
from motive_calc.endos import SurfEnd, surf_end
from motive_calc.levels import _check_level
from motive_calc.sums import product
from motive_calc.surface import Atom, OpenAtom, OpenCorr, SurfCorr, compose_open_atoms
from motive_calc.threefold import OpenTAtom, OpenTCorr, _meet


def mu_minus1(n: int) -> SurfEnd:
    """Fiberwise inversion."""
    return surf_end(n, 0, 0, -1, False)


def tau_end(n: int, b1: int, b2: int) -> SurfEnd:
    """Translation by the torsion section b."""
    return surf_end(n, b1, b2, 1, False)


def tgraph(f: SurfEnd) -> Atom:
    """Transposed graph; for automorphisms this is the graph of the inverse."""
    if f.is_automorphism():
        return ("G", f.inv())
    return ("T", f)


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


def _open_t_pair(x: OpenTAtom, y: OpenTAtom, _level: int) -> tuple:
    lx, rx, ex = x
    fy, gy, swap = _meet(ex, *y)
    return (((compose_open_atoms(lx, fy), compose_open_atoms(rx, gy), swap), 1),)


def compose_open_t(after: OpenTCorr, before: OpenTCorr) -> OpenTCorr:
    return product(after, before, _open_t_pair)


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
