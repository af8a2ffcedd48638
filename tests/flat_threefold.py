"""The flat threefold engine, kept as an oracle for the factored one.

It evaluates a threefold expression the way the program did before its
values were kept factored: every named atom is expanded to a `TCorr` at
once, products run atom pair by atom pair through `t_compose`, and
transposes atom by atom.  `expands_to_zero` decides a factored sum is zero
the way the certificate did before its zero test: by expanding it.
"""

from motive_calc.dsl import Compose, NamedAtom, Scale, Sum, Transpose, eval_expr
from motive_calc.sums import linear_map
from motive_calc.surface import transpose_atom
from motive_calc.threefold import (
    TAtom,
    TCorr,
    TensorExpr,
    _transposed,
    b_term_expr,
    pair_projector_expr,
    sigma_expr,
    split_sym_alt_exprs,
    t_compose,
    t_delta_expr,
)


def t_transpose_atom(atom: TAtom) -> TAtom:
    left, right, swap = atom
    return _transposed(transpose_atom(left), transpose_atom(right), swap)


def t_transpose(x: TCorr) -> TCorr:
    return linear_map(x, t_transpose_atom)


def expands_to_zero(x: TensorExpr) -> bool:
    """The expand-and-compare oracle of `TensorExpr.is_zero`."""
    return x.expand().is_zero()


def split_sym_alt(n: int) -> tuple[TCorr, TCorr]:
    alt, sym = split_sym_alt_exprs(n)
    return alt.expand(), sym.expand()


def flat_atom(atom: NamedAtom, n: int) -> TCorr:
    name, args = atom.name, atom.args
    if name == "Delta":
        return t_delta_expr(n).expand()
    if name == "sigma":
        return sigma_expr(n).expand()
    if name == "ptilde":
        return pair_projector_expr(n, *args).expand()
    if name in ("b1", "b2"):
        return b_term_expr(n, int(name[1])).expand()
    if name in ("alt11", "sym11"):
        return split_sym_alt(n)[name == "sym11"]
    if name == "T":
        a, b = (eval_expr(arg, n, "surface") for arg in args)
        return TensorExpr.pure(a, b).expand()
    raise ValueError(f"no flat value for {name!r}")


def flat_eval(node, n: int) -> TCorr:
    """The canonical TCorr of a parsed threefold expression, computed flat."""
    if isinstance(node, NamedAtom):
        return flat_atom(node, n)
    if isinstance(node, Scale):
        return flat_eval(node.node, n).scale(node.coeff)
    if isinstance(node, Transpose):
        return t_transpose(flat_eval(node.node, n))
    if isinstance(node, Compose):
        return t_compose(flat_eval(node.left, n), flat_eval(node.right, n))
    if isinstance(node, Sum):
        acc = TCorr.zero(n)
        for sign, part in node.parts:
            acc = acc + flat_eval(part, n).scale(sign)
        return acc
    raise TypeError(f"unknown node {node!r}")
