"""Small expression language for interactive evaluation of correspondences.

Grammar (composition binds tighter than sums; '.' chains associate left):

    expr   := ['-'] term (('+' | '-') term)*
    term   := (rational '*')? factor ('.' factor)*
    factor := 't' '(' expr ')' | name ('(' args ')')? | '(' expr ')'
    args   := arg (',' arg)*     arg := signed integer | expr

Surface names: Delta, V, mu0, G(b1,b2,s), pi0, pi1, pi2, piF, piInf,
piC(c), CP(c,m,n).  Threefold mode adds Delta (the tensor diagonal),
sigma, ptilde(i1,i2), b1, b2, alt11, sym11, and the tensor constructor
T(a,b) whose arguments are surface expressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .endos import mu0 as mu0_end
from .endos import surf_end
from .levels import cusp_count
from .surface import (
    SurfCorr,
    VERT,
    build_pi_bars,
    build_pi_cusp,
    build_pi_f,
    build_pi_inf,
    compose,
    cusp_prod,
    delta,
    graph,
    transpose,
)
from .threefold import (
    TCorr,
    TensorExpr,
    b_term_expr,
    pair_projector_expr,
    sigma_expr,
    split_sym_alt,
    t_compose,
    t_delta_expr,
    t_transpose,
)


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownAtomError(ValueError):
    pass


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class NamedAtom:
    name: str
    args: tuple = ()


@dataclass(frozen=True)
class Scale:
    coeff: Fraction
    node: "Node"


@dataclass(frozen=True)
class Compose:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Transpose:
    node: "Node"


@dataclass(frozen=True)
class Sum:
    parts: tuple  # of (sign, Node)


Node = Union[NamedAtom, Scale, Compose, Transpose, Sum]


# -- tokenizer ---------------------------------------------------------------

_PUNCT = "+-*/.(),"


def _tokenize(source: str) -> list[tuple[str, object, int]]:
    tokens = []
    i = 0
    while i < len(source):
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(source) and source[j].isdigit():
                j += 1
            tokens.append(("int", int(source[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(source) and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("name", source[i:j], i))
            i = j
            continue
        if ch in _PUNCT:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def next(self) -> tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return node

    def expr(self) -> Node:
        parts = []
        sign = 1
        if self.peek()[0] == "-":
            self.next()
            sign = -1
        parts.append((sign, self.term()))
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            parts.append((1 if op == "+" else -1, self.term()))
        if len(parts) == 1 and parts[0][0] == 1:
            return parts[0][1]
        return Sum(tuple(parts))

    def term(self) -> Node:
        coeff = None
        if self.peek()[0] == "int":
            # rational scalar '*' prefix
            save = self.pos
            num = self.next()[1]
            if self.peek()[0] == "/":
                self.next()
                den_tok = self.expect("int")
                if not den_tok[1]:
                    raise ParseError("zero denominator", den_tok[2])
                coeff = Fraction(num, den_tok[1])
            else:
                coeff = Fraction(num)
            if self.peek()[0] == "*":
                self.next()
            else:
                raise ParseError("a scalar must be followed by '*'", self.tokens[save][2])
        node = self.factor()
        while self.peek()[0] == ".":
            self.next()
            node = Compose(node, self.factor())
        if coeff is not None:
            node = Scale(coeff, node)
        return node

    def factor(self) -> Node:
        tok = self.peek()
        if tok[0] == "(":
            self.next()
            node = self.expr()
            self.expect(")")
            return node
        if tok[0] == "name":
            self.next()
            name = tok[1]
            if name == "t":
                self.expect("(")
                inner = self.expr()
                self.expect(")")
                return Transpose(inner)
            args: tuple = ()
            if self.peek()[0] == "(":
                self.next()
                collected = []
                while True:
                    collected.append(self.arg())
                    if self.peek()[0] == ",":
                        self.next()
                        continue
                    break
                self.expect(")")
                args = tuple(collected)
            return NamedAtom(name, args)
        raise ParseError(f"expected a factor, found {tok[1]!r}", tok[2])

    def arg(self):
        # integer arguments are the common case; anything else is a sub-expression
        tok = self.peek()
        if tok[0] == "int" and self.tokens[self.pos + 1][0] in (",", ")"):
            self.next()
            return tok[1]
        if tok[0] == "-" and self.tokens[self.pos + 1][0] == "int" and self.tokens[self.pos + 2][0] in (",", ")"):
            self.next()
            return -self.next()[1]
        return self.expr()


def parse_expr(source: str, mode: str = "surface") -> Node:
    if mode not in ("surface", "threefold"):
        raise ValueError("mode must be 'surface' or 'threefold'")
    return _Parser(source).parse()


# -- printer -----------------------------------------------------------------

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


# -- evaluator ---------------------------------------------------------------

def _int_args(atom: NamedAtom, count: int) -> tuple:
    if len(atom.args) != count or not all(isinstance(a, int) for a in atom.args):
        raise EvalError(f"{atom.name} expects {count} integer arguments")
    return atom.args


def _eval_surface_atom(atom: NamedAtom, n: int) -> SurfCorr:
    name = atom.name
    if name == "Delta":
        return delta(n)
    if name == "V":
        return SurfCorr.of(n, VERT)
    if name == "mu0":
        return SurfCorr.of(n, ("G", mu0_end(n)))
    if name == "G":
        b1, b2, s = _int_args(atom, 3)
        if s not in (1, -1):
            raise EvalError("G(b1,b2,s) needs s = 1 or -1")
        return SurfCorr.of(n, graph(surf_end(n, b1, b2, s, False)))
    if name in ("pi0", "pi1", "pi2"):
        return build_pi_bars(n)[name]
    if name == "piF":
        return build_pi_f(n)
    if name == "piInf":
        return build_pi_inf(n)
    if name == "piC":
        (c,) = _int_args(atom, 1)
        if not 0 <= c < cusp_count(n):
            raise EvalError(f"cusp index {c} out of range")
        return build_pi_cusp(n, c)
    if name == "CP":
        c, m, k = _int_args(atom, 3)
        if not 0 <= c < cusp_count(n):
            raise EvalError(f"cusp index {c} out of range")
        return SurfCorr.of(n, cusp_prod(c, m % n, k % n))
    raise UnknownAtomError(f"unknown surface atom {name!r}")


def _eval_threefold_atom(atom: NamedAtom, n: int) -> TCorr:
    name = atom.name
    if name == "Delta":
        return t_delta_expr(n).expand()
    if name == "sigma":
        return sigma_expr(n).expand()
    if name == "ptilde":
        i1, i2 = _int_args(atom, 2)
        if not (0 <= i1 <= 2 and 0 <= i2 <= 2):
            raise EvalError("ptilde indices must lie in 0..2")
        return pair_projector_expr(n, i1, i2).expand()
    if name == "b1":
        return b_term_expr(n, 1).expand()
    if name == "b2":
        return b_term_expr(n, 2).expand()
    if name == "alt11":
        return split_sym_alt(n)[0]
    if name == "sym11":
        return split_sym_alt(n)[1]
    if name == "T":
        if len(atom.args) != 2:
            raise EvalError("T(a,b) expects two surface expressions")
        left = _as_node(atom.args[0])
        right = _as_node(atom.args[1])
        a = eval_expr(left, n, mode="surface")
        b = eval_expr(right, n, mode="surface")
        return TensorExpr.pure(a, b).expand()
    raise UnknownAtomError(f"unknown threefold atom {name!r}")


def _as_node(arg) -> Node:
    if isinstance(arg, int):
        raise EvalError("expected an expression argument, found an integer")
    return arg


def eval_expr(node: Node, n: int, mode: str = "surface"):
    """Evaluate to a canonical SurfCorr (surface mode) or TCorr (threefold)."""
    surface = mode == "surface"
    zero = SurfCorr.zero(n) if surface else TCorr.zero(n)

    def ev(x: Node):
        if isinstance(x, NamedAtom):
            return _eval_surface_atom(x, n) if surface else _eval_threefold_atom(x, n)
        if isinstance(x, Scale):
            return ev(x.node).scale(x.coeff)
        if isinstance(x, Transpose):
            inner = ev(x.node)
            return transpose(inner) if surface else t_transpose(inner)
        if isinstance(x, Compose):
            left, right = ev(x.left), ev(x.right)
            return compose(left, right) if surface else t_compose(left, right)
        if isinstance(x, Sum):
            acc = zero
            for sign, part in x.parts:
                value = ev(part)
                acc = acc + (value if sign == 1 else value.scale(-1))
            return acc
        raise TypeError(f"unknown node {x!r}")

    return ev(node)


def evaluate(source: str, n: int, mode: str = "surface"):
    return eval_expr(parse_expr(source, mode), n, mode)
