"""Small expression language for interactive evaluation of correspondences.

Grammar (composition binds tighter than sums; '.' chains associate left):

    expr   := ['-'] term (('+' | '-') term)*
    term   := (rational '*')? factor ('.' factor)*
    factor := 't' '(' expr ')' | name ('(' args ')')? | '(' expr ')'
    args   := arg (',' arg)*     arg := signed integer | expr

Surface names: Delta, V, mu0, G(b1,b2,s), pi0, pi1, pi2, piF, piInf,
piC(c), CP(c,m,n).  Threefold names: Delta (the tensor diagonal), sigma,
ptilde(i1,i2), b1, b2, alt11, sym11, and the tensor constructor T(a,b)
whose arguments are surface expressions.  `parse_expr(source, mode)`
rejects, with its position, a name that only the other mode knows: a
threefold name in surface mode, a surface name outside T(...) in
threefold mode.  It also rejects an unknown name and a wrong number of
integer arguments, so a bad query stops before any product is computed.
A call whose arguments are all integers, such as G(1,2,-1), is one token.
Argument values are checked when evaluated, the first time their atom is
built: the sign s of G(b1,b2,s) by `surf_end`, and a cusp index by the
check of the sum's constructor.  The indices b1, b2 of G and m, n of
CP(c,m,n) wrap mod N; the cusp c does not.  The value of a named atom
that is a sum is built once per process, per mode, level and arguments
with the wrapped indices reduced, and a build that raises is not kept.
alt11 and sym11 are products, so they are built again at each query and
a patched rule reaches them.  Products, sums and transposes of the named
values are built from checked operands and not checked again.  A sum is
folded once: each part's numerators, times an integer multiplier (its
sign, times the coefficient of a scaled part), are collected into one
dict over the lcm of the parts' denominators, and the result is built
from it, with no running sum; a part scaled by 0 adds nothing.

A threefold value stays factored, a `TensorExpr`, through the whole
expression, and is expanded to its canonical `TCorr` once, at the end.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Union

from .endos import mu0 as mu0_end, surf_end
from .exact import exact_rational
from .levels import _check_level
from .sums import collect
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
)
from .tensor import TensorExpr
from .threefold import (
    TCorr,
    b_term_expr,
    pair_projector_expr,
    sigma_expr,
    split_sym_alt_exprs,
    t_delta_expr,
)


class _PositionedError(ValueError):
    """An error in a query, at the position of its token when the parser finds it."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position


class ParseError(_PositionedError):
    """Source text that is not an expression."""


class UnknownAtomError(_PositionedError):
    """A name the mode does not know."""


class EvalError(_PositionedError):
    """A name with the wrong arguments, or arguments out of range."""


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

# one token per match, after its ASCII whitespace: a name, with the parenthesized arguments after it
# when they are all integers, each with an optional '-' against its digits and the name is not t; a
# punctuation mark; an integer; or any other character, which is an error.  Trailing whitespace
# matches nothing.
_TOKEN = re.compile(
    r"\s*(?:([A-Za-z_]\w*)(?:(?<!\bt)\s*\(((?:\s*-?\d+\s*,)*\s*-?\d+\s*)\))?|([-+*/.(),])|(\d+)|(\S))",
    re.ASCII,
)


def _tokenize(source: str) -> list[tuple]:
    """(kind, value, position) tokens of source, ASCII only; kind is "int", "name", the punctuation mark, or "end".

    A call on integer arguments is one token ("call", name, position,
    args), which parses as the name, its parenthesized arguments and the
    integer tokens of those arguments would.
    """
    tokens = []
    for match in _TOKEN.finditer(source):
        group = match.lastindex
        text = match[group]
        pos = match.start(group)
        if group == 3:
            tokens.append((text, text, pos))
        elif group == 1:
            tokens.append(("name", text, pos))
        elif group == 2:
            tokens.append(("call", match[1], match.start(1), tuple(map(int, text.split(",")))))
        elif group == 4:
            tokens.append(("int", int(text), pos))
        else:
            raise ParseError(f"unexpected character {text!r}", pos)
    tokens.append(("end", None, len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str, mode: str):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.mode = mode  # "surface" inside the arguments of T(...)

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def next(self) -> tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, kind: str) -> bool:
        """Consume the next token if it is of this kind."""
        if self.peek()[0] != kind:
            return False
        self.pos += 1
        return True

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
        parts = [(-1 if self.accept("-") else 1, self.term())]
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
            num_tok = self.next()
            den = 1
            if self.accept("/"):
                den_tok = self.expect("int")
                den = den_tok[1]
                if not den:
                    raise ParseError("zero denominator", den_tok[2])
            if not self.accept("*"):
                raise ParseError("a scalar must be followed by '*'", num_tok[2])
            coeff = Fraction(num_tok[1], den)
        node = self.factor()
        while self.accept("."):
            node = Compose(node, self.factor())
        if coeff is not None:
            node = Scale(coeff, node)
        return node

    def factor(self) -> Node:
        if self.accept("("):
            node = self.expr()
            self.expect(")")
            return node
        tok = self.peek()
        kind = tok[0]
        if kind == "name" or kind == "call":
            self.pos += 1
            name = tok[1]
            if name == "t":  # never a call: t(1) is no transpose, and fails as the expression 1
                self.expect("(")
                inner = self.expr()
                self.expect(")")
                return Transpose(inner)
            if name in _FOREIGN[self.mode]:
                raise UnknownAtomError(f"{name!r} is not a {self.mode} name", tok[2])
            entry = _ATOMS[self.mode].get(name)  # None for T(a,b), which is checked when evaluated
            if entry is None and name != "T":
                raise UnknownAtomError(f"unknown {self.mode} atom {name!r}", tok[2])
            args = ()
            if kind == "call" or self.accept("("):
                if entry is not None and not entry[0]:
                    # before its arguments, which need not parse: mu0(x)
                    raise _arity_error(name, 0, tok[2])
                args = tok[3] if kind == "call" else self.args("surface" if name == "T" else self.mode)
            atom = NamedAtom(name, args)
            if entry is not None:
                _constructor(atom, self.mode, tok[2])
            return atom
        raise ParseError(f"expected a factor, found {tok[1]!r}", tok[2])

    def args(self, mode: str) -> tuple:
        """The arguments after a name's '(', through its ')', parsed in mode."""
        outer, self.mode = self.mode, mode
        args = [self.arg()]
        while self.accept(","):
            args.append(self.arg())
        self.expect(")")
        self.mode = outer
        return tuple(args)

    def arg(self):
        # an integer beside arguments that are not, as in G(1,2,x), is an integer; anything else is a sub-expression
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
    return _Parser(source, mode).parse()


# -- evaluator ---------------------------------------------------------------

def _pair_projector(n: int, i1: int, i2: int) -> TensorExpr:
    if not (0 <= i1 <= 2 and 0 <= i2 <= 2):
        raise EvalError("ptilde indices must lie in 0..2")
    return pair_projector_expr(n, i1, i2)


# name -> (number of integer arguments, value from the level and those arguments)
_SURFACE_ATOMS = {
    "Delta": (0, delta),
    "V": (0, lambda n: SurfCorr.of(n, VERT)),
    "mu0": (0, lambda n: SurfCorr.of(n, graph(mu0_end(n)))),
    "pi0": (0, lambda n: build_pi_bars(n)["pi0"]),
    "pi1": (0, lambda n: build_pi_bars(n)["pi1"]),
    "pi2": (0, lambda n: build_pi_bars(n)["pi2"]),
    "piF": (0, build_pi_f),
    "piInf": (0, build_pi_inf),
    "G": (3, lambda n, b1, b2, s: SurfCorr.of(n, graph(surf_end(n, b1, b2, s)))),
    "piC": (1, build_pi_cusp),
    "CP": (3, lambda n, c, m, k: SurfCorr.of(n, cusp_prod(c, m % n, k % n))),
}
_THREEFOLD_ATOMS = {
    "Delta": (0, t_delta_expr),
    "sigma": (0, sigma_expr),
    "b1": (0, lambda n: b_term_expr(n, 1)),
    "b2": (0, lambda n: b_term_expr(n, 2)),
    "alt11": (0, lambda n: split_sym_alt_exprs(n)[0]),
    "sym11": (0, lambda n: split_sym_alt_exprs(n)[1]),
    "ptilde": (2, _pair_projector),
}
_ATOMS = {"surface": _SURFACE_ATOMS, "threefold": _THREEFOLD_ATOMS}
# what the parser rejects in each mode: the names only the other mode knows
_FOREIGN = {
    "surface": (_THREEFOLD_ATOMS.keys() | {"T"}) - _SURFACE_ATOMS.keys(),
    "threefold": _SURFACE_ATOMS.keys() - _THREEFOLD_ATOMS.keys(),
}


def _arity_error(name: str, count: int, position: int | None) -> EvalError:
    message = f"{name} expects {count} integer arguments" if count else f"{name} takes no arguments"
    return EvalError(message, position)


def _constructor(atom: NamedAtom, mode: str, position: int | None = None):
    """The constructor of a named atom other than T, once its name and integer arguments are checked.

    The parser calls it with the position of the name; `_eval_atom` again, for trees built by hand,
    unless the atom's value is already stored.  A bool is no integer argument.
    """
    entry = _ATOMS[mode].get(atom.name)
    if entry is None:
        raise UnknownAtomError(f"unknown {mode} atom {atom.name!r}", position)
    count, build = entry
    if len(atom.args) != count:
        raise _arity_error(atom.name, count, position)
    for a in atom.args:  # a loop: a generator in all(...) costs more, twice per atom of a query
        if type(a) is not int:
            raise _arity_error(atom.name, count, position)
    return build


# the named values that are products: built again at each query, so that a patched rule reaches them
_PRODUCTS = frozenset({"alt11", "sym11"})


@lru_cache(maxsize=None)
def _named_sum(mode: str, name: str, n: int, args: tuple):
    """The value of a named atom that is a sum, built once per process; its indices that wrap mod N are reduced.

    A build that raises is not stored, so a stored key names a checked atom.
    """
    return _constructor(NamedAtom(name, args), mode)(n, *args)


def _eval_atom(atom: NamedAtom, n: int, mode: str):
    name, args = atom.name, atom.args
    if name == "T" and mode == "threefold":
        if len(args) != 2 or any(isinstance(a, int) for a in args):
            raise EvalError("T(a,b) expects two surface expressions")
        return TensorExpr.pure(*(eval_expr(a, n, mode="surface") for a in args))
    stored = name not in _PRODUCTS
    for a in args:
        if type(a) is not int:  # True or 1.0 would find the value stored at 1; `_constructor` refuses it
            stored = False
    if not stored:
        return _constructor(atom, mode)(n, *args)
    if len(args) == 3:  # b1, b2 of G(b1,b2,s) and m, n of CP(c,m,n) wrap mod N
        if name == "G":
            args = (args[0] % n, args[1] % n, args[2])
        elif name == "CP":
            args = (args[0], args[1] % n, args[2] % n)
    return _named_sum(mode, name, n, args)


def eval_expr(node: Node, n: int, mode: str = "surface"):
    """Evaluate to a canonical SurfCorr (surface mode) or TCorr (threefold)."""
    _check_level(n)
    surface = mode == "surface"
    memo: dict = {}  # the surface products of the factors of threefold values

    def ev(x: Node):
        if isinstance(x, NamedAtom):
            return _eval_atom(x, n, mode)
        if isinstance(x, Scale):
            return ev(x.node).scale(x.coeff)
        if isinstance(x, Transpose):
            return ev(x.node).transpose()
        if isinstance(x, Compose):
            left, right = ev(x.left), ev(x.right)
            return compose(left, right) if surface else left.compose(right, memo)
        if isinstance(x, Sum):
            # each part is m/q times its value's numerators, m an integer: folded once, over the lcm of the q
            parts = []
            for sign, part in x.parts:
                scaled = isinstance(part, Scale)
                value = ev(part.node if scaled else part)
                k = exact_rational(part.coeff) if scaled else 1  # checked as `scale` checks it
                if k and value.nums:
                    parts.append((value.nums, k.numerator if sign == 1 else -k.numerator, value.d * k.denominator))
            d = lcm(*(q for _, _, q in parts))
            nums: dict = {}
            for terms, m, q in parts:
                m *= d // q
                # m.__mul__ on the int numerators: the pairs are made in C, with no generator frame per atom
                collect(terms.items() if m == 1 else zip(terms, map(m.__mul__, terms.values())), nums)
            return (SurfCorr if surface else TensorExpr).over(n, d, nums)
        raise TypeError(f"unknown node {x!r}")

    value = ev(node)
    return value if surface else value.expand(TCorr)


def evaluate(source: str, n: int, mode: str = "surface"):
    return eval_expr(parse_expr(source, mode), n, mode)
