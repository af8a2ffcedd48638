"""The DSL parser and evaluator as they once were, kept as oracles.

`parse_by_tokens(source, mode)` tokenizes the source into one token per
punctuation mark, name and integer, so `G(1,2,-1)` is 8 tokens, and parses
them as `dsl.parse_expr` does.  `dsl.parse_expr` must give the same tree
for every source, or raise the same exception type with the same message
and position.  Name and argument checks are the program's own
(`dsl._constructor`), so the two parsers differ only in how they read the
text.

`eval_by_running_sums(node, n, mode)` evaluates a tree as `dsl.eval_expr`
did before a sum was folded once over one denominator: a `Sum` node adds
its parts one at a time into a running sum (`acc + value`), each part
negated by `scale(-1)` and each `Scale` part scaled by `scale(q)` first,
so every part copies the sum so far.  Named atoms are the program's own
(`dsl._eval_atom`), except that the arguments of T(a,b) are evaluated here
too.
"""

import re
from fractions import Fraction

from motive_calc.dsl import (
    _ATOMS,
    _eval_atom,
    _FOREIGN,
    Compose,
    NamedAtom,
    Node,
    ParseError,
    Scale,
    Sum,
    Transpose,
    UnknownAtomError,
    _arity_error,
    _constructor,
)
from motive_calc.surface import SurfCorr, compose, transpose
from motive_calc.threefold import TensorExpr

# one token per match, after its ASCII whitespace: a punctuation mark, a name, an integer,
# or any other character, which is an error; trailing whitespace matches nothing
_TOKEN = re.compile(r"\s*(?:([-+*/.(),])|([A-Za-z_]\w*)|(\d+)|(\S))", re.ASCII)


def tokenize(source: str) -> list[tuple[str, object, int]]:
    """(kind, value, position) tokens of source, ASCII only; kind is "int", "name", the punctuation mark, or "end"."""
    tokens = []
    for match in _TOKEN.finditer(source):
        group = match.lastindex
        text = match[group]
        pos = match.start(group)
        if group == 1:
            tokens.append((text, text, pos))
        elif group == 2:
            tokens.append(("name", text, pos))
        elif group == 3:
            tokens.append(("int", int(text), pos))
        else:
            raise ParseError(f"unexpected character {text!r}", pos)
    tokens.append(("end", None, len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str, mode: str):
        self.tokens = tokenize(source)
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
            coeff = Fraction(num_tok[1])
            if self.accept("/"):
                den_tok = self.expect("int")
                if not den_tok[1]:
                    raise ParseError("zero denominator", den_tok[2])
                coeff /= den_tok[1]
            if not self.accept("*"):
                raise ParseError("a scalar must be followed by '*'", num_tok[2])
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
        if tok[0] == "name":
            self.next()
            name = tok[1]
            if name == "t":
                self.expect("(")
                inner = self.expr()
                self.expect(")")
                return Transpose(inner)
            if name in _FOREIGN[self.mode]:
                raise UnknownAtomError(f"{name!r} is not a {self.mode} name", tok[2])
            entry = _ATOMS[self.mode].get(name)  # None for T(a,b), which is checked when evaluated
            if entry is None and name != "T":
                raise UnknownAtomError(f"unknown {self.mode} atom {name!r}", tok[2])
            args = []
            if self.accept("("):
                if entry is not None and not entry[0]:
                    # before its arguments, which need not parse: mu0(x)
                    raise _arity_error(name, 0, tok[2])
                outer, self.mode = self.mode, "surface" if name == "T" else self.mode
                args.append(self.arg())
                while self.accept(","):
                    args.append(self.arg())
                self.expect(")")
                self.mode = outer
            atom = NamedAtom(name, tuple(args))
            if entry is not None:
                _constructor(atom, self.mode, tok[2])
            return atom
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


def parse_by_tokens(source: str, mode: str = "surface") -> Node:
    if mode not in ("surface", "threefold"):
        raise ValueError("mode must be 'surface' or 'threefold'")
    return _Parser(source, mode).parse()


def eval_by_running_sums(node: Node, n: int, mode: str = "surface"):
    """The value of node as `dsl.eval_expr` once computed it, each sum a running sum of its parts."""
    surface = mode == "surface"
    memo: dict = {}

    def ev(x: Node):
        if isinstance(x, NamedAtom):
            if x.name == "T" and not surface and len(x.args) == 2 and not any(isinstance(a, int) for a in x.args):
                return TensorExpr.pure(*(eval_by_running_sums(a, n) for a in x.args))
            return _eval_atom(x, n, mode)
        if isinstance(x, Scale):
            return ev(x.node).scale(x.coeff)
        if isinstance(x, Transpose):
            inner = ev(x.node)
            return transpose(inner) if surface else inner.transpose()
        if isinstance(x, Compose):
            left, right = ev(x.left), ev(x.right)
            return compose(left, right) if surface else left.compose(right, memo)
        if isinstance(x, Sum):
            acc = SurfCorr.zero(n) if surface else TensorExpr(n)
            for sign, part in x.parts:
                value = ev(part)
                acc = acc + (value if sign == 1 else value.scale(-1))
            return acc
        raise TypeError(f"unknown node {x!r}")

    value = ev(node)
    return value if surface else value.expand()
