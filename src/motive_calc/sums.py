"""Formal sums with exact coefficients, their products, and the certificate recorder.

Every correspondence, divisor class and group-ring element is a `LinComb`:
a level and a dict from atoms to nonzero coefficients.  A subclass only
says how its atoms sort and print.  Products are the bilinear extension
of a rule on atom pairs (`bilinear`), images under a map of atoms are
`linear_map`, and both feed the one accumulation loop, `collect`, which
drops every atom whose coefficient cancels to zero.

A product of two sums with rational coefficients runs on integers.
`integral` writes each operand as a common denominator d (the lcm of its
denominators) and a list of (atom, integer numerator) terms, so the loop
multiplies and adds plain ints, with no gcd per atom pair.  `rationalize`
then turns the collected numerators back into `Fraction(v, dx * dy)` in
place: one normalization per atom of the result.  The stored coefficients
are `Fraction`s in lowest terms as before; `exact` states that contract.
`bilinear` and `collect` are generic over the coefficient ring, so the
divisor actions, whose coefficients are linear in d_a, feed the same loop
directly.  `tensor_vanishes` decides whether a sum of pure tensors of
such integer vectors is zero without forming the tensors; a quotient,
such as the dropped V (x) V of the threefold atoms, is the caller's one
extra part.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable

from .exact import fmt_rational


class LevelMismatchError(ValueError):
    """Two elements from different levels were combined."""


def collect(pairs: Iterable[tuple], out: dict | None = None) -> dict:
    """Add (atom, coeff) pairs, each coeff nonzero, into out; cancelled atoms drop out."""
    if out is None:
        out = {}
    get = out.get
    for atom, c in pairs:
        old = get(atom)
        if old is None:
            out[atom] = c
            continue
        c = old + c
        if c:
            out[atom] = c
        else:
            del out[atom]
    return out


def integral(terms: dict) -> tuple[int, list]:
    """(d, [(atom, v)]) with d the lcm of the denominators of terms and each coeff = v/d."""
    d = lcm(*{c.denominator for c in terms.values()})
    return d, [(atom, c.numerator * (d // c.denominator)) for atom, c in terms.items()]


def rationalize(out: dict, d: int) -> dict:
    """Replace each integer numerator v of out by Fraction(v, d), in place.

    Equal numerators share one Fraction: a projector has few distinct coefficients.
    """
    made: dict = {}
    for atom, v in out.items():
        q = made.get(v)
        if q is None:
            q = made[v] = Fraction(v, d)
        out[atom] = q
    return out


def bilinear(xs: Iterable[tuple], ys: Iterable[tuple], rule: Callable, level: int):
    """The (atom, coeff) terms of every product of a term of xs with a term of ys.

    `rule(a, b, level)` gives the product of two atoms as (atom, k) pairs
    with k nonzero, or None for zero.  ys is iterated once per term of xs.
    """
    for a, ca in xs:
        for b, cb in ys:
            produced = rule(a, b, level)
            if produced:
                c = ca * cb
                for atom, k in produced:
                    # most rule coefficients are 1; a multiply costs as much as the rest
                    yield atom, (c if k == 1 else c * k)


def combination(scaled: Iterable[tuple]) -> tuple[Fraction, dict]:
    """(q, r) with sum_i k_i x_i = q r, for pairs (k_i, x_i) of a nonzero rational and an integer vector."""
    scaled = list(scaled)
    d = lcm(*(k.denominator for k, _ in scaled))
    out: dict = {}
    for k, x in scaled:
        m = k.numerator * (d // k.denominator)
        collect(((atom, m * v) for atom, v in x.items()), out)
    return Fraction(1, d), out


def tensor_vanishes(groups: Iterable[tuple]) -> bool:
    """Whether the sum over the groups (d, a, [(k_j, b_j)]) of (a / d) (x) sum_j k_j b_j is zero.

    a and the b_j are integer vectors ({atom: int}), d a positive integer
    and the k_j nonzero rationals.  The left factors are brought to an
    echelon basis by fraction-free elimination on integer rows, each
    reduced row divided by its content.  A left factor is q row; reducing
    row against a basis row b with pivot value p at the pivot atom, where
    row holds x, is
        q row = (q / p) (p row - x b) + (q x / p) b,
    so the right sum of the group is collected on b with weight q x / p.
    A row left nonzero joins the basis with its right sum.  The basis rows
    are independent, so the tensor is zero iff every collected right sum is.
    """
    basis: list = []  # (pivot atom, pivot value, row, [(weight, right sum)])
    for d, row, rights in groups:
        q, right = combination(rights)
        if not right:
            continue
        q /= d
        for pivot, p, b, collected in basis:
            x = row.get(pivot)
            if not x:
                continue
            collected.append((q * x / p, right))
            reduced = {atom: p * v for atom, v in row.items()}
            collect(((atom, -x * v) for atom, v in b.items()), reduced)
            g = gcd(*reduced.values())
            row, q = ({atom: v // g for atom, v in reduced.items()} if g > 1 else reduced), q * g / p
            if not row:
                break
        if row:
            pivot = next(iter(row))
            basis.append((pivot, row[pivot], row, [(q, right)]))
    return not any(combination(collected)[1] for _, _, _, collected in basis)


class LinComb:
    """Finite combination of atoms with nonzero exact coefficients, at one level.

    Each subclass sets `label`, which prints one atom, and may override
    `sort_key` (the print order of atoms; natural order when None), `fmt`
    (prints one coefficient) and `cast` (normalizes an input coefficient).
    """

    __slots__ = ("level", "terms", "_hash")
    sort_key = None
    fmt = staticmethod(fmt_rational)
    cast = Fraction

    def __init__(self, level, terms: dict | None = None):
        self.level = level
        self._hash = None
        self.terms: dict = {}
        if terms:
            cast = self.cast
            for atom, c in terms.items():
                c = cast(c)
                if c:
                    self.terms[atom] = c

    @classmethod
    def _make(cls, level, terms: dict):
        """Wrap a dict whose coefficients are already cast and nonzero."""
        obj = cls.__new__(cls)
        obj.level = level
        obj.terms = terms
        obj._hash = None
        return obj

    @classmethod
    def of(cls, level, atom, coeff=1):
        return cls(level, {atom: coeff})

    @classmethod
    def zero(cls, level):
        return cls(level)

    def is_zero(self) -> bool:
        return not self.terms

    def check_level(self, other: "LinComb") -> None:
        if self.level != other.level:
            raise LevelMismatchError("operands of different levels")

    def __add__(self, other):
        self.check_level(other)
        return self._make(self.level, collect(other.terms.items(), dict(self.terms)))

    def __sub__(self, other):
        self.check_level(other)
        return self._make(self.level, collect(((a, -c) for a, c in other.terms.items()), dict(self.terms)))

    def scale(self, k):
        k = Fraction(k)
        if not k:
            return self._make(self.level, {})
        return self._make(self.level, {a: c * k for a, c in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.level == other.level and self.terms == other.terms

    def __hash__(self):
        # the support alone: equal sums share it, and hashing no coefficient is much cheaper;
        # computed once, since a sum's terms are not changed after it is made
        if self._hash is None:
            self._hash = hash((self.level, frozenset(self.terms)))
        return self._hash

    def render(self, limit: int | None = None) -> str:
        """The sum in print order; with a limit, only its first `limit` atoms and then "+ ..."."""
        if not self.terms:
            return "0"
        fmt, label, terms = self.fmt, self.label, self.terms
        atoms = sorted(terms, key=self.sort_key)
        shown = " + ".join(f"{fmt(terms[a])}*{label(a)}" for a in atoms[:limit])
        return shown if limit is None or len(atoms) <= limit else f"{shown} + ..."

    def __repr__(self) -> str:
        return f"{type(self).__name__}<{self.render()}>"


def product(x: LinComb, y: LinComb, rule: Callable, cls: type | None = None) -> LinComb:
    """Bilinear extension of `rule` to rational sums x and y, as a sum of type cls (default: x's)."""
    x.check_level(y)
    dx, xs = integral(x.terms)
    dy, ys = integral(y.terms)
    terms = rationalize(collect(bilinear(xs, ys, rule, x.level)), dx * dy)
    return (cls or type(x))._make(x.level, terms)


def linear_map(x: LinComb, f: Callable, cls: type | None = None) -> LinComb:
    """Image of x under the atom map f; atoms that f sends to None drop out."""

    def images():
        for a, c in x.terms.items():
            b = f(a)
            if b is not None:
                yield b, c

    return (cls or type(x))._make(x.level, collect(images()))


RESIDUAL_ATOMS = 8  # the atoms of a failed entry's residual that its "got" shows


class Certificate:
    """Records checked laws as report entries, in the order they are checked."""

    def __init__(self) -> None:
        self.entries: list[dict] = []

    def record(self, name: str, law: str, ok: bool, detail: str = "") -> None:
        """Add the entry of `law`, written "lhs = rhs"; a failed one keeps detail as "got"."""
        lhs, _, rhs = law.rpartition(" = ")
        entry = {"name": name, "lhs": lhs, "rhs": rhs, "status": "pass" if ok else "fail"}
        if not ok and detail:
            entry["got"] = detail
        self.entries.append(entry)

    def equal(self, name: str, law: str, got: LinComb, want: LinComb) -> None:
        """Record whether the two sides of `law` are equal as sums.

        A failed entry shows the residual got - want, as `residual` records it.
        """
        if got == want:
            self.record(name, law, True)
        else:
            self.residual(name, law, got - want)

    def vanishes(self, name: str, law: str, got, want, cls: type | None = None) -> None:
        """Record whether the two sides of `law`, factored sums (`threefold.TensorExpr`), are equal.

        It is decided by the zero test of got - want.  Only a failed entry
        expands that residual, as a sum of type cls when given, and shows it
        as `residual` records it.
        """
        residual = got - want
        if residual.is_zero():
            self.record(name, law, True)
        else:
            self.residual(name, law, residual.expand(cls))

    def settle(self, name: str, law: str, residual: LinComb) -> None:
        """Record `law` from its residual got - want, computed by the caller: it holds iff that is zero."""
        if residual.is_zero():
            self.record(name, law, True)
        else:
            self.residual(name, law, residual)

    def residual(self, name: str, law: str, residual: LinComb) -> None:
        """Record `law` as failed with its nonzero residual got - want: its size and its first atoms."""
        self.record(name, law, False, f"got - want has {len(residual.terms)} atoms: {residual.render(RESIDUAL_ATOMS)}")
