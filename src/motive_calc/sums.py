"""Formal sums with exact coefficients, their products, and the certificate recorder.

Every sum in the program is a `LinComb`: a correspondence, a divisor
class, a group-ring element, and a sum of pure tensors of those
(`tensor.TensorExpr`, whose atoms are the triples (A, B, swap)).  It is
a level and the canonical form (d, {atom: v}) of a sum of atoms, the
coefficient of an atom being v / d with v a nonzero integer, d >= 1 and
gcd(d, every v) = 1; so `==` compares ints.  A subclass only says how its
atoms sort and print, and which it takes: the constructor passes each atom
through `check`, and `over`, which builds every result, checks nothing.
As a tensor factor a subclass also says which atoms it refuses and whose
square the tensor drops (the protocol is stated in `tensor`).
Products are the bilinear extension of a rule on atom pairs (`bilinear`),
images under a map of atoms are `linear_map`, and both feed the one
accumulation loop, `collect`, which drops every atom whose numerator
cancels.  A product of x and y is over x.d * y.d, and `LinComb.over`
divides each result by its common factor with its d.

Only this module knows the form: a `Fraction` appears where a coefficient
enters (the constructor, `scale`) and where one leaves (`render`, and the
`terms` view).  The symbol d_a of the divisor actions is no coefficient:
d_a times the fiber is a basis class of its own (`surface.DA_FIBER`).

Every sum has a level.  `+`, `-` and the products of two sums of one class
(`surface.compose`, the `*` of open-part and Q[G] sums, `TensorExpr`'s
`compose`) take the other operand through the one `check_operand`: one of
another class raises TypeError, one of another level `LevelMismatchError`.
`product` checks the level only, as a divisor action multiplies two
classes.  A copy or a pickle of a sum holds its level, d and nums only.  Every equality
entry of every certificate is one `Certificate.check` of got against
want, and a failed one shows the residual got - want, capped at
`RESIDUAL_ATOMS` atoms.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable

from .exact import exact_rational, fmt_rational


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


class LinComb:
    """Finite combination of atoms with nonzero exact coefficients, at one level.

    It holds the canonical form: the coefficient of an atom is nums[atom] / d
    (see the module docstring).  Each subclass sets `label`, which prints
    one atom, and may override `sort_key`, the print order of atoms
    (natural order when None), and `ranges` or `check`, the atoms it takes.
    """

    __slots__ = ("level", "d", "nums", "_hash")
    sort_key = None
    ranges = None
    tensor_null = None  # as a tensor factor (`tensor`): the atom whose square the tensor drops, if any

    def __init__(self, level, terms: dict | None = None):
        """The sum of coeff * atom over the items of terms, each atom passed by `check`; a float raises TypeError."""
        self.check(level, terms or ())
        cs = [(atom, exact_rational(c)) for atom, c in (terms or {}).items()]
        # inputs in lowest terms over their lcm have no common factor left
        self.level, self.d, self._hash = level, lcm(*(c.denominator for _, c in cs)), None
        self.nums = {atom: c.numerator * (self.d // c.denominator) for atom, c in cs if c}

    @classmethod
    def over(cls, level, d: int, nums: dict):
        """The sum of nums[atom] / d, for d >= 1 and nonzero numerators, in canonical form.

        nums becomes the sum's own: it is divided in place by its common
        factor with d.
        """
        g = gcd(d, *nums.values())
        if g > 1:
            d //= g
            for atom, v in nums.items():
                nums[atom] = v // g
        obj = cls.__new__(cls)
        obj.level, obj.d, obj.nums, obj._hash = level, d, nums, None
        return obj

    @classmethod
    def check(cls, level, atoms) -> None:
        """Raise ValueError unless each atom (kind, *indices) has its indices in `ranges(level)[kind]`, if set; a range takes ints only."""
        if cls.ranges is None or not atoms:
            return
        ranges = cls.ranges(level)
        for atom in atoms:
            bounds = ranges.get(atom[0]) if type(atom) is tuple and atom else None
            if bounds is None or len(atom) != len(bounds) + 1:
                raise ValueError(f"unknown atom {atom!r}")
            for i, r in zip(atom[1:], bounds):  # a loop: a generator in all(...) costs twice as much
                if i not in r or (type(i) is not int and type(r) is range):
                    raise ValueError(f"{cls._printed(atom)} is outside level {level}")

    @classmethod
    def check_factor(cls, level, atoms) -> None:
        """Raise ValueError on the atoms this class refuses as tensor factors (`tensor`): none here."""

    @classmethod
    def _printed(cls, atom) -> str:
        """The atom's label, or its repr when a slot holds no value the label can read, such as no map."""
        try:
            return cls.label(atom)
        except (AttributeError, TypeError):
            return repr(atom)

    @classmethod
    def of(cls, level, atom, coeff=1):
        return cls(level, {atom: coeff})

    @classmethod
    def zero(cls, level):
        return cls(level)

    @property
    def terms(self) -> dict:
        """{atom: coefficient} as `Fraction`s: built at each read."""
        d = self.d
        return {atom: Fraction(v, d) for atom, v in self.nums.items()}

    def is_zero(self) -> bool:
        return not self.nums

    def check_level(self, other: "LinComb") -> None:
        if self.level != other.level:
            raise LevelMismatchError("operands of different levels")

    def check_operand(self, other) -> None:
        """The one check of the other operand of `+`, `-` or a product: TypeError for another class, else `check_level`."""
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(other).__name__} with {type(self).__name__}")
        self.check_level(other)

    def _plus(self, other: "LinComb", sign: int):
        """self + sign * other, over the lcm of the two denominators, after `check_operand`."""
        self.check_operand(other)
        d = lcm(self.d, other.d)
        kx, ky = d // self.d, sign * (d // other.d)
        nums = dict(self.nums) if kx == 1 else {atom: kx * v for atom, v in self.nums.items()}
        collect(other.nums.items() if ky == 1 else ((atom, ky * v) for atom, v in other.nums.items()), nums)
        return self.over(self.level, d, nums)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def scale(self, k):
        """k times the sum, for an exact rational k; a float raises TypeError."""
        k = exact_rational(k)
        if not k:
            return self.over(self.level, 1, {})
        m = k.numerator
        return self.over(self.level, self.d * k.denominator, {atom: m * v for atom, v in self.nums.items()})

    def __eq__(self, other: object) -> bool:
        return (type(other) is type(self) and self.level == other.level
                and self.d == other.d and self.nums == other.nums)

    def __hash__(self):
        # the support alone: equal sums share it, and hashing no coefficient is much cheaper;
        # computed once, since a sum is not changed after it is made
        if self._hash is None:
            self._hash = hash((self.level, frozenset(self.nums)))
        return self._hash

    def __reduce__(self):
        """A copy or pickle holds the level, d and nums only: what is derived from them, such as the hash, is not carried."""
        return type(self).over, (self.level, self.d, dict(self.nums))

    def render(self, limit: int | None = None) -> str:
        """The sum in print order; with a limit, only its first `limit` atoms and then "+ ..."."""
        if not self.nums:
            return "0"
        label, nums, d = self.label, self.nums, self.d
        atoms = sorted(nums, key=self.sort_key)
        shown = " + ".join(f"{fmt_rational(Fraction(nums[a], d))}*{label(a)}" for a in atoms[:limit])
        return shown if limit is None or len(atoms) <= limit else f"{shown} + ..."

    def __repr__(self) -> str:
        return f"{type(self).__name__}<{self.render()}>"


def product(x: LinComb, y: LinComb, rule: Callable, cls: type | None = None) -> LinComb:
    """Bilinear extension of `rule` to x and y, as a sum of type cls (default: x's), on their numerators."""
    x.check_level(y)
    terms = collect(bilinear(x.nums.items(), y.nums.items(), rule, x.level))
    return (cls or type(x)).over(x.level, x.d * y.d, terms)


def linear_map(x: LinComb, f: Callable, cls: type | None = None) -> LinComb:
    """Image of x under the atom map f; atoms that f sends to None drop out."""

    def images():
        for a, v in x.nums.items():
            b = f(a)
            if b is not None:
                yield b, v

    return (cls or type(x)).over(x.level, x.d, collect(images()))


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

    def check(self, name: str, law: str, got: LinComb, want: LinComb, cls: type | None = None) -> None:
        """Record whether the two sides of `law` are equal as sums.

        It holds when got == want, or else when got - want is zero by its
        own `is_zero`: a factored sum (`tensor.TensorExpr`) can differ
        from an equal sum in form, and its zero test decides it without
        expanding.  A failed entry shows that residual, expanded to a sum
        of type cls first when cls is given, as `residual` records it.
        """
        if got == want:
            self.record(name, law, True)
            return
        residual = got - want
        if residual.is_zero():
            self.record(name, law, True)
        else:
            self.residual(name, law, residual.expand(cls) if cls else residual)

    def residual(self, name: str, law: str, residual: LinComb) -> None:
        """Record `law` as failed with its nonzero residual got - want: its size and its first atoms."""
        self.record(name, law, False, f"got - want has {len(residual.nums)} atoms: {residual.render(RESIDUAL_ATOMS)}")
