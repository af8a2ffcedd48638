"""Sums of pure tensors (A (x) B).swap^e, for A and B sums of one factor class.

The threefold is the fibre product of the surface with itself, so its
correspondences are sums of tensors a (x) b of surface correspondences.
Its symmetry ring Q[G^2 x| S_2] = (Q[G] (x) Q[G]) x| S_2 is the same
algebra with Q[G] factors, and the parity rows of the threefold
certificate use it with open-part factors.  A `TensorExpr` is a `LinComb`
whose atoms are the triples (A, B, swap), so pure tensors with equal
factors merge as the atoms of any sum do.  Its factors are of one class
across all its parts, and its swaps are bools.  Expanded, it is a
`TensorAtoms` of that factor class: the one class of atom sums (a, b,
swap), a and b atoms of the factor class.  This module knows no factor
class.

The factor protocol.  A factor class is a `LinComb` subclass that gives
- `a * b`, the product of two factors, a after b;
- `a.transpose()`, read only by `TensorExpr.transpose`;
- `tensor_null`, the atom whose square the tensor atoms drop: V for the
  surface, as V (x) V vanishes on the threefold; None (the `LinComb`
  default) for Q[G] and the open part, which drop nothing;
- `check(level, atoms)` and `check_factor(level, atoms)`, which raise
  ValueError on the atoms the class refuses, and on those it refuses as
  tensor factors: the surface's cusp products; the `LinComb` default of
  `check_factor` refuses none;
- `sort_key` and `label`, from which a `TensorAtoms` of the class prints.

`+`, `-`, `compose` and `expand` refuse, with TypeError, an operand or
an atom class of another factor class; the zero sum has no factor class
and meets every one.  A product is taken factor by factor, the swap of
the left operand exchanging which factor of the right one each factor
meets (`_meet`).
`==` compares the factored forms: two sums can expand to the same atoms and
still differ, so an equality is decided by `TensorExpr.is_zero` on the
difference, without expanding, and `expand` gives the atoms (a, b, swap)
only where they are asked for, such as the residual of a failed entry.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm
from operator import add
from typing import Iterable

from .exact import exact_rational
from .sums import LevelMismatchError, LinComb, bilinear, collect, linear_map, product


def _tensor_print(factor_sort_key, factor_label):
    """Print order and label of (a (x) b).swap^e atoms, from those of their factors."""

    def sort_key(atom: tuple) -> tuple:
        return (int(atom[2]), factor_sort_key(atom[0]), factor_sort_key(atom[1]))

    def label(atom: tuple) -> str:
        tail = ".s" if atom[2] else ""
        return f"[{factor_label(atom[0])}(x){factor_label(atom[1])}]{tail}"

    return staticmethod(sort_key), staticmethod(label)


def _meet(swap_x: bool, left_y, right_y, swap_y: bool) -> tuple:
    """The factors of y that the left and right factor of x meet, and the product's swap."""
    return (right_y, left_y, not swap_y) if swap_x else (left_y, right_y, swap_y)


def _transposed(t_left, t_right, swap: bool) -> tuple:
    """Transpose of (a (x) b).swap^e from the factor transposes: a swap also exchanges them."""
    return (t_right, t_left, True) if swap else (t_left, t_right, False)


def _pair_rule(swap: bool, null):
    """The atoms of a pure tensor: a left and a right factor atom make (a, b, swap), but null (x) null is dropped."""

    def rule(left, right, _level: int) -> tuple | None:
        return None if left == null and right == null else (((left, right, swap), 1),)

    return rule


def tensor_vanishes(groups: Iterable[tuple]) -> bool:
    """Whether the sum over the groups (a, [b_j]) of a (x) (sum_j b_j) is zero, for sums a and b_j.

    The left factors are brought to an echelon basis by elimination.
    Reducing a against a basis sum b whose pivot atom has coefficient p in
    b and x in a is
        a = (a - (x / p) b) + (x / p) b,
    so the right sum of the group is collected on b with weight x / p.  A
    left factor left nonzero joins the basis with its right sum.  The
    basis sums are independent, so the tensor is zero iff every collected
    right sum is.
    """
    basis: list = []  # (pivot atom, basis sum, [weighted right sums])
    for a, rights in groups:
        right = reduce(add, rights)
        if not right.nums:
            continue
        for pivot, b, collected in basis:
            x = a.nums.get(pivot)
            if x:
                k = Fraction(x * b.d, a.d * b.nums[pivot])
                collected.append(right.scale(k))
                a = a - b.scale(k)
                if not a.nums:
                    break
        if a.nums:
            basis.append((next(iter(a.nums)), a, [right]))
    return all(not reduce(add, collected).nums for _, _, collected in basis)


def _factor_product(a: LinComb, b: LinComb, memo: dict) -> LinComb:
    """The factor product a * b, looked up in memo first and stored there.

    A product equal to an operand is stored as that operand, so that a
    later lookup of it matches by identity, not coefficient by coefficient.
    """
    key = (a, b)
    got = memo.get(key)
    if got is None:
        got = a * b
        got = memo[key] = a if got == a else b if got == b else got
    return got


class TensorAtoms(LinComb):
    """A sum of pure tensors expanded to its atoms (a, b, swap): a and b atoms of the factor class, swap a bool.

    A subclass names its factor class as `factor`, and prints and sorts
    through `_tensor_print` of the factor's print unless it sets its own
    `label` (and `sort_key`).
    """

    __slots__ = ()
    factor: type  # the factor class, named by each subclass

    def __init_subclass__(cls) -> None:
        if "label" not in vars(cls):
            cls.sort_key, cls.label = _tensor_print(cls.factor.sort_key, cls.factor.label)

    @classmethod
    def check(cls, level, atoms) -> None:
        """Each atom a triple (a, b, swap) of a bool swap and factor atoms a and b, not both the dropped `tensor_null`.

        a and b are taken by the factor's `check` and `check_factor`.
        """
        null = cls.factor.tensor_null
        for atom in atoms:
            if type(atom) is not tuple or len(atom) != 3 or type(atom[2]) is not bool or atom[0] == atom[1] == null:
                raise ValueError(f"unknown atom {atom!r}")
            cls.factor.check(level, atom[:2])
            cls.factor.check_factor(level, atom[:2])


class TensorExpr(LinComb):
    """Sum of pure tensors (A (x) B).swap^e of factors A and B of one class: a `LinComb` of the triples.

    The constructor, `of` and `pure` check each pure tensor; the results of
    `over`, built from checked operands, are not checked again.
    """

    __slots__ = ()
    sort_key, label = _tensor_print(LinComb.render, lambda factor: f"({factor.render()})")

    def __init__(self, level, parts: Iterable[tuple] = ()):
        """The sum of c (A (x) B).swap^e over the parts (c, A, B, swap); a float c, even 0.0, raises TypeError."""
        terms: dict = {}
        for c, a, b, e in parts:
            if type(e) is not bool:  # checked before merging: a swap of 1 beside one of True would share its key
                raise ValueError(f"unknown atom {(a, b, e)!r}")
            terms[a, b, e] = terms.get((a, b, e), 0) + exact_rational(c)
        super().__init__(level, terms)

    @staticmethod
    def check(level, atoms) -> None:
        """Each atom (A, B, swap) has a bool swap and sums A, B of the level, each taken by its `check_factor`.

        The factors of all atoms are of one class.
        """
        factor = None
        for a, b, swap in atoms:
            factor = factor or type(a)
            if not isinstance(a, LinComb) or not type(a) is type(b) is factor or type(swap) is not bool:
                raise ValueError(f"unknown atom {(a, b, swap)!r}")
            if a.level != level or b.level != level:
                raise LevelMismatchError("tensor factors of another level")
            a.check_factor(level, a.nums)
            a.check_factor(level, b.nums)

    @classmethod
    def of(cls, level, atom: tuple, coeff=1) -> "TensorExpr":
        """The one-part sum coeff (A (x) B).swap^e of the atom (A, B, swap), checked as the constructor checks it."""
        a, b, swap = atom
        return cls(level, [(coeff, a, b, swap)])

    @staticmethod
    def pure(a: LinComb, b: LinComb, swap: bool = False) -> "TensorExpr":
        """(a (x) b).swap^e at the level of a."""
        return TensorExpr.of(a.level, (a, b, swap))

    def factor_class(self) -> type | None:
        """The class of the factors; None for the zero sum, which has none."""
        return type(next(iter(self.nums))[0]) if self.nums else None

    def check_operand(self, other) -> None:
        """`LinComb.check_operand`, and then factors of another class raise TypeError."""
        super().check_operand(other)
        if self.nums and other.nums and other.factor_class() is not self.factor_class():
            raise TypeError("cannot combine tensors of two factor classes")

    @property
    def parts(self) -> list[tuple[Fraction, LinComb, LinComb, bool]]:
        """[(coefficient, A, B, swap)], the coefficients as `Fraction`s: built at each read."""
        return [(Fraction(v, self.d), a, b, e) for (a, b, e), v in self.nums.items()]

    def compose(self, other: "TensorExpr", memo: dict | None = None) -> "TensorExpr":
        """self after other, factor by factor; memo, when given, keeps every factor product for later calls."""
        self.check_operand(other)
        if memo is None:
            memo = {}

        def rule(x: tuple, y: tuple, _level) -> tuple | None:
            a1, b1, e1 = x
            a2, b2, swap = _meet(e1, *y)
            a = _factor_product(a1, a2, memo)
            if a.is_zero():
                return None
            b = _factor_product(b1, b2, memo)
            return None if b.is_zero() else (((a, b, swap), 1),)

        return product(self, other, rule)

    def transpose(self) -> "TensorExpr":
        """Each factor by its own `transpose`; a swapped part also exchanges its two factors."""
        return linear_map(self, lambda atom: _transposed(atom[0].transpose(), atom[1].transpose(), atom[2]))

    def is_zero(self) -> bool:
        """Whether the atom sum is zero, decided on the factors without expanding.

        Parts of different swaps have disjoint atoms, so each swap is decided
        alone.  Per swap, the atom sum of T = sum_i c_i A_i (x) B_i drops only
        n (x) n, n the factors' `tensor_null`, whose coefficient in T is
        k = sum_i c_i a_i b_i (a_i, b_i the n coefficients of A_i, B_i); so it
        is zero iff T - k n (x) n is, which `tensor_vanishes` decides on the
        numerators c_i d.  A part with a zero factor joins no basis and drops
        out.
        """
        tensors: dict = {}  # swap -> {id(A), or n for -k n (x) n: (A, [c B])}, A held so that its id stays its own
        for (a, b, e), v in self.nums.items():
            by_left = tensors.setdefault(e, {})
            by_left.setdefault(id(a), (a, []))[1].append(b.scale(v))
            null = a.tensor_null
            va, vb = a.nums.get(null), b.nums.get(null)
            if va and vb:  # the part's share -c_i a_i b_i n (x) n of -k n (x) n
                nn = a.over(self.level, a.d * b.d, {null: -va * vb * v})
                by_left.setdefault(null, (a.over(self.level, 1, {null: 1}), []))[1].append(nn)
        return all(tensor_vanishes(by_left.values()) for by_left in tensors.values())

    def expand(self, cls: type) -> TensorAtoms:
        """The atom sum, as a sum of type cls, folded once over one denominator; a cls of other factors raises TypeError.

        The part v/d (A (x) B).swap^e is v A.nums[a] B.nums[b] at each atom
        (a, b, swap) over d A.d B.d, so every part is collected into one dict
        over d q, q the lcm of the A.d B.d: B's numerators are multiplied
        first by v q / (A.d B.d), then by A's, pair by pair.
        """
        if self.nums and getattr(cls, "factor", None) is not self.factor_class():
            raise TypeError(f"{cls.__name__} holds no tensors of {self.factor_class().__name__}")
        level, nums = self.level, {}
        q = lcm(*(a.d * b.d for a, b, _ in self.nums))
        for (a, b, e), v in self.nums.items():
            k = v * (q // (a.d * b.d))
            rule = _pair_rule(e, a.tensor_null)
            collect(bilinear(a.nums.items(), [(y, k * c) for y, c in b.nums.items()], rule, level), nums)
        return cls.over(level, self.d * q, nums)


def symmetrizers(one: LinComb) -> tuple[TensorExpr, TensorExpr]:
    """(A2, S2) = ((1 + sigma)/2, (1 - sigma)/2) for 1 = one (x) one and sigma its swap: orthogonal, summing to 1.

    one is the identity of the factor class: an element of G for Q[G], the diagonal for the surface.
    """
    unit, sigma = TensorExpr.pure(one, one), TensorExpr.pure(one, one, swap=True)
    half = Fraction(1, 2)
    return (unit + sigma).scale(half), (unit - sigma).scale(half)
