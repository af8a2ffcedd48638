"""Exact rational scalars and dense exact matrices.

`Rational` is the stdlib `fractions.Fraction`: arbitrary-precision, always
in lowest terms with positive denominator, which is exactly the contract
every other module relies on.  Dense matrices are eliminated fraction-free
(Bareiss) on ints, once scaled by the lcm of their denominators.  The symbol d_a of the
divisor actions is no scalar here but a basis class (`surface.DA_FIBER`).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Sequence, Union

from .levels import ensure

Rational = Fraction

RationalLike = Union[Fraction, int]


class SingularMatrixError(ZeroDivisionError):
    """Raised when inverting a matrix whose rank is below its size."""


class DegreeError(ArithmeticError):
    """Raised when a divisor action would create a degree-two term in d_a (see `surface.DA_FIBER`).

    The calculus proves every such product vanishes before it can occur,
    so reaching this error means a rewrite rule is wrong, not the input.
    """


def exact_rational(value) -> RationalLike:
    """value as an int or a `Fraction`; a float, a binary approximation of the number meant, raises TypeError."""
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, float):
        raise TypeError(f"float coefficient {value!r}: write it as an int, a Fraction or a string such as '1/10'")
    return Fraction(value)


def fmt_rational(q: RationalLike) -> str:
    """Render p/q, or just p when the denominator is 1 (JSON convention)."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class RatMatrix:
    """Dense exact-rational matrix."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[RationalLike]]):
        self.entries = [[Fraction(x) for x in row] for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        if any(len(row) != self.cols for row in self.entries):
            raise ValueError("ragged matrix")

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        return self.entries[ij[0]][ij[1]]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RatMatrix) and self.entries == other.entries

    def __hash__(self):  # pragma: no cover - matrices are not dict keys
        return hash(tuple(tuple(row) for row in self.entries))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(fmt_rational(x) for x in row) for row in self.entries)
        return f"RatMatrix[{body}]"

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> "RatMatrix":
        rows = list(row_idx)
        cols = list(col_idx)
        return RatMatrix([[self.entries[i][j] for j in cols] for i in rows])

    def to_json(self) -> list[list[str]]:
        return [[fmt_rational(x) for x in row] for row in self.entries]


def _scaled(m: RatMatrix) -> tuple[int, list[list[int]]]:
    """(d, the integer rows of d*m), d the lcm of m's denominators."""
    d = lcm(*(x.denominator for row in m.entries for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in m.entries]


def _row_update(p: int, row: list[int], f: int, pivot: list[int]) -> list[int]:
    """p*row - f*pivot: one fraction-free row update, before its division by the previous pivot."""
    return [p * x - f * y for x, y in zip(row, pivot)]


def _eliminate(a: list[list[int]], cols: int) -> tuple[int, int]:
    """Fraction-free Gauss-Jordan (Bareiss) on the integer rows a, in place, over their first cols columns.

    Returns (rank, last pivot); each pivot column ends zero but for the last pivot in its pivot row.  Each
    update is checked to clear its column and divide exactly, so a wrong one raises InvariantError, also under -O.
    """
    rows, rank, prev = len(a), 0, 1
    for c in range(cols):
        k = next((i for i in range(rank, rows) if a[i][c]), None)
        if k is None:
            continue
        a[rank], a[k] = a[k], a[rank]
        pivot = a[rank]
        p = pivot[c]
        for i, row in enumerate(a):
            if i != rank:
                row = _row_update(p, row, row[c], pivot)
                ensure(not row[c] and not any([x % prev for x in row]), f"row {i} not reduced in column {c}")
                a[i] = [x // prev for x in row]
        prev = p
        rank += 1
    return rank, prev


def mat_rank(m: RatMatrix) -> int:
    """Rank by fraction-free elimination on the integer multiple of m; exact."""
    return _eliminate(_scaled(m)[1], m.cols)[0]


def mat_inverse(m: RatMatrix) -> RatMatrix:
    """Exact inverse by fraction-free Gauss-Jordan on the integer multiple of m; raises SingularMatrixError."""
    if m.rows != m.cols:
        raise SingularMatrixError("inverse of a non-square matrix")
    n = m.rows
    d, b = _scaled(m)
    a = [row + [int(i == j) for j in range(n)] for i, row in enumerate(b)]
    rank, last = _eliminate(a, n)
    if rank < n:
        raise SingularMatrixError("matrix is singular")
    # a is [last*I | last*(d*m)^-1]: m^-1 is d/last times its right half, checked against d*m whatever the elimination did
    right, cols = [row[n:] for row in a], list(zip(*b))
    ensure(all(sum(map(mul, r, c)) == last * (i == j) for i, r in enumerate(right) for j, c in enumerate(cols)),
           "the inverse times the matrix is not the identity")
    return RatMatrix([[Fraction(d * x, last) for x in row] for row in right])
