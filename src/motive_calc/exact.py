"""Exact rational scalars and dense exact matrices.

`Rational` is the stdlib `fractions.Fraction`: arbitrary-precision, always
in lowest terms with positive denominator, which is exactly the contract
every other module relies on.  Matrices are small (bounded by the level,
N <= 16 or so) and dense; elimination is fraction-free in the Bareiss
style so intermediate entries stay controlled.  The symbol d_a of the
divisor actions is no scalar here but a basis class (`surface.DA_FIBER`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

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

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

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


def mat_rank(m: RatMatrix) -> int:
    """Rank by fraction-free (Bareiss) elimination; exact."""
    a = [row[:] for row in m.entries]
    rows, cols = m.rows, m.cols
    rank = 0
    prev = Fraction(1)
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot_row = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        pivot = a[r][c]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                a[i][j] = (a[i][j] * pivot - a[i][c] * a[r][j]) / prev
            a[i][c] = Fraction(0)
        prev = pivot
        r += 1
        rank += 1
    return rank


def mat_inverse(m: RatMatrix) -> RatMatrix:
    """Exact inverse via Gauss-Jordan; raises SingularMatrixError."""
    if m.rows != m.cols:
        raise SingularMatrixError("inverse of a non-square matrix")
    n = m.rows
    a = [row[:] + ident_row for row, ident_row in zip(m.entries, RatMatrix.identity(n).entries)]
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError("matrix is singular")
        a[c], a[pivot_row] = a[pivot_row], a[c]
        pivot = a[c][c]
        a[c] = [x / pivot for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                factor = a[i][c]
                a[i] = [x - factor * y for x, y in zip(a[i], a[c])]
    return RatMatrix([row[n:] for row in a])
