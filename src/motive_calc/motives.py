"""Motive decompositions, Betti realizations, and Chow-filtration tables.

The decompositions are bookkeeping over the fixed basis
    1, L, L^2, L^3, h1(M), h1(M)(x)L, h1(M)(x)L^2, W1, W1(x)L, W2
with integer multiplicities, except that the middle Lefschetz
multiplicity of the threefold stays a free symbol n (its value is not
pinned down; the experimental estimators live in the threefold module).
The surface multiplicity is computed three independent ways (assembly
count, Euler identity, Picard-rank count), and a closed-form product
count that lands exactly 2 lower is reported alongside them, flagged,
never silently preferred.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .levels import LevelInvariants, ensure, level_invariants


class SymbolicMultiplicityError(ValueError):
    """A numeric table was demanded while n is still symbolic."""


class Count(NamedTuple):
    """Integer count plus an integer multiple of the free symbol n."""

    const: int = 0
    n_part: int = 0

    def __add__(self, other: "Count") -> "Count":
        return Count(self.const + other.const, self.n_part + other.n_part)

    def __sub__(self, other: "Count") -> "Count":
        return Count(self.const - other.const, self.n_part - other.n_part)

    def __mul__(self, k: int) -> "Count":
        return Count(self.const * k, self.n_part * k)

    def is_numeric(self) -> bool:
        return self.n_part == 0

    def numeric(self) -> int:
        if not self.is_numeric():
            raise SymbolicMultiplicityError(f"{self} is symbolic in n")
        return self.const

    def substitute(self, n_value: int) -> int:
        return self.const + self.n_part * n_value

    def __str__(self) -> str:
        if self.n_part == 0:
            return str(self.const)
        n_text = "n" if self.n_part == 1 else f"{self.n_part}n"
        if self.const == 0:
            return n_text
        sign = "+" if self.const > 0 else "-"
        return f"{n_text} {sign} {abs(self.const)}"


SYMBOL_N = Count(0, 1)


class _Basis(NamedTuple):
    label: str
    weight: int  # the degree of its Betti realization
    invariant: str  # the LevelInvariants field whose double is its Betti dimension; "" for dimension 1
    chow: dict  # nonzero Chow degree -> named graded piece


# The basis motives, in print order.
_BASIS = {
    ("1",): _Basis("1", 0, "", {0: "Q"}),
    ("L", 1): _Basis("L", 2, "", {1: "Q"}),
    ("L", 2): _Basis("L^2", 4, "", {2: "Q"}),
    ("L", 3): _Basis("L^3", 6, "", {3: "Q"}),
    ("h1M", 0): _Basis("h1(M)", 1, "genus", {1: "Jac(M) (x) Q"}),
    ("h1M", 1): _Basis("h1(M) (x) L", 3, "genus", {2: "Jac(M) (x) Q"}),
    ("h1M", 2): _Basis("h1(M) (x) L^2", 5, "genus", {3: "Jac(M) (x) Q"}),
    ("W1", 0): _Basis("W1", 2, "s3", {2: "CH^2_alb(surface)"}),
    ("W1", 1): _Basis("W1 (x) L", 4, "s3", {3: "CH^2_alb(surface)"}),
    ("W2",): _Basis("W2", 3, "s4", {2: "CH^2(W2)", 3: "CH^3(W2)"}),
}


def basis_label(key: tuple) -> str:
    return _BASIS[key].label


def basis_dim(key: tuple, inv: LevelInvariants) -> int:
    """Dimension of the Betti realization of one basis motive."""
    field = _BASIS[key].invariant
    return 2 * getattr(inv, field) if field else 1


def basis_chow_degrees(key: tuple) -> dict[int, str]:
    """Nonzero Chow degrees of one basis motive, with named graded pieces."""
    return _BASIS[key].chow


class Motive:
    """Formal multiset over the basis motives."""

    __slots__ = ("multiplicities",)

    def __init__(self, multiplicities: dict[tuple, Count | int]):
        """Refuses, with ValueError, a key outside the basis and a multiplicity that is no int or Count of ints."""
        self.multiplicities: dict[tuple, Count] = {}
        for key, m in multiplicities.items():
            if key not in _BASIS or not all(type(part) is str or type(part) is int for part in key):
                raise ValueError(f"unknown basis motive {key!r}")
            if type(m) is int:
                m = Count(m)
            elif type(m) is not Count or type(m.const) is not int or type(m.n_part) is not int:
                raise ValueError(f"multiplicity {m!r} of {basis_label(key)} is no int or Count of two ints")
            if m.const or m.n_part:
                self.multiplicities[key] = m

    def __getitem__(self, key: tuple) -> Count:
        return self.multiplicities.get(key, Count(0))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Motive) and self.multiplicities == other.multiplicities

    def __hash__(self):  # pragma: no cover
        return hash(frozenset(self.multiplicities.items()))

    def _present(self) -> list:
        """(label, multiplicity) of each basis motive present, in print order."""
        return [(b.label, self.multiplicities[key]) for key, b in _BASIS.items() if key in self.multiplicities]

    def render(self) -> str:
        parts = [label if str(m) == "1" else f"{m}({label})" for label, m in self._present()]
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {label: str(m) for label, m in self._present()}

    def __repr__(self) -> str:
        return f"Motive<{self.render()}>"


def surface_multiplicity(n: int) -> dict:
    """The Lefschetz multiplicity of the surface, all routes side by side."""
    inv = level_invariants(n)
    assembly = 2 + (n - 1) * inv.cusp_count
    closed_form = (n - 1) * inv.cusp_count
    euler_route = n * inv.cusp_count - 2 + 4 * inv.genus - 2 * inv.s3
    # picard-rank count: zero section, one fiber, and the non-identity
    # components of every cusp fiber
    ns_rank = 1 + 1 + inv.cusp_count * (n - 1)
    return {
        "assembly": assembly,
        "euler_route": euler_route,
        "ns_rank": ns_rank,
        "closed_form": closed_form,
        "difference_assembly_minus_closed_form": assembly - closed_form,
        "note": "the closed-form product count comes out exactly 2 below the assembly count at every level; both are printed, neither is silently preferred",
    }


def decompose_surface(n: int) -> Motive:
    m = surface_multiplicity(n)["assembly"]
    return Motive(
        {
            ("1",): 1,
            ("L", 1): m,
            ("L", 2): 1,
            ("h1M", 0): 1,
            ("h1M", 1): 1,
            ("W1", 0): 1,
        }
    )


def decompose_threefold(n: int) -> Motive:
    level_invariants(n)  # level guard
    return Motive(
        {
            ("1",): 1,
            ("L", 1): SYMBOL_N,
            ("L", 2): SYMBOL_N,
            ("L", 3): 1,
            ("h1M", 0): 1,
            ("h1M", 1): 3,
            ("h1M", 2): 1,
            ("W1", 0): 2,
            ("W1", 1): 2,
            ("W2",): 1,
        }
    )


class BettiTable(NamedTuple):
    level: int
    which: str
    b: tuple  # Count per degree 0..2d

    def euler(self) -> Count:
        total = Count(0)
        for i, bi in enumerate(self.b):
            total = total + (bi if i % 2 == 0 else Count(0) - bi)
        return total

    def numeric(self) -> list[int]:
        return [bi.numeric() for bi in self.b]

    def substitute(self, n_value: int) -> list[int]:
        return [bi.substitute(n_value) for bi in self.b]

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "which": self.which,
            "betti": [str(bi) for bi in self.b],
            "euler": str(self.euler()),
        }


class Variety(NamedTuple):
    dim: int
    decompose: Callable[[int], Motive]  # level -> decomposition


_VARIETIES = {"surface": Variety(2, decompose_surface), "threefold": Variety(3, decompose_threefold)}


def variety(which: str) -> Variety:
    """The variety named which; any other name raises ValueError."""
    if which not in _VARIETIES:
        raise ValueError(f"unknown variety {which!r}: expected 'surface' or 'threefold'")
    return _VARIETIES[which]


def realize_betti(motive: Motive, n: int, which: str = "surface") -> BettiTable:
    inv = level_invariants(n)
    top = 2 * variety(which).dim
    b = [Count(0)] * (top + 1)
    for key, mult in motive.multiplicities.items():
        w = _BASIS[key].weight
        if w > top:
            raise ValueError(f"basis motive {basis_label(key)} exceeds dimension {top // 2}")
        b[w] = b[w] + mult * basis_dim(key, inv)
    table = BettiTable(n, which, tuple(b))
    if which == "surface":
        # alternating sum must be the Euler index, level by level
        euler, index = table.euler().numeric(), n * inv.cusp_count
        ensure(euler == index, f"Betti Euler number {euler} differs from the Euler index {index}")
    return table


def chow_kunneth_table(n: int, which: str = "surface") -> list[Motive]:
    """Weight-graded pieces h^0 .. h^{2d} of the decomposition."""
    dim, decompose = variety(which)
    return weight_pieces(decompose(n), dim)


def weight_pieces(motive: Motive, dim: int) -> list[Motive]:
    """The Chow-Kunneth table of a decomposition of a variety of dimension dim."""
    graded: list[dict] = [dict() for _ in range(2 * dim + 1)]
    for key, mult in motive.multiplicities.items():
        graded[_BASIS[key].weight][key] = mult
    return [Motive(g) for g in graded]


class FiltrationStep(NamedTuple):
    nu: int
    label: str
    graded_piece: str  # description of F^nu / F^{nu+1}


class FiltrationTable(NamedTuple):
    level: int
    which: str
    tables: tuple  # per codimension j: tuple of FiltrationStep

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "which": self.which,
            "chow_groups": [
                {
                    "codimension": j,
                    "steps": [s._asdict() for s in steps],
                }
                for j, steps in enumerate(self.tables)
            ],
        }


def _graded_piece(ck: list[Motive], j: int, nu: int) -> str:
    """gr^nu CH^j comes from the weight-(2j - nu) piece of the decomposition."""
    i = 2 * j - nu
    if i < 0 or i >= len(ck):
        return "0"
    parts = []
    for key, mult in ck[i].multiplicities.items():
        piece = basis_chow_degrees(key).get(j)
        if piece is None:
            continue
        text = str(mult)
        parts.append(piece if text == "1" else f"{text}({piece})")
    return " + ".join(sorted(parts)) if parts else "0"


def _step_label(which: str, j: int, nu: int, dim: int) -> str:
    if nu == 0:
        return f"CH^{j}"
    if nu == 1:
        return f"CH^{j}_hom"
    if nu == 2 and j == dim:
        return f"CH^{j}_alb"
    if which == "threefold" and j == 2 and nu == 2:
        return "contained in CH^2_AJ (char 0)"
    if which == "threefold" and j == 3 and nu == 3:
        return "CH^3(W2)"
    return f"F^{nu}CH^{j}"


def filtration_table(n: int, which: str = "surface") -> FiltrationTable:
    return filtration_of(n, which, chow_kunneth_table(n, which))


def filtration_of(n: int, which: str, ck: list[Motive]) -> FiltrationTable:
    """The filtration table of the variety which at level n, read from its Chow-Kunneth table ck."""
    dim = len(ck) // 2
    # structural vanishing: every constituent of h^i has its nonzero Chow
    # degrees j within j <= i <= 2j
    for i, piece in enumerate(ck):
        for key in piece.multiplicities:
            for j in basis_chow_degrees(key):
                ensure(
                    j <= i <= 2 * j,
                    f"constituent {basis_label(key)} of weight piece {i} has Chow degree {j}",
                )
    tables = []
    for j in range(dim + 1):
        steps = tuple(
            FiltrationStep(nu, _step_label(which, j, nu, dim), _graded_piece(ck, j, nu))
            for nu in range(j + 1)
        )
        tables.append(steps)
    return FiltrationTable(n, which, tuple(tables))


def codim_one_checklist(ck: list[Motive], ft: FiltrationTable) -> list[dict]:
    """Divisor-group deduction rendered as a checklist over the weight table ck and the filtration table ft.

    Once the weight-1 projector is the identity on homologically trivial
    divisors, every divisor class splits across the weight-1 and weight-2
    pieces and the kernel of the top-degree slot is the homologically
    trivial part; structurally that means CH^1 only meets h^1 and h^2,
    and the two graded pieces are the ones the table names.
    """
    entries = []

    def check(name: str, claim: str, ok: bool) -> None:
        entries.append({"name": name, "claim": claim, "status": "pass" if ok else "fail"})

    supported = set()
    for i, piece in enumerate(ck):
        for key in piece.multiplicities:
            if 1 in basis_chow_degrees(key):
                supported.add(i)
    check(
        "ch1:support",
        "CH^1 meets only the weight-1 and weight-2 pieces",
        supported == {1, 2},
    )
    steps = ft.tables[1]
    check("ch1:steps", "CH^1 has exactly one descent", len(steps) == 2)
    check(
        "ch1:hom_step",
        "the descent is the homologically trivial part",
        steps[1].label == "CH^1_hom",
    )
    check(
        "ch1:jacobian_piece",
        "gr^1 CH^1 is the Jacobian piece from the weight-1 slot",
        steps[1].graded_piece == "Jac(M) (x) Q",
    )
    check(
        "ch1:algebraic_piece",
        "gr^0 CH^1 is spanned by the Lefschetz classes of the weight-2 slot",
        steps[0].graded_piece.endswith("(Q)") or steps[0].graded_piece == "Q",
    )
    return entries
