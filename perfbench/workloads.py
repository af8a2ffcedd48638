"""The inputs of the three benchmark workloads.

`surface-sweep` and `threefold-report` run the full per-level report at
fixed levels; their input does not depend on the seed.  `eval-mix` runs
seeded DSL queries, generated here.

Every eval-mix query is a DSL string plus the level and mode to evaluate it at.
Most queries are written as `lhs - rhs` where lhs = rhs by a law of the
correspondence calculus, so the expected value is exactly zero and any
seed yields checkable queries.  A fixed pool of plain queries (independent
of the seed) has its rendered results recorded in `expected.json`; each
pass runs the whole pool, at seeded places in its order.

The mix is stratified: a fixed schedule of slots fixes, for each slot, the
law, the level range and the operand sizes, and the seed only picks the
atoms.  That keeps the cost of a pass nearly the same for every seed, so
that runs with different seeds can be compared.  The generator uses the
program's `cusp_count` to pick valid cusp indices; the evaluation only
ever sees the generated strings.
"""

from __future__ import annotations

import hashlib
import random
import sys
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "motive_calc" / "__init__.py").is_file():
    print(f"no motive_calc sources under {SRC}", file=sys.stderr)
    sys.exit(2)
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from motive_calc.levels import cusp_count  # noqa: E402

# what `motive-calc report --surface-only` and `report --level N` run, per level
REPORTS = {
    "surface-sweep": {"levels": [3, 4, 5, 6, 7, 8], "threefold": False},
    "threefold-report": {"levels": [3, 4, 5, 6], "threefold": True},
}
NAMES = ("surface-sweep", "threefold-report", "eval-mix")

QUERIES_PER_PASS = 300
POOL_SEED = 20260917
# every pass runs the whole pool: a seeded subset of it moved the median query time by the seed
POOL_SIZE = 24


@dataclass(frozen=True)
class Query:
    level: int
    mode: str  # "surface" or "threefold"
    source: str
    law: str  # the law behind a zero query, or "plain" for a pool query

    def key(self) -> str:
        """Identity of a plain query in `expected.json`."""
        return f"{self.mode}:{self.level}:{self.source}"


def sha256(text: str) -> str:
    """The digest by which `expected.json` records an output."""
    return hashlib.sha256(text.encode()).hexdigest()


_COEFFS = ["", "", "", "2 * ", "3 * ", "1/2 * ", "2/3 * ", "3/4 * ", "5/2 * "]


def _atom(rng: random.Random, n: int, kind: str) -> str:
    b1, b2 = rng.randrange(n), rng.randrange(n)
    if kind == "G":
        return f"G({b1},{b2},{rng.choice((1, -1))})"
    if kind == "col":  # graph of the collapse onto section (b1, b2)
        return f"(G({b1},{b2},1) . mu0)"
    if kind == "T":  # transposed collapse graph at section (b1, b2)
        return f"t(G({b1},{b2},1) . mu0)"
    if kind == "V":
        return "V"
    return f"CP({rng.randrange(cusp_count(n))},{b1},{b2})"


# fixed shares of atom kinds keep the cost of an operand of a given size steady
_SURFACE_KINDS = ("G",) * 5 + ("col", "T", "V") + ("CP",) * 2
# cusp products are not tensor factors: threefold operands never hold them
_FACTOR_KINDS = ("G",) * 6 + ("col", "col", "T", "T", "V")


def _operand(rng: random.Random, n: int, size: int, kinds: tuple) -> str:
    start = rng.randrange(len(kinds))
    terms = []
    for i in range(size):
        term = rng.choice(_COEFFS) + _atom(rng, n, kinds[(start + i) % len(kinds)])
        sign = rng.choice("+-")
        terms.append(f"{sign} {term}" if i else ("-" + term if sign == "-" else term))
    return " ".join(terms)


def _surface_law(rng: random.Random, law: str, n: int, size: int) -> str:
    def op(k: int = size) -> str:
        return f"({_operand(rng, n, k, _SURFACE_KINDS)})"

    if law == "unit":
        a = op()
        return f"Delta . {a} - {a}" if rng.random() < 0.5 else f"{a} . Delta - {a}"
    if law == "transpose":
        a, b = op(), op()
        return f"t({a} . {b}) - t({b}) . t({a})"
    if law == "bilinear":
        a, b, c = op(), op(), op()
        return f"({a} + {b}) . {c} - ({a} . {c} + {b} . {c})"
    if law == "scale":
        a, b = op(), op()
        q = rng.choice(("2", "3/2", "5/3", "7/4"))
        return f"({q} * {a}) . {b} - {q} * ({a} . {b})"
    if law == "assoc":
        a, b, c = op(), op(), op()
        return f"({a} . {b}) . {c} - {a} . ({b} . {c})"
    raise ValueError(law)


def _components(name: str, n: int) -> set:
    """The orthogonal idempotents a named surface projector is the sum of."""
    finite = {"pi0", "pi1", "pi2"}
    cusps = {f"piC({c})" for c in range(cusp_count(n))}
    return {"Delta": finite | cusps, "piF": finite, "piInf": cusps}.get(name, {name})


def _kronecker(rng: random.Random, n: int, names: tuple) -> str:
    """P . Q - R, where R is P, Q or 0 by the Kronecker pattern."""
    p, q = (rng.choice(names) for _ in range(2))
    p, q = (f"piC({rng.randrange(cusp_count(n))})" if x == "piC" else x for x in (p, q))
    cp, cq = _components(p, n), _components(q, n)
    common = cp & cq
    if not common:
        return f"{p} . {q}"
    return f"{p} . {q} - {p if common == cp else q}"


def _tensor(rng: random.Random, n: int, size: int) -> str:
    a = _operand(rng, n, size, _FACTOR_KINDS)
    b = _operand(rng, n, size, _FACTOR_KINDS)
    return f"T({a}, {b})"


def _threefold_law(rng: random.Random, law: str, n: int, size: int) -> str:
    if law == "swap":  # sigma . T(a,b) . sigma = T(b,a)
        a = _operand(rng, n, size, _FACTOR_KINDS)
        b = _operand(rng, n, size, _FACTOR_KINDS)
        return f"sigma . T({a}, {b}) . sigma - T({b}, {a})"
    if law == "unit":
        x = _tensor(rng, n, size)
        return f"Delta . {x} - {x}"
    if law == "transpose":
        x, y = _tensor(rng, n, size), _tensor(rng, n, size)
        return f"t({x} . {y}) - t({y}) . t({x})"
    if law == "bilinear":
        x, y, z = (_tensor(rng, n, size) for _ in range(3))
        return f"({x} + {y}) . {z} - ({x} . {z} + {y} . {z})"
    if law == "assoc":
        x, y, z = (_tensor(rng, n, size) for _ in range(3))
        return f"({x} . {y}) . {z} - {x} . ({y} . {z})"
    if law == "kronecker":
        # one index of each pair in {0, 2}: ptilde(1,1) . ptilde(1,1) alone takes seconds
        i = (rng.randrange(3), rng.choice((0, 2)))
        if rng.random() < 0.5:
            i = i[::-1]
        j = (rng.randrange(3), rng.choice((0, 2)))
        p, q = f"ptilde({i[0]},{i[1]})", f"ptilde({j[0]},{j[1]})"
        return f"{p} . {q} - {p}" if i == j else f"{p} . {q}"
    if law == "kronecker-large":  # the middle projector against a neighbour
        p, q = "ptilde(1,1)", "ptilde({},{})".format(*rng.choice(((0, 1), (1, 0), (1, 2), (2, 1))))
        return f"{p} . {q}" if rng.random() < 0.5 else f"{q} . {p}"
    raise ValueError(law)


SURFACE_LEVELS = tuple(range(3, 11))
THREEFOLD_LEVELS = (3, 4)

# (count, mode, law, levels, operand size).  Slot i of an entry runs at
# levels[i % len(levels)], so the levels of a pass do not depend on the
# seed; the counts sum to QUERIES_PER_PASS - POOL_SIZE.  The last
# entries are the expensive tail: 18 queries of 0.2 s to about 1 s, so
# that the tail percentile (p96 of 300, the 13th slowest) falls among them.
_SCHEDULE = [
    (24, "surface", "unit", SURFACE_LEVELS, 2),
    (24, "surface", "transpose", SURFACE_LEVELS, 2),
    (24, "surface", "scale", SURFACE_LEVELS, 2),
    (24, "surface", "bilinear", SURFACE_LEVELS, 3),
    (24, "surface", "assoc", SURFACE_LEVELS, 3),
    (12, "surface", "kronecker-small", SURFACE_LEVELS, 0),
    (18, "surface", "transpose", SURFACE_LEVELS, 12),
    (18, "surface", "bilinear", SURFACE_LEVELS, 10),
    (18, "surface", "assoc", SURFACE_LEVELS, 8),
    (12, "surface", "bilinear", (6, 7, 8, 9, 10), 40),
    (12, "surface", "assoc", (6, 7, 8, 9, 10), 20),
    (6, "threefold", "swap", THREEFOLD_LEVELS, 2),
    (6, "threefold", "unit", THREEFOLD_LEVELS, 3),
    (6, "threefold", "transpose", THREEFOLD_LEVELS, 3),
    (6, "threefold", "bilinear", THREEFOLD_LEVELS, 3),
    (6, "threefold", "assoc", THREEFOLD_LEVELS, 2),
    (6, "threefold", "kronecker", THREEFOLD_LEVELS, 0),
    (6, "threefold", "swap", THREEFOLD_LEVELS, 8),
    (6, "threefold", "bilinear", THREEFOLD_LEVELS, 6),
    (12, "surface", "kronecker-large", (8, 9, 10), 0),
    (6, "threefold", "kronecker-large", (3, 3, 3, 3, 3, 4), 0),
]

_SMALL_NAMED = ("pi0", "pi2", "piC", "piC", "Delta")
# each of these is a sum of about 2N^2 atoms, so any two cost the same
_LARGE_NAMED = ("pi1", "piInf", "piF")


def _law_query(rng: random.Random, mode: str, law: str, n: int, size: int) -> Query:
    if mode == "threefold":
        return Query(n, mode, _threefold_law(rng, law, n, size), law)
    if law == "kronecker-small":
        return Query(n, mode, _kronecker(rng, n, _SMALL_NAMED), "kronecker")
    if law == "kronecker-large":
        return Query(n, mode, _kronecker(rng, n, _LARGE_NAMED), "kronecker")
    return Query(n, mode, _surface_law(rng, law, n, size), law)


def plain_pool() -> list[Query]:
    """The fixed pool of plain, non-zero queries whose outputs are recorded."""
    rng = random.Random(POOL_SEED)
    pool = []
    for i in range(POOL_SIZE):
        if i % 4 == 3:
            n = rng.randint(3, 4)
            src = f"{_tensor(rng, n, 3)} . {_tensor(rng, n, 3)}"
            pool.append(Query(n, "threefold", src, "plain"))
        else:
            n = rng.randint(3, 10)
            a = _operand(rng, n, 6, _SURFACE_KINDS)
            b = _operand(rng, n, 6, _SURFACE_KINDS)
            named = rng.choice(("pi0", "pi2", f"piC({rng.randrange(cusp_count(n))})"))
            pool.append(Query(n, "surface", f"({a}) . ({b}) + t({named} . ({b}))", "plain"))
    return pool


def generate(seed: int) -> list[Query]:
    """The queries of one pass, in a seeded order; same seed, same list."""
    rng = random.Random(seed)
    queries = []
    for count, mode, law, levels, size in _SCHEDULE:
        for i in range(count):
            queries.append(_law_query(rng, mode, law, levels[i % len(levels)], size))
    queries += plain_pool()
    rng.shuffle(queries)
    return queries


def job(workload: str, seed: int) -> dict:
    """The input a worker gets for one pass of a workload."""
    if workload in REPORTS:
        return {"workload": workload, **REPORTS[workload]}
    queries = [(q.level, q.mode, q.source, q.law) for q in generate(seed)]
    return {"workload": workload, "queries": queries}
