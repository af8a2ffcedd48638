"""Closed-form level-N invariants of the modular curve and its fibrations.

The cusp count is  c = N^2/2 * prod_{p|N} (1 - p^-2),  the Euler index of
the fibered surface is N*c (one Neron N-gon per cusp, smooth fibers are
elliptic).  Genus and cusp-form dimensions are the classical formulas for
the principal congruence level: N >= 3 means no elliptic points and only
regular cusps, so a single dimension formula covers every weight k >= 3;
that assumption is checked, not branched on.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import NamedTuple


class LevelTooSmallError(ValueError):
    """Levels below 3 have no fine moduli interpretation here."""


class InvariantError(RuntimeError):
    """A closed-form identity failed: a fault of the engine, not of its input."""


def ensure(ok: bool, message: str) -> None:
    """Raise InvariantError unless ok; unlike assert, this also runs under python -O."""
    if not ok:
        raise InvariantError(message)


def _check_level(n: int) -> None:
    if not isinstance(n, int) or n < 3:
        raise LevelTooSmallError(f"level must be an integer >= 3, got {n!r}")


def _prime_divisors(level: int) -> list[int]:
    """The primes dividing the level, by trial division with every d up to 10^6.

    A cofactor left below 10^12 is 1 or a prime.  A level that leaves one
    of at least 10^12 raises ValueError instead of dividing on without bound.
    """
    out, n, d = [], level, 2
    while d * d <= n and d <= 10 ** 6:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n >= 10 ** 12:
        raise ValueError(f"level {level} is too large to factor: {n} >= 10^12 has no prime factor up to 10^6")
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None, typed=True)  # typed: 3.0 is not the level 3, and must still be rejected
def cusp_count(n: int) -> int:
    """Number of cusps: N^2/2 * prod_{p|N}(1 - p^-2), always an integer."""
    _check_level(n)
    value = Fraction(n * n, 2)
    for p in _prime_divisors(n):
        value *= Fraction(p * p - 1, p * p)
    ensure(value.denominator == 1, f"cusp count not integral for N={n}")
    return value.numerator


class LevelInvariants(NamedTuple):
    level: int
    cusp_count: int
    euler_index: int
    genus: int
    s3: int
    s4: int

    def to_json(self) -> dict:
        return self._asdict()  # the fields, in order


def _cusp_form_dim(k: int, genus: int, cusps: int) -> int:
    # (k-1)(g-1) + (k-2)c/2, valid for k >= 3: no elliptic points and all
    # cusps regular at level >= 3.
    value = Fraction((k - 1) * (genus - 1)) + Fraction((k - 2) * cusps, 2)
    ensure(value.denominator == 1, "cusp-form dimension not integral")
    dim = value.numerator
    ensure(dim >= 0, "negative cusp-form dimension")
    return dim


def level_invariants(n: int) -> LevelInvariants:
    """All closed-form invariants for level n."""
    _check_level(n)
    c = cusp_count(n)
    mu = n * c
    g_frac = 1 + Fraction(mu * (n - 6), 12 * n)
    ensure(g_frac.denominator == 1, f"genus not integral for N={n}")
    g = g_frac.numerator
    ensure(g >= 0, f"negative genus for N={n}")
    return LevelInvariants(
        level=n,
        cusp_count=c,
        euler_index=mu,
        genus=g,
        s3=_cusp_form_dim(3, g, c),
        s4=_cusp_form_dim(4, g, c),
    )


def local_multiplicity(q: int, r: int) -> int:
    """Multiplicity of the r-th symmetric local system in degree q.

    m(2,q,r) = C(2,(q-r)/2) C(2,(q+r)/2) - C(2,(q-r)/2-1) C(2,(q+r)/2+1),
    with any binomial vanishing when its lower argument is negative or
    non-integral.  Out-of-convention (q,r) simply give 0.
    """

    def _binom(n: int, k2: int) -> int:
        # k2 is twice the lower argument; vanish unless it is an even
        # integer >= 0 with k <= n.
        if k2 % 2 != 0:
            return 0
        k = k2 // 2
        if k < 0 or k > n:
            return 0
        return comb(n, k)

    return _binom(2, q - r) * _binom(2, q + r) - _binom(2, q - r - 2) * _binom(2, q + r + 2)
