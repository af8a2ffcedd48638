import json
import os
import subprocess
import sys
from math import comb, gcd
from pathlib import Path

import pytest

from motive_calc.levels import (
    LevelTooSmallError,
    _prime_divisors,
    cusp_count,
    level_invariants,
    local_multiplicity,
)


def cusp_count_by_enumeration(n):
    # cusps of the principal level are +-(a:c) with gcd(a,c,N) = 1
    points = sum(1 for a in range(n) for c in range(n) if gcd(gcd(a, c), n) == 1)
    assert points % 2 == 0
    return points // 2


@pytest.mark.parametrize("n,expected", [(3, 4), (4, 6), (5, 12)])
def test_cusp_count_examples(n, expected):
    assert cusp_count(n) == expected


@pytest.mark.parametrize("n", range(3, 17))
def test_cusp_count_matches_enumeration(n, ):
    assert cusp_count(n) == cusp_count_by_enumeration(n)


def test_level_too_small():
    with pytest.raises(LevelTooSmallError):
        cusp_count(2)
    with pytest.raises(LevelTooSmallError):
        level_invariants(1)


def test_invariants_level_three():
    inv = level_invariants(3)
    assert (inv.cusp_count, inv.euler_index, inv.genus, inv.s3, inv.s4) == (4, 12, 0, 0, 1)


def test_invariants_level_six():
    inv = level_invariants(6)
    # s4 here is the dimension formula value 3(g-1) + c = 12
    assert (inv.cusp_count, inv.euler_index, inv.genus, inv.s3, inv.s4) == (12, 72, 1, 6, 12)


def test_invariants_level_seven():
    inv = level_invariants(7)
    assert (inv.cusp_count, inv.euler_index, inv.genus, inv.s3, inv.s4) == (24, 168, 3, 16, 30)


@pytest.mark.parametrize("n,genus", [(3, 0), (4, 0), (5, 0), (6, 1), (7, 3)])
def test_genus_classical_table(n, genus):
    assert level_invariants(n).genus == genus


@pytest.mark.parametrize("n", range(3, 17))
def test_invariants_integral_and_consistent(n):
    inv = level_invariants(n)
    assert inv.euler_index == n * inv.cusp_count
    assert inv.genus >= 0
    assert inv.s3 >= 0
    assert inv.s4 >= 0


@pytest.mark.parametrize("q,r,expected", [(0, 0, 1), (2, 0, 3), (2, 2, 1), (1, 1, 2)])
def test_local_multiplicity_values(q, r, expected):
    assert local_multiplicity(q, r) == expected


@pytest.mark.parametrize("q", range(5))
def test_local_multiplicity_weighted_sum(q):
    assert sum(local_multiplicity(q, r) * (r + 1) for r in range(3)) == comb(4, q)


def test_local_multiplicity_parity_vanishing():
    for q in range(5):
        for r in range(3):
            if (q - r) % 2 == 1:
                assert local_multiplicity(q, r) == 0


def test_local_multiplicity_out_of_convention():
    assert local_multiplicity(4, 2) == 0


# a subcommand on a level with a large prime cofactor: refused with exit 2 before any output, in bounded time
def _cli(*argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "motive_calc.cli", *argv], env=env, capture_output=True, text=True,
                          timeout=30)


@pytest.mark.parametrize("command", ["invariants", "decompose", "filtration"])
def test_a_level_with_a_prime_cofactor_above_10_12_is_refused(command):
    out = _cli(command, "--level", str(2 ** 61 - 1))
    assert (out.returncode, out.stdout) == (2, "")
    assert "too large to factor" in out.stderr


@pytest.mark.parametrize("level", [999999999989, 2 ** 100])
def test_a_large_level_that_factors_up_to_10_6_keeps_its_output(level):
    out = _cli("invariants", "--level", str(level))
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["cusp_count"] == cusp_count(level)


def test_trial_division_stops_at_10_6():
    assert _prime_divisors(999999999989) == [999999999989]  # the largest prime below 10^12
    assert _prime_divisors(2 ** 100 * 999983) == [2, 999983]
    assert _prime_divisors(999983 * 999979 * 7) == [7, 999979, 999983]
    for level in (10 ** 12 + 39, 1000003 ** 2):  # a prime, and the square of the least prime above 10^6
        with pytest.raises(ValueError, match="too large to factor"):
            _prime_divisors(level)
