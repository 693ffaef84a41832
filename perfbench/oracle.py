"""Expected results the benchmark checks every op against.

Nothing here imports nilchain.  The ideal counts come from the Catalan
formula over the exponents of each type (Cellini-Papi, J. Algebra 2000),
the abelian and radical counts from ``2^rank`` (Peterson; Kostant 1998),
the sum vector from the closed form ``sum_I (-1)^(rank-|I|) e(I)``, and the
CP/CR chain totals from ordered set partitions.  The CI and CA chain totals
and the D4 pairing-check counts have no closed form; they are frozen values.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

# Exponents of each simple type; the Coxeter number is the largest plus one.
_EXCEPTIONAL_EXPONENTS = {
    ("E", 6): (1, 4, 5, 7, 8, 11),
    ("E", 7): (1, 5, 7, 9, 11, 13, 17),
    ("E", 8): (1, 7, 11, 13, 17, 19, 23, 29),
    ("F", 4): (1, 5, 7, 11),
    ("G", 2): (1, 5),
}

# Chain totals (the empty chain included) of complexes without a closed form.
_FROZEN_CHAIN_TOTALS = {
    ("A", 4, "CI"): 119_984,
    ("B", 3, "CI"): 6_304,
    ("D", 4, "CI"): 1_093_344,
    ("D", 4, "CA"): 320,
    ("A", 5, "CA"): 8_864,
    ("F", 4, "CA"): 2_368,
    ("E", 6, "CA"): 3_206_336,
}

# Pairing laws checked by a full verify: one check per chain in each domain.
PAIRING_CHECKS = {("D", 4): {"nonabelian": 1_093_024, "nonradical": 1_093_194}}


def exponents(family: str, rank: int) -> tuple[int, ...]:
    if family == "A":
        return tuple(range(1, rank + 1))
    if family in ("B", "C"):
        return tuple(range(1, 2 * rank, 2))
    if family == "D":
        return tuple(sorted([*range(1, 2 * rank - 2, 2), rank - 1]))
    return _EXCEPTIONAL_EXPONENTS[(family, rank)]


def ideal_count(family: str, rank: int) -> int:
    """Number of ad-nilpotent ideals: prod (h + e_i + 1) / (e_i + 1)."""
    exps = exponents(family, rank)
    h = max(exps) + 1
    out = Fraction(1)
    for e in exps:
        out *= Fraction(h + e + 1, e + 1)
    if out.denominator != 1:
        raise ArithmeticError(f"Catalan product for {family}{rank} is not an integer")
    return out.numerator


def abelian_count(rank: int) -> int:
    """Abelian ideals, the zero ideal included."""
    return 2**rank


def radical_count(rank: int) -> int:
    """Nonzero ideals equal to the nilradical of their normalizer."""
    return 2**rank - 1


def closed_form(rank: int) -> dict[tuple[int, ...], int]:
    """The five-way identity's common value, keyed by sorted simple indices."""
    return {
        subset: (-1) ** (rank - size)
        for size in range(rank + 1)
        for subset in combinations(range(1, rank + 1), size)
    }


def fubini(n: int) -> int:
    """Ordered set partitions of an n-set."""
    table = [1]
    for m in range(1, n + 1):
        table.append(sum(comb(m, k) * table[m - k] for k in range(1, m + 1)))
    return table[n]


def chain_total(family: str, rank: int, kind: str) -> int:
    """Chains of a complex, the empty chain included.

    A CP chain with its full-set top is an ordered partition of the simple
    indices whose first block may be empty, hence ``2 * fubini(rank)``; CR
    is in bijection with CP.
    """
    if kind in ("CP", "CR"):
        return 2 * fubini(rank)
    return _FROZEN_CHAIN_TOTALS[(family, rank, kind)]
