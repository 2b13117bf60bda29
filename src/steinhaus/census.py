"""Exhaustive censuses of small binary triangles: totals, averages, maxima.

Both censuses count the ones of every triangle of a given size (2^n
Steinhaus seeds, 2^(2n-1) Pascal triangles), so they are capped.  A whole
triangle is packed into one int, row t at the bit offset of the rows above
it, and rows are derived with shift/xor.  A binary triangle is GF(2)-linear
in its free bits, so it is the XOR of the packed basis triangles of its set
bits: a Steinhaus triangle's n seed bits, or for a size-n Pascal triangle
the 2n-1 seed bits of the Steinhaus triangle it is the center of
(core.embed_pascal_in_steinhaus).  orbits._Gf2Map spans the basis into a
low and a high table; each triangle is then one high ^ low entry, counted
by one bit_count().  CENSUS_KINDS holds all that differs per kind: the size
bound, the basis and the closed-form maximum.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple

from .core import Orientation
from .errors import TooLarge
from .orbits import _Gf2Map

STEINHAUS_CENSUS_LIMIT = 16
PASCAL_CENSUS_LIMIT = 10


def packed_steinhaus(seed: int, n: int) -> int:
    """The size-n Steinhaus triangle on the LSB-first seed row, packed:
    row t (n - t cells) starts at bit n + (n-1) + ... + (n-t+1)."""
    packed = 0
    offset = 0
    row = seed
    for width in range(n, 0, -1):
        packed |= row << offset
        offset += width
        row = (row ^ (row >> 1)) & ((1 << (width - 1)) - 1)
    return packed


def _steinhaus_basis(n: int) -> list[int]:
    """One packed triangle per seed bit."""
    return [packed_steinhaus(1 << j, n) for j in range(n)]


def _pascal_basis(n: int) -> list[int]:
    """The centers of the size-(2n-1) Steinhaus basis: Pascal row t is the
    t+1 bits of Steinhaus row t from column n-1, repacked at bit t(t+1)/2."""
    w = 2 * n - 1
    starts = [t * w - t * (t - 1) // 2 + n - 1 - t for t in range(n)]
    return [
        sum(((s >> start) & ((2 << t) - 1)) << (t * (t + 1) // 2)
            for t, start in enumerate(starts))
        for s in _steinhaus_basis(w)
    ]


def _span_census(basis: list[int]) -> tuple[int, int]:
    """(total, maximum) one-count over all 2^len(basis) XORs of the basis."""
    tables = _Gf2Map(basis)
    total = 0
    best = 0
    for high in tables.high:
        ones = list(map(int.bit_count, map(high.__xor__, tables.low)))
        total += sum(ones)
        best = max(best, max(ones))
    return total, best


def steinhaus_max_ones(n: int) -> int:
    """Closed form ceil(2/3 * n(n+1)/2), attained by the length-n initial
    segment of the 3-periodic sequence 110110..."""
    cells = n * (n + 1) // 2
    return -(-2 * cells // 3)


def pascal_max_ones(n: int) -> int:
    """Steinhaus maximum plus a correction depending on n mod 3, with the
    two exceptional sizes 1 and 8."""
    if n == 1:
        extra = 0
    elif n == 8:
        extra = 3
    elif n % 3 == 1:
        extra = 2
    else:
        extra = 1
    return steinhaus_max_ones(n) + extra


class CensusKind(NamedTuple):
    """The census of one triangle kind: its size bound, its basis (one packed
    triangle per free bit) and the closed-form maximum of ones."""

    limit: int
    basis: Callable[[int], list[int]]
    max_ones: Callable[[int], int]


CENSUS_KINDS = {
    Orientation.STEINHAUS: CensusKind(STEINHAUS_CENSUS_LIMIT, _steinhaus_basis, steinhaus_max_ones),
    Orientation.PASCAL: CensusKind(PASCAL_CENSUS_LIMIT, _pascal_basis, pascal_max_ones),
}


def triangle_count(n: int, kind: Orientation) -> int:
    """Binary triangles of size n: one per subset of the basis."""
    return 1 << len(CENSUS_KINDS[kind].basis(n))


@lru_cache(maxsize=None)
def _census(n: int, kind: Orientation) -> tuple[int, int]:
    """(total, maximum) one-count over all binary triangles of size n."""
    if n < 1:
        raise ValueError("census size must be positive")
    limit = CENSUS_KINDS[kind].limit
    if n > limit:
        raise TooLarge(f"census of size {n} exceeds the bound {limit}")
    return _span_census(CENSUS_KINDS[kind].basis(n))


def average_census(n: int, kind: Orientation) -> int:
    """Total number of ones over all binary triangles of size n; dividing by
    the triangle count gives exactly half the cell count."""
    return _census(n, kind)[0]


def extremal_ones_scan(n: int, kind: Orientation) -> int:
    """Maximum number of ones over all binary triangles of size n."""
    return _census(n, kind)[1]
