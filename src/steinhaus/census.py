"""Exhaustive censuses of small binary triangles: totals, averages, maxima.

Both count every triangle of a size (2^n Steinhaus, 2^(2n-1) Pascal), so they
are capped.  They are bit-sliced over blocks of 2^LANE_BITS triangles: a cell
is one int whose bit t is that cell in triangle t, derived from the free-bit
planes by the local rule, one XOR each, and streamed into a carry-save
counter of full adders, planes whose bit t, read down the list, is the
one-count of triangle t.
CENSUS_KINDS holds what differs per kind: size bound, free-bit count, cell
planes and closed-form maximum.  The blocks (_free_planes) and the counter
(bit_sliced_sum) also count symmetry's balance plane, a lane per coordinate.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple

from .core import Orientation
from .errors import TooLarge

STEINHAUS_CENSUS_LIMIT = 16
PASCAL_CENSUS_LIMIT = 10
LANE_BITS = 16  # a block counts 2^16 triangles, one per bit of each plane


def bit_sliced_sum(cells: Iterable[int]) -> list[int]:
    """Counter planes whose bit t, read down the list (plane i weighing 2^i),
    is how many of the cells have bit t set, the top plane nonzero.  Carry-save
    (Harley-Seal; Warren, Hacker's Delight, ch. 5): level i holds a sum and at
    most one waiting plane; a third goes through a full adder whose carry moves
    up, so a cell costs about one adder (5 operations), not 2 per level."""
    sums: list[int] = []
    waiting: list[int] = []  # 0 when the level has no plane waiting
    for plane in cells:
        for i, held in enumerate(waiting):
            if not held:
                waiting[i] = plane
                break
            total = sums[i]
            partial = total ^ held
            sums[i], waiting[i] = partial ^ plane, 0
            plane = (total & held) | (plane & partial)
        else:
            sums.append(plane)
            waiting.append(0)
    counter, carry = [], 0  # each level's two planes and the carry from below
    for total, held in zip(sums, waiting):
        partial = total ^ held
        counter.append(partial ^ carry)
        carry = (total & held) | (carry & partial)
    counter.append(carry)
    while counter and not counter[-1]:
        counter.pop()
    return counter


def _free_planes(k: int) -> Iterator[list[int]]:
    """The k free-bit planes of each block in turn: lane t of block b is the
    triangle whose free bits are the bits of b * 2^LANE_BITS + t.  Low plane
    j, built by doubling, has bit t set when bit j of t is."""
    lanes, low = min(k, LANE_BITS), []
    for j in range(lanes):
        width = 1 << j
        low = [*(plane | plane << width for plane in low), ((1 << width) - 1) << width]
    ones = (1 << (1 << lanes)) - 1
    for block in range(1 << (k - lanes)):
        yield [*low, *(ones if block >> j & 1 else 0 for j in range(k - lanes))]


def _steinhaus_cells(free: list[int]) -> Iterator[int]:
    """Cell planes row by row from the n seed planes, one row alive at a time."""
    row = list(free)
    while row:
        yield from row
        for j in range(len(row) - 1):
            row[j] ^= row[j + 1]
        row.pop()


def _pascal_cells(free: list[int]) -> Iterator[int]:
    """Cell planes row by row from the 2n-1 free planes: the apex, then the n-1
    further left-side and n-1 further right-side bits of core.build_pascal."""
    n = (len(free) + 1) // 2
    row = free[:1]
    yield from row
    for left, right in zip(free[1:n], free[n:]):
        row = [left, *(a ^ b for a, b in zip(row, row[1:])), right]
        yield from row


def steinhaus_max_ones(n: int) -> int:
    """Closed form ceil(2/3 * n(n+1)/2), attained by the length-n initial
    segment of the 3-periodic sequence 110110..."""
    cells = n * (n + 1) // 2
    return -(-2 * cells // 3)


def pascal_max_ones(n: int) -> int:
    """Steinhaus maximum plus a correction depending on n mod 3, with the
    two exceptional sizes 1 and 8."""
    extra = 0 if n == 1 else 3 if n == 8 else 2 if n % 3 == 1 else 1
    return steinhaus_max_ones(n) + extra


class CensusKind(NamedTuple):
    """One kind's census: size bound, free-bit count, cell planes, maximum formula."""

    limit: int
    free_bits: Callable[[int], int]
    cells: Callable[[list[int]], Iterator[int]]
    max_ones: Callable[[int], int]


CENSUS_KINDS = {
    Orientation.STEINHAUS:
        CensusKind(STEINHAUS_CENSUS_LIMIT, lambda n: n, _steinhaus_cells, steinhaus_max_ones),
    Orientation.PASCAL:
        CensusKind(PASCAL_CENSUS_LIMIT, lambda n: 2 * n - 1, _pascal_cells, pascal_max_ones),
}


def triangle_count(n: int, kind: Orientation) -> int:
    """Binary triangles of size n: one per setting of the free bits."""
    return 1 << CENSUS_KINDS[kind].free_bits(n)


def check_census_size(n: int, kind: Orientation) -> None:
    if n < 1:
        raise ValueError("census size must be positive")
    if n > CENSUS_KINDS[kind].limit:
        raise TooLarge(f"census of size {n} exceeds the bound {CENSUS_KINDS[kind].limit}")


@lru_cache(maxsize=None)
def _census(n: int, kind: Orientation) -> tuple[int, int]:
    """(total, maximum) one-count over all binary triangles of size n."""
    check_census_size(n, kind)
    census = CENSUS_KINDS[kind]
    total = best = 0
    for free in _free_planes(census.free_bits(n)):
        counter = bit_sliced_sum(census.cells(free))
        total += sum(plane.bit_count() << i for i, plane in enumerate(counter))
        alive, ones = -1, 0  # from the top plane down: the lanes with the most ones, and that count
        for i in reversed(range(len(counter))):
            if alive & counter[i]:
                alive &= counter[i]
                ones |= 1 << i
        best = max(best, ones)
    return total, best


def average_census(n: int, kind: Orientation) -> int:
    """Total number of ones over all binary triangles of size n; dividing by
    the triangle count gives exactly half the cell count."""
    return _census(n, kind)[0]


def extremal_ones_scan(n: int, kind: Orientation) -> int:
    """Maximum number of ones over all binary triangles of size n."""
    return _census(n, kind)[1]
