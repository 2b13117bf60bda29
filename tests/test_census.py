import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steinhaus import (
    Orientation,
    ResidueTuple,
    TooLarge,
    average_census,
    build_pascal,
    build_steinhaus,
    extremal_ones_scan,
    multiplicity,
    pascal_max_ones,
    steinhaus_max_ones,
)
from steinhaus import census
from steinhaus.census import bit_sliced_sum, triangle_count


def test_average_small_steinhaus():
    # enumerating 00, 01, 10, 11 by hand gives 0 + 2 + 2 + 2 ones
    assert average_census(2, Orientation.STEINHAUS) == 6
    assert average_census(1, Orientation.STEINHAUS) == 1


def test_average_small_pascal():
    total = average_census(3, Orientation.PASCAL)
    assert total / triangle_count(3, Orientation.PASCAL) == 3.0


@pytest.mark.parametrize("kind,n_max", [(Orientation.STEINHAUS, 12), (Orientation.PASCAL, 8)])
def test_average_equals_half_the_cells(kind, n_max):
    for n in range(1, n_max + 1):
        total = average_census(n, kind)
        assert 2 * total == triangle_count(n, kind) * n * (n + 1) // 2


def test_extremal_examples():
    assert extremal_ones_scan(3, Orientation.STEINHAUS) == 4
    assert extremal_ones_scan(1, Orientation.STEINHAUS) == 1
    assert extremal_ones_scan(1, Orientation.PASCAL) == 1
    assert extremal_ones_scan(8, Orientation.PASCAL) == 27
    assert pascal_max_ones(8) == 27


def test_steinhaus_maximum_attained_by_period_three_seed():
    for n in range(1, 13):
        seed = ResidueTuple(2, tuple((1, 1, 0)[j % 3] for j in range(n)))
        attained = multiplicity(build_steinhaus(seed)).counts[1]
        assert attained == steinhaus_max_ones(n) == extremal_ones_scan(n, Orientation.STEINHAUS)


def test_pascal_formula_within_bounds():
    for n in range(1, 9):
        assert extremal_ones_scan(n, Orientation.PASCAL) == pascal_max_ones(n)


def test_census_bounds():
    with pytest.raises(TooLarge):
        average_census(17, Orientation.STEINHAUS)
    with pytest.raises(TooLarge):
        extremal_ones_scan(11, Orientation.PASCAL)
    with pytest.raises(ValueError):
        average_census(0, Orientation.STEINHAUS)


def _direct_census(triangles):
    """(total, maximum) one-count over the given triangles, counted cell by cell."""
    ones = [multiplicity(tri).counts[1] for tri in triangles]
    return sum(ones), max(ones)


def _direct_triangles(n, kind):
    """Every binary triangle of size n, rebuilt by the core builders."""
    if kind is Orientation.STEINHAUS:
        return [build_steinhaus(ResidueTuple.from_bits(s, n)) for s in range(1 << n)]
    return [
        build_pascal(ResidueTuple.from_bits(left, n), ResidueTuple.from_bits(right, n))
        for left in range(1 << n)
        for right in range(1 << n)
        if (left ^ right) & 1 == 0
    ]


@pytest.mark.parametrize(
    "kind,n_max", [(Orientation.STEINHAUS, 7), (Orientation.PASCAL, 4)], ids=["steinhaus", "pascal"]
)
def test_census_matches_direct_enumeration(kind, n_max):
    """Every triangle of each size rebuilt by the core builders and recounted,
    independently of the bit-sliced planes."""
    for n in range(1, n_max + 1):
        triangles = _direct_triangles(n, kind)
        assert len(triangles) == triangle_count(n, kind)
        assert _direct_census(triangles) == (average_census(n, kind), extremal_ones_scan(n, kind))


@pytest.mark.parametrize(
    "kind,n_max", [(Orientation.STEINHAUS, 7), (Orientation.PASCAL, 4)], ids=["steinhaus", "pascal"]
)
def test_census_split_into_blocks_matches_direct_enumeration(kind, n_max, monkeypatch):
    """With four lanes a block, every size past two free bits runs several
    blocks, whose totals and maxima combine to the direct recount."""
    monkeypatch.setattr(census, "LANE_BITS", 2)
    census._census.cache_clear()
    try:
        for n in range(1, n_max + 1):
            expected = _direct_census(_direct_triangles(n, kind))
            assert (average_census(n, kind), extremal_ones_scan(n, kind)) == expected
    finally:
        census._census.cache_clear()


def _ripple_sum(cells):
    """Reference counter: each cell rippled in as a carry through every level."""
    counter = []
    for carry in cells:
        for i, plane in enumerate(counter):
            counter[i], carry = plane ^ carry, plane & carry
        if carry:
            counter.append(carry)
    return counter


def _planes(width):
    ones = (1 << width) - 1
    plane = st.one_of(st.just(0), st.just(ones), st.integers(0, ones))
    return st.tuples(st.just(width), st.lists(plane, max_size=300))


@given(st.integers(1, 300).flatmap(_planes))
@example((1, []))
@example((7, [0, 0, 0]))
@example((300, [(1 << 300) - 1]))
@settings(max_examples=150, deadline=None)
def test_bit_sliced_sum_matches_ripple_reference(drawn):
    """The carry-save counter equals the ripple counter plane for plane, reads
    each lane's count in binary down the list, and ends on a nonzero plane,
    for empty input (no planes), one plane, all-zero and all-one planes alike."""
    width, cells = drawn
    counter = bit_sliced_sum(iter(cells))
    assert counter == _ripple_sum(cells)
    assert not counter or counter[-1]
    for t in range(width):
        read = sum((level >> t & 1) << i for i, level in enumerate(counter))
        assert read == sum(cell >> t & 1 for cell in cells)


def test_bit_sliced_sum_streams_its_cells():
    """2 000 planes of 2^16 lanes (16 MB if listed) sum under 1 MB of traced
    peak: the counter keeps two planes a level, never its input."""
    def planes():
        rng = random.Random(1)
        return (rng.getrandbits(1 << 16) for _ in range(2000))

    tracemalloc.start()
    try:
        counter = bit_sliced_sum(planes())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert counter == _ripple_sum(planes())
