import itertools
import random
from functools import lru_cache, reduce
from operator import xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expected_values import BALANCED_REPRESENTATIVES_24, CLASS9_REP

from steinhaus import (
    GroupElement,
    Orientation,
    ResidueTuple,
    Triangle,
    apply,
    build_pascal,
    build_period_grid,
    build_steinhaus,
    compose,
    derive_tuple,
    embed_pascal_in_steinhaus,
    enumerate_periodic_tuples,
    extract_center_pascal,
    gf2_kernel_basis,
    is_balanced,
    multiplicity,
    orbit_cell,
    partition_classes,
    reflect_i,
    rotate_r,
    translate,
    wendt_matrix,
)
from steinhaus.census import _pascal_basis, _steinhaus_basis, packed_pascal, packed_steinhaus
from steinhaus.modm import _interlaced_orbit_rows
from steinhaus.orbits import BlockCounter, PeriodGrid, _derive_bits, periodic_tuple_bits
from steinhaus.search import (
    _accepts,
    _first_anchors,
    balanced_period_classes,
    extract_block,
    remainder_set,
    triangle_ones,
)
from steinhaus.symmetry import _generator_images, _KernelCoordinates


def residue_tuples(max_len=12, min_len=0, moduli=(2, 3, 5, 7)):
    return st.integers(min_value=min(moduli), max_value=max(moduli)).filter(
        lambda m: m in moduli
    ).flatmap(
        lambda m: st.lists(
            st.integers(min_value=0, max_value=m - 1),
            min_size=min_len,
            max_size=max_len,
        ).map(lambda entries: ResidueTuple(m, tuple(entries)))
    )


@given(residue_tuples())
def test_steinhaus_local_rule_and_cell_count(x):
    tri = build_steinhaus(x)
    assert tri.obeys_local_rule()
    assert tri.cell_count == len(x) * (len(x) + 1) // 2
    assert multiplicity(tri).total == tri.cell_count


@given(residue_tuples(min_len=1), st.data())
def test_pascal_local_rule_and_cell_count(left, data):
    m = left.modulus
    rest = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=m - 1),
            min_size=len(left) - 1,
            max_size=len(left) - 1,
        )
    )
    right = ResidueTuple(m, (left[0],) + tuple(rest))
    tri = build_pascal(left, right)
    assert tri.obeys_local_rule()
    assert tri.cell_count == len(left) * (len(left) + 1) // 2
    assert tuple(row[0] for row in tri.rows) == left.entries
    assert tuple(row[-1] for row in tri.rows) == right.entries


@given(residue_tuples(moduli=(2,), min_len=1, max_len=14))
def test_balanced_spread_forced_by_parity(x):
    tri = build_steinhaus(x)
    balanced, spread = is_balanced(tri)
    if balanced:
        expected = 0 if len(x) % 4 in (0, 3) else 1
        assert spread == expected


@given(residue_tuples(min_len=1, max_len=8), st.integers(0, 20), st.integers(-15, 15))
@settings(max_examples=60)
def test_orbit_cell_agrees_with_iterated_derivation(x, i, j):
    row = x
    for _ in range(i):
        row = derive_tuple(row)
    assert orbit_cell(x, i, j) == row[j % len(x)]


@given(residue_tuples(min_len=1))
def test_reflection_is_an_involution(x):
    assert reflect_i(reflect_i(x)) == x


@given(residue_tuples(min_len=1, moduli=(2,)))
def test_rotation_has_order_three(x):
    assert rotate_r(rotate_r(rotate_r(x))) == x


@given(residue_tuples(min_len=1, moduli=(2,)))
def test_rotation_reflection_braid(x):
    ir = rotate_r(reflect_i(x))
    assert rotate_r(reflect_i(ir)) == x


def test_rotation_requires_modulus_two():
    with pytest.raises(ValueError):
        rotate_r(ResidueTuple(3, (0, 1)))


def test_embed_round_trip_exhaustive_up_to_size_8():
    for n in range(1, 9):
        for left_bits in range(1 << n):
            left = ResidueTuple(2, tuple((left_bits >> k) & 1 for k in range(n)))
            for rest in range(1 << (n - 1)):
                right = ResidueTuple(
                    2, (left[0],) + tuple((rest >> k) & 1 for k in range(n - 1))
                )
                tri = build_pascal(left, right)
                host = embed_pascal_in_steinhaus(tri)
                assert host.size == 2 * n - 1
                assert extract_center_pascal(host) == tri


def test_kernel_membership_equals_vertical_periodicity_exhaustive():
    for p in range(1, 17):
        periodic = set(periodic_tuple_bits(p))
        assert len(periodic) == 1 << len(gf2_kernel_basis(wendt_matrix(p)))
        for bits in range(1 << p):
            row = bits
            for _ in range(p):
                row = _derive_bits(row, p)
            assert (row == bits) == (bits in periodic), (p, bits)


def test_kernel_basis_vectors_independent():
    for p in (6, 7, 12, 14, 15, 24):
        basis = gf2_kernel_basis(wendt_matrix(p))
        seen = {0}
        for combo in range(1, 1 << len(basis)):
            value = 0
            for k in range(len(basis)):
                if (combo >> k) & 1:
                    value ^= basis[k]
            assert value not in seen or combo == 0
            seen.add(value)
            if combo > 4096:
                break


def test_window_independence_random():
    rng = random.Random(5)
    for text in ("010100", "000000101000111110001101", "000101000101"):
        x = ResidueTuple.from_string(text)
        grid = build_period_grid(x)
        base = grid.multiplicity()
        for _ in range(20):
            i0, j0 = rng.randrange(100), rng.randrange(100)
            assert grid.window_multiplicity(i0, j0) == base


def test_group_relations_exhaustive_small_periods():
    for p in (6, 12):
        for x in enumerate_periodic_tuples(p):
            assert rotate_r(rotate_r(rotate_r(x))) == x
            assert reflect_i(reflect_i(x)) == x
            ir = rotate_r(reflect_i(x))
            assert rotate_r(reflect_i(ir)) == x


def test_rotation_reflection_preserve_periodic_sets():
    for p in (6, 12):
        po = set(enumerate_periodic_tuples(p))
        assert {rotate_r(x) for x in po} == po
        assert {reflect_i(x) for x in po} == po


def test_translation_morphism_random():
    rng = random.Random(11)
    po = enumerate_periodic_tuples(12)
    for _ in range(50):
        x = rng.choice(po)
        u, v, u2, v2 = (rng.randrange(12) for _ in range(4))
        assert translate(translate(x, u, v), u2, v2) == translate(x, u + u2, v + v2)


def test_action_preserves_grid_multiplicity():
    rng = random.Random(13)
    po = enumerate_periodic_tuples(12)
    for _ in range(50):
        x = rng.choice(po)
        g = GroupElement(12, rng.randrange(12), rng.randrange(12), rng.randrange(3), rng.randrange(2))
        assert build_period_grid(apply(g, x)).multiplicity() == build_period_grid(x).multiplicity()


def test_class_sizes_sum_and_divide():
    for p in range(1, 25):
        classes = partition_classes(p)
        assert sum(c.size for c in classes) == len(enumerate_periodic_tuples(p))
        for c in classes:
            assert (6 * p * p) % c.size == 0


def test_compose_is_associative():
    p = 4
    rng = random.Random(3)
    elements = [
        GroupElement(p, rng.randrange(p), rng.randrange(p), rng.randrange(3), rng.randrange(2))
        for _ in range(30)
    ]
    for g, h, k in itertools.islice(itertools.product(elements, repeat=3), 4000):
        assert compose(compose(g, h), k) == compose(g, compose(h, k))


@lru_cache(maxsize=None)
def _counted_orbit(modulus):
    """Fundamental domain and its counter: the p = 24 class-9 grid for
    modulus 2, the interlaced orbit otherwise."""
    if modulus == 2:
        rows = build_period_grid(ResidueTuple.from_string(CLASS9_REP)).cells
    else:
        rows = _interlaced_orbit_rows(modulus)
    return rows, BlockCounter(rows, modulus)


def _direct_count(rows, modulus, kind, i0, j0, n, residue):
    q = len(rows)
    triangle = Triangle(kind, modulus, tuple(
        tuple(
            rows[(i0 + i) % q][(j0 + j) % q]
            for j in (range(i, n) if kind is Orientation.STEINHAUS else range(i + 1))
        )
        for i in range(n)
    ))
    return multiplicity(triangle).counts[residue]


@pytest.mark.parametrize("modulus", [2, 3, 5], ids=["grid24", "interlaced3", "interlaced5"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_block_counter_profile_matches_extraction(modulus, data):
    rows, counter = _counted_orbit(modulus)
    q = len(rows)
    kind = data.draw(st.sampled_from(list(Orientation)))
    i0, j0 = data.draw(st.integers(-q, 2 * q)), data.draw(st.integers(-q, 2 * q))
    n_max = data.draw(st.integers(0, 2 * q + 5))  # beyond q the segments wrap
    n = data.draw(st.integers(0, n_max))
    residue = data.draw(st.integers(0, modulus - 1))
    counts = counter.profile(kind, i0, j0, n_max, residue)
    assert len(counts) == n_max + 1
    for size in (n, n_max):
        assert counts[size] == _direct_count(rows, modulus, kind, i0, j0, size, residue)


@lru_cache(maxsize=None)
def _kernel_coordinates(p):
    return _KernelCoordinates(p)


@pytest.mark.parametrize("p", [6, 7, 12, 14, 24])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_kernel_coordinate_images_match_bit_level_generators(p, data):
    space = _kernel_coordinates(p)
    span = periodic_tuple_bits(p)
    c = data.draw(st.integers(0, len(span) - 1))
    bits = span[c]
    assert space.coordinates(bits) == c
    images = tuple(span[image] for image in space.images(c))
    assert images == _generator_images(bits, p)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_oracle_popcount_matches_extraction(data):
    p = 24
    grid = build_period_grid(
        ResidueTuple.from_string(data.draw(st.sampled_from(BALANCED_REPRESENTATIVES_24)))
    )
    kind = data.draw(st.sampled_from(list(Orientation)))
    i0, j0 = data.draw(st.integers(-p, 2 * p)), data.draw(st.integers(-p, 2 * p))
    n = data.draw(st.integers(0, 5 * p))
    expected = multiplicity(extract_block(grid, i0, j0, n, kind)).counts[1]
    assert triangle_ones(grid, i0, j0, n, kind) == expected


def _per_anchor_witnesses(grid, kind):
    """The scan the packed remainder scan replaced: one BlockCounter profile
    per anchor in scan order (i0, then j0), tested by _accepts, keeping the
    first witness per remainder."""
    p = grid.p
    counter = BlockCounter(grid.cells, 2)
    found = {}
    for i0 in range(p):
        for j0 in range(p):
            ones = counter.profile(kind, i0, j0, 2 * p - 1)
            for r in range(p):
                if r not in found and _accepts(ones, p, r):
                    found[r] = (i0, j0)
    return tuple((r, *found[r]) for r in sorted(found))


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_packed_remainder_scan_matches_per_anchor_scan_p24(data):
    p = 24
    rep = ResidueTuple.from_string(data.draw(st.sampled_from(BALANCED_REPRESENTATIVES_24)))
    g = GroupElement(
        p, data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, p - 1)),
        data.draw(st.integers(0, 2)), data.draw(st.integers(0, 1)),
    )
    x = apply(g, rep)
    for kind in Orientation:
        rset = remainder_set(x, kind)
        assert (rset.class_rep, rset.kind, rset.p) == (x, kind, p)
        assert rset.witnesses == _per_anchor_witnesses(build_period_grid(x), kind)


@pytest.mark.parametrize("p", [12, 36])
def test_packed_remainder_scan_matches_per_anchor_scan(p):
    classes = balanced_period_classes(p)
    assert len(classes) == 2
    for cls in classes:
        grid = build_period_grid(cls.representative)
        for kind in Orientation:
            expected = _per_anchor_witnesses(grid, kind)
            assert remainder_set(cls.representative, kind).witnesses == expected


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_packed_remainder_scan_matches_per_anchor_scan_on_any_grid(data):
    """Any p-by-p grid, not only an orbit's: odd p (whose bands of odd size
    never split) and grids dense enough that the counts of balanced bands
    approach the top bit of their fields."""
    p = data.draw(st.sampled_from([3, 5, 12, 20, 24]))
    density = data.draw(st.floats(0.3, 0.7))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    rows = tuple(sum((rng.random() < density) << j for j in range(p)) for _ in range(p))
    grid = PeriodGrid(p, rows)
    for kind in Orientation:
        first = _first_anchors(grid, kind)
        packed = tuple((r, *divmod(first[r], p)) for r in sorted(first))
        assert packed == _per_anchor_witnesses(grid, kind)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_packed_census_triangle_matches_built_triangle(data):
    """The census's packed triangle of a random seed or side pair has bit i
    equal to cell i of the directly built triangle, and is the XOR of the
    basis triangles of its free bits, as the census spans them."""
    n = data.draw(st.integers(1, 16))
    if data.draw(st.booleans()):
        seed = data.draw(st.integers(0, (1 << n) - 1))
        built = build_steinhaus(ResidueTuple.from_bits(seed, n))
        packed = packed_steinhaus(seed, n)
        basis, free_bits = _steinhaus_basis(n), seed
    else:
        left = data.draw(st.integers(0, (1 << n) - 1))
        right = data.draw(st.integers(0, (1 << n) - 1)) & ~1 | left & 1
        built = build_pascal(ResidueTuple.from_bits(left, n), ResidueTuple.from_bits(right, n))
        packed = packed_pascal(left, right, n)
        # basis order: apex, left bits 1..n-1, right bits 1..n-1
        basis, free_bits = _pascal_basis(n), left | (right >> 1) << n
    assert packed == sum(e << i for i, e in enumerate(built.cells()))
    assert reduce(xor, (v for k, v in enumerate(basis) if free_bits >> k & 1), 0) == packed
