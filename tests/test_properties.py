import itertools
import random
from itertools import islice
from functools import lru_cache, reduce
from math import gcd
from operator import or_, xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expected_values import BALANCED_REPRESENTATIVES_24, CLASS9_REP
from test_line_stream import _ones_prefix
from test_orbits import window_multiplicity
from test_symmetry import _BreadthFirst

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
    generator_tuple,
    gf2_kernel_basis,
    is_balanced,
    multiplicity,
    orbit_cell,
    partition_classes,
    pascal_generator_tuples,
    reflect_i,
    rotate_r,
    translate,
    wendt_matrix,
)
from steinhaus.census import CENSUS_KINDS, LANE_BITS, _free_planes
from steinhaus.core import TRIANGLE_SIZE_LIMIT
from steinhaus.errors import UnbalancedPeriod
from steinhaus.modm import (
    ApFamilySpec,
    SizeWitness,
    _interlaced_orbit_rows,
    ap_balanced_scan,
    interlaced_scan,
)
from steinhaus.orbits import (
    AnchorFields,
    PeriodGrid,
    _derive_bits,
    _rotate,
    orbit_rows,
    periodic_tuple_bits,
    systematic_basis,
    true_period,
)
from steinhaus.search import (
    _block_ones,
    _first_anchors,
    balanced_period_classes,
    check_family,
    extract_block,
    remainder_set,
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


def _per_kind_rule_holds(tri: Triangle) -> bool:
    """Reference local rule, written out per kind on the stored rows:
    Steinhaus rows[t][k] = rows[t-1][k] + rows[t-1][k+1] for every cell,
    Pascal rows[t][k] = rows[t-1][k-1] + rows[t-1][k] for 1 <= k <= t-1."""
    m, rows = tri.modulus, tri.rows
    if tri.orientation is Orientation.STEINHAUS:
        cells = ((t, k, k, k + 1) for t in range(1, len(rows)) for k in range(len(rows[t])))
    else:
        cells = ((t, k, k - 1, k) for t in range(1, len(rows)) for k in range(1, t))
    return all(rows[t][k] == (rows[t - 1][a] + rows[t - 1][b]) % m for t, k, a, b in cells)


@given(st.sampled_from(Orientation), st.sampled_from((2, 3, 7)), st.integers(1, 9), st.data())
def test_local_rule_check_after_changing_one_cell(kind, m, n, data):
    side = st.lists(st.integers(0, m - 1), min_size=n, max_size=n).map(lambda e: ResidueTuple(m, tuple(e)))
    if kind is Orientation.STEINHAUS:
        tri = build_steinhaus(data.draw(side))
    else:
        left, right = data.draw(side), data.draw(side)
        tri = build_pascal(left, ResidueTuple(m, (left[0],) + right.entries[1:]))
    assert tri.obeys_local_rule()
    rows = [list(row) for row in tri.rows]
    t = data.draw(st.integers(0, n - 1))
    k = data.draw(st.integers(0, len(rows[t]) - 1))
    rows[t][k] = (rows[t][k] + data.draw(st.integers(1, m - 1))) % m
    changed = Triangle(kind, m, tuple(map(tuple, rows)))
    assert changed.obeys_local_rule() == _per_kind_rule_holds(changed)


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


@given(residue_tuples(min_len=1, max_len=9))
@settings(max_examples=60, deadline=None)
def test_orbit_rows_match_closed_form(x):
    for i, row in enumerate(islice(orbit_rows(x), 21)):
        assert row.entries == tuple(orbit_cell(x, i, j) for j in range(len(x)))


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
            assert window_multiplicity(grid, i0, j0) == base


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
    """Fundamental domain: the p = 24 class-9 grid for modulus 2, the
    interlaced orbit otherwise."""
    if modulus == 2:
        return build_period_grid(ResidueTuple.from_string(CLASS9_REP)).cells
    return _interlaced_orbit_rows(modulus)


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


def _one_hot(rows, residue):
    return [sum((v == residue) << j for j, v in enumerate(row)) for row in rows]


def _field(fields, v, index):
    return (v >> (index * fields.w)) & ((1 << fields.w) - 1)


@pytest.mark.parametrize(
    "modulus,skewed",
    [(2, False), (3, False), (5, False), (3, True), (5, True)],
    ids=["grid24", "interlaced3", "interlaced5", "skewed3", "skewed5"],
)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_anchor_fields_triangle_counts_match_extraction(modulus, skewed, data):
    """Counts at any anchor of Z^2, reduced into the packed domain: the whole
    q-by-q period, or the interlaced orbit's 2m-by-3m domain, whose row 2m
    is row 0 moved m columns on."""
    rows = _counted_orbit(modulus)
    q = len(rows)
    kind = data.draw(st.sampled_from(list(Orientation)))
    i0, j0 = data.draw(st.integers(-q, 2 * q)), data.draw(st.integers(-q, 2 * q))
    n_max = data.draw(st.integers(1, 2 * q + 5))  # beyond q the edges wrap
    n = data.draw(st.integers(1, n_max))
    residue = data.draw(st.integers(0, modulus - 1))
    if skewed:
        height, width, skew = 2 * modulus, 3 * modulus, modulus
        fields = AnchorFields(height, n_max * (n_max + 1) // 2, width, skew)
        grid = [row[:width] for row in rows[:height]]
        turns, i = divmod(i0, height)  # (i0, j0) is (i0 - turns*height, j0 - turns*skew)
        anchor = i * width + (j0 - turns * skew) % width
    else:
        fields, grid, anchor = AnchorFields(q, n_max * (n_max + 1) // 2), rows, (i0 % q) * q + j0 % q
    sizes = list(itertools.islice(fields.triangle_counts(_one_hot(grid, residue), kind), n_max))
    totals = [0] + [_field(fields, total, anchor) for total, _ in sizes]
    edges = [_field(fields, edge, anchor) for _, edge in sizes]
    assert edges == [totals[k + 1] - totals[k] for k in range(n_max)]
    for size in (n, n_max):
        assert totals[size] == _direct_count(rows, modulus, kind, i0, j0, size, residue)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_anchor_fields_comparisons_match_field_loop(data):
    """The SWAR comparisons against one Python comparison per field, on
    values that include both ends of a field, 0 and 2^(w-1) - 1, and
    max_count, on a rows-by-cols torus."""
    rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    max_count = data.draw(st.integers(1, 5000))
    fields = AnchorFields(rows, max_count, cols)
    top = (1 << (fields.w - 1)) - 1
    value = st.one_of(st.just(0), st.just(top), st.just(max_count), st.integers(0, top))
    a, b = (data.draw(st.lists(value, min_size=rows * cols, max_size=rows * cols)) for _ in range(2))
    target = data.draw(value)

    def pack(values):
        return sum(v << (k * fields.w) for k, v in enumerate(values))

    def guards(flags):
        return pack([int(f) << (fields.w - 1) for f in flags])

    assert fields.at_most(pack(a), target) == guards(x <= target for x in a)
    assert fields.maximum(pack(a), pack(b)) == pack(map(max, a, b))
    assert fields.minimum(pack(a), pack(b)) == pack(map(min, a, b))
    # miss and hits: up to three counts, each tested against 1, 2 or 4 consecutive
    # targets from 0 up to max_count, its fields drawn at and next to both ends
    bounds = []
    for _ in range(data.draw(st.integers(1, 3))):
        size = data.draw(st.sampled_from([s for s in (1, 2, 4) if s <= max_count + 1]))
        last = max_count + 1 - size
        start = data.draw(st.one_of(st.just(0), st.just(last), st.integers(0, last)))
        near = [v for v in (start - 1, start, start + size - 1, start + size) if 0 <= v <= top]
        counts = data.draw(st.lists(
            st.one_of(st.sampled_from(near), value), min_size=rows * cols, max_size=rows * cols
        ))
        bounds.append((counts, range(start, start + size)))
    # each miss word is zero in exactly the fields inside its targets and
    # never sets a guard bit, so the OR of the misses holds every failure
    misses = [fields.miss(pack(counts), targets) for counts, targets in bounds]
    for miss, (counts, targets) in zip(misses, bounds):
        assert miss & fields.guard == 0
        assert [_field(fields, miss, k) == 0 for k in range(rows * cols)] == [c in targets for c in counts]
    assert fields.hits(reduce(or_, misses)) == guards(
        all(counts[k] in targets for counts, targets in bounds) for k in range(rows * cols)
    )
    hits = fields.at_most(pack(a), target)
    if hits:
        assert fields.first(hits) == min(k for k, x in enumerate(a) if x <= target)
        # every field (i0, j0) moved to (i0+di, j0+dj) of the torus, field by field
        di, dj = data.draw(st.integers(-2 * rows, 2 * rows)), data.draw(st.integers(-2 * cols, 2 * cols))
        moved = [
            ((k // cols + di) % rows) * cols + (k % cols + dj) % cols
            for k, x in enumerate(a)
            if x <= target
        ]
        assert fields.first(hits, di, dj) == min(moved)


def test_anchor_fields_moves_no_hits_on_a_skewed_domain():
    fields = AnchorFields(6, 100, 9, 3)
    hits = fields.guard
    assert fields.first(hits) == 0
    for di, dj in ((1, 0), (0, 1), (6, 3)):
        with pytest.raises(ValueError):
            fields.first(hits, di, dj)


@pytest.mark.parametrize("targets", [range(0), range(3), range(1, 5, 2), range(2, 0, -1)], ids=repr)
def test_anchor_fields_within_takes_only_runs_of_2k_counts(targets):
    fields = AnchorFields(2, 10, 3)
    with pytest.raises(ValueError, match="are not 2\\^k consecutive counts"):
        fields.miss(fields.lsb, targets)


def _string_plane(fields, rows):
    """The first packed plane as one base-2 string: row i's bits LSB-first
    from field i*cols on, w - 1 zeros above each bit."""
    pad = "0" * (fields.w - 1)
    bits = "".join(format(row, f"0{fields.cols}b") for row in reversed(rows))
    return int(pad + pad.join(bits), 2)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_anchor_fields_byte_spread_plane_matches_the_string_plane(data):
    """triangle_counts starts from the byte-spread plane, size 1 being the
    cells themselves; it equals the string-built plane on any layout: cols
    not a multiple of 8, a skew, w from 2 to 22, rows with the top column
    bit set."""
    rows, cols = data.draw(st.integers(1, 50)), data.draw(st.integers(1, 50))
    max_count = data.draw(st.one_of(st.integers(1, 3), st.integers(1, 1 << 20)))
    fields = AnchorFields(rows, max_count, cols, data.draw(st.integers(0, cols)))
    assert 2 <= fields.w <= 22
    full = (1 << cols) - 1
    row = st.one_of(st.integers(0, full), st.integers(1 << (cols - 1), full), st.just(full))
    grid = data.draw(st.lists(row, min_size=rows, max_size=rows))
    kind = data.draw(st.sampled_from(list(Orientation)))
    plane = _string_plane(fields, grid)
    assert next(fields.triangle_counts(grid, kind)) == (plane, plane)
    assert fields.lsb == _string_plane(fields, [full] * rows)


def test_anchor_fields_next_row_turns_the_wrapped_row_by_the_skew():
    """Field (i0, j0) takes (i0 + 1, j0); from the last row that is
    (0, j0 - skew), and next_column takes (i0, j0 + 1) with no skew."""
    height, width, skew = 4, 5, 2
    fields = AnchorFields(height, height * width, width, skew)
    v = sum(k << (k * fields.w) for k in range(height * width))  # field k holds k

    def read(v):
        return [_field(fields, v, k) for k in range(height * width)]

    below = [
        (i + 1) * width + j if i + 1 < height else (j - skew) % width
        for i in range(height)
        for j in range(width)
    ]
    right = [i * width + (j + 1) % width for i in range(height) for j in range(width)]
    assert read(fields.next_row(v)) == below
    assert read(fields.next_column(v)) == right


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


@lru_cache(maxsize=None)
def _breadth_first(p):
    return _BreadthFirst(p)


@pytest.mark.parametrize("p", [6, 7, 12, 14, 24])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_coset_orbit_matches_the_breadth_first_walk(p, data):
    """One orbit call from a random start returns the reference's (key,
    size) and marks exactly its members; a second start, walked after the
    first class is marked, does the same."""
    space, reference = _kernel_coordinates(p), _breadth_first(p)
    visited, expected = bytearray(1 << space.d), bytearray(1 << space.d)
    for _ in range(2):
        start = data.draw(st.integers(0, len(visited) - 1))
        if visited[start]:
            continue
        assert space.orbit(start, visited) == reference.orbit(start, expected)
        assert visited == expected


@lru_cache(maxsize=None)
def _kernel_basis(p):
    return gf2_kernel_basis(wendt_matrix(p))


def _image_by_generators(x, u, v, alpha, beta):
    """Image of x under t(u,v) r^alpha i^beta, one generator step at a time:
    derive -u times and shift v columns (entry j becomes cell (-u, j-v)),
    then rotate alpha times and reflect beta times."""
    p, bits = len(x), x.bits
    for _ in range(-u % p):
        bits = _derive_bits(bits, p)
    for _ in range(v % p):
        bits = _rotate(bits, 1, p)
    image = ResidueTuple.from_bits(bits, p)
    for _ in range(alpha):
        image = rotate_r(image)
    return reflect_i(image) if beta else image


@pytest.mark.parametrize("p", [6, 12, 24, 28, 48, 56, 216])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_group_images_and_witness_generators_are_grid_lines(p, data):
    # kernel tuples drawn by their coordinates, so periods beyond the partition limit count too
    basis = _kernel_basis(p)
    c = data.draw(st.integers(0, (1 << len(basis)) - 1), label="kernel coordinates")
    x = ResidueTuple.from_bits(reduce(xor, (b for k, b in enumerate(basis) if c >> k & 1), 0), p)
    u, v, i0, j0 = (data.draw(st.integers(-p, 2 * p)) for _ in range(4))
    alpha, beta = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 1))
    assert apply(GroupElement(p, u, v, alpha, beta), x) == _image_by_generators(x, u, v, alpha, beta)
    assert generator_tuple(x, i0, j0) == apply(GroupElement(p, -i0, -j0), x)
    assert pascal_generator_tuples(x, i0, j0) == (
        apply(GroupElement(p, -i0, -j0 - 1, 1, 0), x),
        apply(GroupElement(p, -i0, -j0, 2, 1), x),
    )


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
    assert _block_ones(grid, i0, j0, n, kind)[-1] == expected


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_line_count_prefix_matches_extraction_at_every_size(data):
    """Entry m of the one line-count prefix is the ones of the size-m
    triangle, for every m up to n: no size reads another size's lines."""
    p = 24
    grid = build_period_grid(
        ResidueTuple.from_string(data.draw(st.sampled_from(BALANCED_REPRESENTATIVES_24)))
    )
    kind = data.draw(st.sampled_from(list(Orientation)))
    i0, j0 = data.draw(st.integers(-p, 2 * p)), data.draw(st.integers(-p, 2 * p))
    n = data.draw(st.integers(0, 5 * p))
    expected = [multiplicity(extract_block(grid, i0, j0, m, kind)).counts[1] for m in range(n + 1)]
    assert _ones_prefix(grid, i0, j0, n, kind) == expected


def _line_prefixes(rows, kind, residue):
    """Prefix sums of the cells equal to residue along each column
    (Steinhaus) or row (Pascal) of the fundamental domain, over the line
    written out twice, so a wrapped segment is one difference."""
    lines = list(zip(*rows)) if kind is Orientation.STEINHAUS else rows
    doubled = ((v == residue for v in (*line, *line)) for line in lines)
    return [list(itertools.accumulate(cells, initial=0)) for cells in doubled]


def _profile(prefixes, kind, i0, j0, n_max):
    """counts[n] for the size-n triangle at (i0, j0), n = 0..n_max: growing
    it adds the column segment (i0..i0+n-1, j0+n-1) for Steinhaus, the row
    segment (i0+n-1, j0..j0+n-1) for Pascal."""
    q = len(prefixes)
    first, start = (j0, i0 % q) if kind is Orientation.STEINHAUS else (i0, j0 % q)
    counts = [0]
    for n in range(1, n_max + 1):
        pref = prefixes[(first + n - 1) % q]
        full, rest = divmod(n, q)
        counts.append(counts[-1] + full * pref[q] + pref[start + rest] - pref[start])
    return counts


@pytest.mark.parametrize("kind", list(Orientation))
def test_line_count_prefix_past_the_mask_table(rep9_grid, kind):
    """Sizes past TRIANGLE_SIZE_LIMIT, which the oracle refuses but the
    counts themselves do not bound: the line stream at every size and the
    block count at every size = n (mod p), against the per-line prefix sums
    of the fundamental domain."""
    n = TRIANGLE_SIZE_LIMIT + 30
    profile = _profile(_line_prefixes(rep9_grid.cells, kind, 1), kind, 7, -5, n)
    assert _ones_prefix(rep9_grid, 7, -5, n, kind) == profile
    assert _block_ones(rep9_grid, 7, -5, n, kind) == profile[n % rep9_grid.p::rep9_grid.p]


def _family_rule(corner, band, p, r):
    """The family rule from its definition: the size-r corner balanced,
    |r(r+1)/2 - 2 corner| <= 1, and the band that growing it to size p + r
    adds split evenly, 2 band = p r + p(p+1)/2."""
    return abs(r * (r + 1) // 2 - 2 * corner) <= 1 and 2 * band == p * r + p * (p + 1) // 2


def _check_certificate_counts(x, grid, i0, j0, r, kind, extract):
    """check_family at one anchor and remainder against the reference line
    stream (_ones_prefix) and, when extract is set, against cells counted
    from extract_block: the same acceptance, and on acceptance the same
    corner and band ones.  Returns whether the family was accepted."""
    p = grid.p
    ones = _ones_prefix(grid, i0, j0, p + r, kind)
    corner, band = ones[r], ones[p + r] - ones[r]
    if extract:
        assert corner == multiplicity(extract_block(grid, i0, j0, r, kind)).counts[1]
        assert ones[p + r] == multiplicity(extract_block(grid, i0, j0, p + r, kind)).counts[1]
    cert = check_family(x, i0, j0, r, kind)
    assert (cert is not None) == _family_rule(corner, band, p, r)
    if cert is not None:
        assert (cert.corner_ones, cert.band_ones, cert.position) == (corner, band, (i0 % p, j0 % p))
    return cert is not None


@pytest.mark.parametrize("p", [4, 8, 12, 24, 36, 72])
def test_certificate_counts_match_the_line_stream(p):
    """Every class, both kinds and every remainder: each scan witness moved
    by whole periods (negative ones too) and two anchors drawn from
    -3p..3p-1; an unbalanced period is refused (p = 4 and 8 have only those)."""
    rng = random.Random(p)
    checks = 0
    for cls in partition_classes(p):
        x = cls.representative
        grid = build_period_grid(x)
        if 2 * grid.ones != p * p:
            with pytest.raises(UnbalancedPeriod):
                check_family(x, 0, 0, 0, Orientation.STEINHAUS)
            continue
        for kind in Orientation:
            witnesses = remainder_set(x, kind)
            for r in range(p):
                for i0, j0 in [(rng.randrange(-3 * p, 3 * p), rng.randrange(-3 * p, 3 * p)) for _ in range(2)]:
                    _check_certificate_counts(x, grid, i0, j0, r, kind, checks % p == 0)
                    checks += 1
                if witnesses.witness(r) is not None:
                    i0, j0 = witnesses.witness(r)
                    i0, j0 = i0 + rng.randrange(-2, 3) * p, j0 + rng.randrange(-2, 3) * p
                    assert _check_certificate_counts(x, grid, i0, j0, r, kind, checks % p == 0)
                    checks += 1


def test_certificate_counts_match_the_line_stream_at_p216():
    """A sample at p = 216, whose lines outgrow one machine word many times
    over: three classes, 24 remainders each, the witness and one far anchor."""
    p, rng = 216, random.Random(216)
    accepted = []
    for cls in rng.sample(balanced_period_classes(p), 3):
        x = cls.representative
        grid = build_period_grid(x)
        for kind in Orientation:
            witnesses = remainder_set(x, kind)
            for r in rng.sample(range(p), 24):
                i0, j0 = rng.randrange(-5 * p, 5 * p), rng.randrange(-5 * p, 5 * p)
                _check_certificate_counts(x, grid, i0, j0, r, kind, False)
                if witnesses.witness(r) is not None:
                    i0, j0 = witnesses.witness(r)
                    accepted.append((x, grid, i0 - 3 * p, j0 + 2 * p, r, kind))
                    assert _check_certificate_counts(*accepted[-1], False)
    assert len(accepted) >= 24
    assert _check_certificate_counts(*accepted[0], True)


def _per_anchor_witnesses(grid, kind):
    """The scan the packed remainder scan replaced: one prefix-sum profile
    per anchor in scan order (i0, then j0), tested by _family_rule, keeping
    the first witness per remainder."""
    p = grid.p
    prefixes = _line_prefixes(grid.cells, kind, 1)
    found = {}
    for i0 in range(p):
        for j0 in range(p):
            ones = _profile(prefixes, kind, i0, j0, 2 * p - 1)
            for r in range(p):
                if r not in found and _family_rule(ones[r], ones[p + r] - ones[r], p, r):
                    found[r] = (i0, j0)
    return tuple((r, *found[r]) for r in sorted(found))


def _per_position_interlaced_scan(m, n_max, kind):
    """The mod-m scan the packed one replaced: one profile per position and
    nonzero residue, keeping the first position with the smallest spread."""
    rows = _interlaced_orbit_rows(m)
    q = len(rows)
    prefixes = [_line_prefixes(rows, kind, x) for x in range(1, m)]
    best = [(n_max + 2, None)] * (n_max + 1)
    for i0 in range(q):
        for j0 in range(q):
            profiles = [_profile(pref, kind, i0, j0, n_max) for pref in prefixes]
            for n, counts in enumerate(zip(*profiles)):
                zero = n * (n + 1) // 2 - sum(counts)
                spread = max(zero, *counts) - min(zero, *counts)
                if n and spread < best[n][0]:
                    best[n] = (spread, (i0, j0))
    return [
        SizeWitness(n, best[n][0] <= 1, best[n][1] if best[n][0] <= 1 else None, best[n][0])
        for n in range(1, n_max + 1)
    ]


@pytest.mark.parametrize("kind", list(Orientation), ids=lambda kind: kind.value)
@pytest.mark.parametrize("m,n_max", [(3, 1), (3, 2), (3, 41), (5, 65), (9, 113)])
def test_packed_interlaced_scan_matches_per_position_scan(m, n_max, kind):
    """Positions and spreads of every size; 2 * 6m + 5 wraps every edge twice."""
    assert interlaced_scan(m, n_max, kind) == _per_position_interlaced_scan(m, n_max, kind)


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


@pytest.mark.parametrize("p", [12, 24, 36])
def test_packed_remainder_scan_matches_per_anchor_scan(p):
    """The balanced classes whose true period 8 does not divide: two at
    each p, with q = 12 and q = 6 (all of p = 12 and 36).  remainder_set
    answers them by band parity, with no scan; the reference scans every
    anchor of the p-by-p grid and finds no family either."""
    classes = [cls for cls in balanced_period_classes(p) if true_period(cls.representative) % 8]
    assert sorted(true_period(cls.representative) for cls in classes) == [6, 12]
    for cls in classes:
        grid = build_period_grid(cls.representative)
        for kind in Orientation:
            expected = _per_anchor_witnesses(grid, kind)
            assert remainder_set(cls.representative, kind).witnesses == expected == ()


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_lifted_remainder_set_matches_the_full_scan(data):
    """remainder_set of y^k scans y's q-grid and lifts; the reference is the
    full scan of all p^2 anchors of y^k's own grid.  y is a random balanced
    kernel tuple of true period q, drawn by its kernel coordinates."""
    q, k = data.draw(st.sampled_from([24, 28])), data.draw(st.sampled_from([2, 3]))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    basis = systematic_basis(q)
    while True:
        bits = reduce(xor, (b for b in basis if rng.random() < 0.5), 0)
        y = ResidueTuple.from_bits(bits, q)
        if 2 * build_period_grid(y).ones == q * q and true_period(y) == q:
            break
    x = y.power(k)
    full = _first_anchors(build_period_grid(x))
    for kind in Orientation:
        first = full[kind]
        expected = tuple((r, *divmod(first[r], q * k)) for r in sorted(first))
        assert remainder_set(x, kind).witnesses == expected


def _grid_true_period(grid):
    """The reference definition of true_period, read off the whole grid: the
    least divisor q of p under which a shift of q rows and a shift of q
    columns both leave the grid unchanged."""
    p, first = grid.p, grid.rows[0]
    divisors = (q for q in range(1, p + 1) if p % q == 0)
    return next(q for q in divisors if grid.rows[q % p] == first == _rotate(first, q, p))


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_true_period_matches_the_grid_definition(data):
    """On random kernel tuples y, drawn by their kernel coordinates, and on
    their powers y^k."""
    p = data.draw(st.sampled_from([6, 12, 15, 20, 24, 28, 36, 72, 216]))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    bits = reduce(xor, (b for b in systematic_basis(p) if rng.random() < 0.5), 0)
    y = ResidueTuple.from_bits(bits, p)
    for x in (y, y.power(data.draw(st.integers(2, 4)))):
        assert true_period(x) == _grid_true_period(build_period_grid(x))


@pytest.mark.parametrize("x", ["110001100011000", "100110101111000"])
def test_true_period_matches_the_grid_definition_at_p15(x):
    """Two tuples whose column shift and row shift repeat at different periods."""
    x = ResidueTuple.from_string(x)
    assert true_period(x) == _grid_true_period(build_period_grid(x)) == 15


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_packed_remainder_scan_matches_per_anchor_scan_on_any_grid(data):
    """Steinhaus anchors on any p-by-p grid, not only an orbit's: odd p (whose
    bands of odd size never split) and grids dense enough that the counts of
    balanced bands approach the top bit of their fields.  Pascal anchors,
    which the scan reads off the Steinhaus hits by duality, on any grid with
    a balanced period, the only kind remainder_set scans."""
    rng = random.Random(data.draw(st.integers(0, 2**32)))

    def witnesses(grid, kind):
        first = _first_anchors(grid)[kind]
        return tuple((r, *divmod(first[r], grid.p)) for r in sorted(first))

    p = data.draw(st.sampled_from([3, 5, 12, 20, 24]))
    density = data.draw(st.floats(0.3, 0.7))
    rows = tuple(sum((rng.random() < density) << j for j in range(p)) for _ in range(p))
    grid = PeriodGrid(p, rows)
    assert witnesses(grid, Orientation.STEINHAUS) == _per_anchor_witnesses(grid, Orientation.STEINHAUS)

    p = data.draw(st.sampled_from([4, 8, 12, 20, 24]))
    ones = rng.sample(range(p * p), p * p // 2)
    rows = tuple(sum(1 << (k % p) for k in ones if k // p == i) for i in range(p))
    grid = PeriodGrid(p, rows)
    assert 2 * grid.ones == p * p
    assert witnesses(grid, Orientation.PASCAL) == _per_anchor_witnesses(grid, Orientation.PASCAL)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_packed_census_triangle_matches_built_triangle(data):
    """Bit t of the census's cell plane i is cell i of triangle t, the one
    the core builders make from the free bits of t: the Steinhaus seed, or
    the Pascal apex, further left-side bits and further right-side bits.
    Triangle t lies in block t >> LANE_BITS, at lane t mod 2^LANE_BITS."""
    kind = data.draw(st.sampled_from(list(Orientation)))
    census = CENSUS_KINDS[kind]
    n = data.draw(st.integers(1, census.limit))
    k = census.free_bits(n)
    t = data.draw(st.integers(0, (1 << k) - 1))
    block, lane = divmod(t, 1 << LANE_BITS)
    if kind is Orientation.STEINHAUS:
        built = build_steinhaus(ResidueTuple.from_bits(t, n))
    else:
        left, right = t & ((1 << n) - 1), t >> n << 1 | t & 1
        built = build_pascal(ResidueTuple.from_bits(left, n), ResidueTuple.from_bits(right, n))
    planes = census.cells(next(islice(_free_planes(k), block, None)))
    assert [plane >> lane & 1 for plane in planes] == list(built.cells())


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_ap_scan_matches_triangles_built_per_size(data):
    """The one-orbit progression scan gives, at every size, the balance and
    spread of the triangle built on that many progression terms."""
    m = data.draw(st.sampled_from(range(3, 16, 2)))
    difference = data.draw(st.integers(1, m - 1).filter(lambda d: gcd(d, m) == 1))
    spec = ApFamilySpec(m, difference, data.draw(st.integers(0, m - 1)))
    n_max = data.draw(st.integers(1, min(3 * spec.period, 80)))
    expected = []
    for n in range(1, n_max + 1):
        result = is_balanced(build_steinhaus(spec.sequence_tuple(n)))
        expected.append((n, result.balanced, result.spread))
    assert [tuple(row) for row in ap_balanced_scan(spec, n_max)] == expected
