import itertools
import random
from itertools import islice
from functools import lru_cache, reduce
from math import gcd
from operator import xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expected_values import BALANCED_REPRESENTATIVES_24, CLASS9_REP
from test_orbits import window_multiplicity

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
from steinhaus.census import _pascal_basis, _steinhaus_basis, packed_steinhaus
from steinhaus.core import TRIANGLE_SIZE_LIMIT
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
)
from steinhaus.search import (
    _accepts,
    _first_anchors,
    _ones_prefix,
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


@pytest.mark.parametrize("modulus", [2, 3, 5], ids=["grid24", "interlaced3", "interlaced5"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_anchor_fields_triangle_counts_match_extraction(modulus, data):
    rows = _counted_orbit(modulus)
    q = len(rows)
    kind = data.draw(st.sampled_from(list(Orientation)))
    i0, j0 = data.draw(st.integers(-q, 2 * q)), data.draw(st.integers(-q, 2 * q))
    n_max = data.draw(st.integers(1, 2 * q + 5))  # beyond q the edges wrap
    n = data.draw(st.integers(1, n_max))
    residue = data.draw(st.integers(0, modulus - 1))
    fields = AnchorFields(q, n_max * (n_max + 1) // 2)
    anchor = (i0 % q) * q + j0 % q
    sizes = list(itertools.islice(fields.triangle_counts(_one_hot(rows, residue), kind), n_max))
    totals = [0] + [_field(fields, total, anchor) for total, _ in sizes]
    edges = [_field(fields, edge, anchor) for _, edge in sizes]
    assert edges == [totals[k + 1] - totals[k] for k in range(n_max)]
    for size in (n, n_max):
        assert totals[size] == _direct_count(rows, modulus, kind, i0, j0, size, residue)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_anchor_fields_comparisons_match_field_loop(data):
    """The SWAR comparisons against one Python comparison per field, on
    values that include both ends of a field, 0 and 2^(w-1) - 1."""
    q = data.draw(st.integers(1, 6))
    fields = AnchorFields(q, data.draw(st.integers(1, 5000)))
    top = (1 << (fields.w - 1)) - 1
    value = st.one_of(st.just(0), st.just(top), st.integers(0, top))
    a, b = (data.draw(st.lists(value, min_size=q * q, max_size=q * q)) for _ in range(2))
    target = data.draw(value)

    def pack(values):
        return sum(v << (k * fields.w) for k, v in enumerate(values))

    def guards(flags):
        return pack([int(f) << (fields.w - 1) for f in flags])

    assert fields.equal(pack(a), target) == guards(x == target for x in a)
    assert fields.at_most(pack(a), target) == guards(x <= target for x in a)
    assert fields.maximum(pack(a), pack(b)) == pack(map(max, a, b))
    assert fields.minimum(pack(a), pack(b)) == pack(map(min, a, b))
    hits = fields.at_most(pack(a), target)
    if hits:
        assert fields.first(hits) == min(k for k, x in enumerate(a) if x <= target)
        # every field (i0, j0) moved to (i0+di, j0+dj) mod q, field by field
        di, dj = data.draw(st.integers(-2 * q, 2 * q)), data.draw(st.integers(-2 * q, 2 * q))
        moved = [((k // q + di) % q) * q + (k % q + dj) % q for k, x in enumerate(a) if x <= target]
        assert fields.first(hits, di, dj) == min(moved)


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
    assert triangle_ones(grid, i0, j0, n, kind) == expected


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
    """Sizes past TRIANGLE_SIZE_LIMIT, where the line masks outgrow their
    table, against the per-line prefix sums of the fundamental domain."""
    n = TRIANGLE_SIZE_LIMIT + 30
    prefixes = _line_prefixes(rep9_grid.cells, kind, 1)
    assert _ones_prefix(rep9_grid, 7, -5, n, kind) == _profile(prefixes, kind, 7, -5, n)


def _per_anchor_witnesses(grid, kind):
    """The scan the packed remainder scan replaced: one prefix-sum profile
    per anchor in scan order (i0, then j0), tested by _accepts, keeping the
    first witness per remainder."""
    p = grid.p
    prefixes = _line_prefixes(grid.cells, kind, 1)
    found = {}
    for i0 in range(p):
        for j0 in range(p):
            ones = _profile(prefixes, kind, i0, j0, 2 * p - 1)
            for r in range(p):
                if r not in found and _accepts(ones[r], ones[p + r] - ones[r], p, r):
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
        grid = build_period_grid(ResidueTuple.from_bits(bits, q))
        if 2 * grid.ones == q * q and grid.true_period == q:
            break
    x = ResidueTuple.from_bits(bits, q).power(k)
    full = _first_anchors(build_period_grid(x))
    for kind in Orientation:
        first = full[kind]
        expected = tuple((r, *divmod(first[r], q * k)) for r in sorted(first))
        assert remainder_set(x, kind).witnesses == expected


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
    """The census's packed Steinhaus triangle of a random seed has bit i equal
    to cell i of the directly built triangle; a packed triangle of either kind
    is the XOR of the basis triangles of its free bits, as the census spans
    them."""
    n = data.draw(st.integers(1, 16))
    if data.draw(st.booleans()):
        seed = data.draw(st.integers(0, (1 << n) - 1))
        built = build_steinhaus(ResidueTuple.from_bits(seed, n))
        basis, free_bits = _steinhaus_basis(n), seed
    else:
        left = data.draw(st.integers(0, (1 << n) - 1))
        right = data.draw(st.integers(0, (1 << n) - 1)) & ~1 | left & 1
        built = build_pascal(ResidueTuple.from_bits(left, n), ResidueTuple.from_bits(right, n))
        # the free bits: the seed of the Steinhaus triangle it is the center of
        seed = embed_pascal_in_steinhaus(built).rows[0]
        basis, free_bits = _pascal_basis(n), sum(e << j for j, e in enumerate(seed))
    packed = sum(e << i for i, e in enumerate(built.cells()))
    if built.orientation is Orientation.STEINHAUS:
        assert packed_steinhaus(seed, n) == packed
    assert reduce(xor, (v for k, v in enumerate(basis) if free_bits >> k & 1), 0) == packed


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
