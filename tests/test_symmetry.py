import random
import time
import tracemalloc

import pytest

from expected_values import CLASS_COUNTS

from steinhaus import census, orbits, symmetry
from steinhaus import (
    GroupElement,
    build_steinhaus,
    NotPeriodic,
    OrbitClass,
    ResidueTuple,
    TooLarge,
    apply,
    balanced_period_classes,
    build_period_grid,
    burnside_class_count,
    compose,
    enumerate_periodic_tuples,
    group_orbit,
    inverse,
    multiplicity,
    partition_classes,
    reflect_i,
    rotate_r,
    translate,
)
R = ResidueTuple.from_string


def test_translate_examples():
    assert translate(R("010100"), 2, 3) == R("101000")
    assert translate(R("010100"), 0, 0) == R("010100")
    assert translate(R("000101"), 0, 5) == R("001010")
    with pytest.raises(NotPeriodic):
        translate(R("0010000"), 1, 0)


def test_translation_is_additive():
    x = R("010100")
    for u, v, u2, v2 in ((1, 2, 3, 4), (5, 0, 2, 5), (4, 4, 4, 4)):
        assert translate(translate(x, u, v), u2, v2) == translate(x, u + u2, v + v2)


def test_rotation_and_reflection_examples():
    assert rotate_r(R("0100")) == R("0011")
    assert reflect_i(R("0100")) == R("0010")
    assert rotate_r(R("000000")) == R("000000")
    assert reflect_i(R("011011")) == R("110110")


def test_dihedral_relations_on_period_six():
    for x in enumerate_periodic_tuples(6):
        assert rotate_r(rotate_r(rotate_r(x))) == x
        assert reflect_i(reflect_i(x)) == x
        ir = lambda t: rotate_r(reflect_i(t))
        assert ir(ir(x)) == x


def test_rotation_reflection_preserve_periodic_set():
    po = set(enumerate_periodic_tuples(6))
    assert {rotate_r(x) for x in po} == po
    assert {reflect_i(x) for x in po} == po


def test_compose_normal_forms():
    p = 6
    r = GroupElement.rotation(p)
    for u, v in ((2, 3), (0, 5), (4, 1)):
        t = GroupElement.translation(p, u, v)
        assert compose(r, t) == GroupElement(p, (v - u) % p, (-u) % p, 1, 0)
        i = GroupElement.reflection(p)
        assert compose(i, t) == GroupElement(p, u, (u - v) % p, 0, 1)
    g = GroupElement(p, 1, 2, 2, 1)
    assert compose(g, GroupElement.identity(p)) == g
    assert compose(GroupElement.identity(p), g) == g


def _closure(p):
    gens = [
        GroupElement.rotation(p),
        GroupElement.reflection(p),
        GroupElement.translation(p, 1, 0),
        GroupElement.translation(p, 0, 1),
    ]
    seen = {GroupElement.identity(p)}
    frontier = list(seen)
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                b = compose(a, g)
                if b not in seen:
                    seen.add(b)
                    new.append(b)
        frontier = new
    return seen


@pytest.mark.parametrize("p", [1, 2, 6])
def test_group_order_is_six_p_squared(p):
    assert len(_closure(p)) == 6 * p * p


def test_inverses():
    p = 6
    e = GroupElement.identity(p)
    for g in _closure(p):
        assert compose(g, inverse(g)) == e
        assert compose(inverse(g), g) == e


def test_apply_examples():
    x = R("010100")
    assert apply(GroupElement.translation(6, 2, 3), x) == R("101000")
    assert apply(GroupElement.identity(6), x) == x
    assert apply(GroupElement.rotation(6), x) == rotate_r(x)
    assert apply(GroupElement.reflection(6), x) == reflect_i(x)


def test_action_axiom_random_triples_p12():
    rng = random.Random(20240)
    po = enumerate_periodic_tuples(12)
    p = 12
    for _ in range(1000):
        g = GroupElement(p, rng.randrange(p), rng.randrange(p), rng.randrange(3), rng.randrange(2))
        h = GroupElement(p, rng.randrange(p), rng.randrange(p), rng.randrange(3), rng.randrange(2))
        x = rng.choice(po)
        assert apply(h, apply(g, x)) == apply(compose(g, h), x)


def test_apply_matches_sequential_generators():
    # normal form applies translation, then rotations, then the reflection
    x = R("010100")
    g = GroupElement(6, 2, 3, 2, 1)
    expected = reflect_i(rotate_r(rotate_r(translate(x, 2, 3))))
    assert apply(g, x) == expected


def test_group_orbit_examples():
    orbit = group_orbit(R("010100"))
    assert str(orbit.representative) == "000101"
    assert orbit.size == 12
    singleton = group_orbit(R("000000"))
    assert singleton.size == 1 and singleton.members == (R("000000"),)
    three = group_orbit(R("011011"))
    assert {str(t) for t in three.members} == {"011011", "101101", "110110"}


def test_orbit_sizes_divide_group_order():
    """The class sizes divide 6p^2 and sum to the 2^d periodic tuples."""
    for p in (12, 24):
        sizes = [cls.size for cls in partition_classes(p)]
        assert all(6 * p * p % size == 0 for size in sizes)
        assert sum(sizes) == 1 << orbits.kernel_generator(p)[0]


def test_partition_matches_class_counts():
    got = [len(partition_classes(p)) for p in range(1, 16)]
    assert got == CLASS_COUNTS[:15]


def test_partition_covers_and_is_disjoint():
    for p in (6, 12):
        classes = partition_classes(p)
        seen = [t for cls in classes for t in cls.members]
        assert len(seen) == len(set(seen)) == len(enumerate_periodic_tuples(p))
        for cls in classes:
            assert cls.representative == min(cls.members, key=lambda t: t.entries)
            assert cls.size == len(cls.members)
        reps = [cls.representative.entries for cls in classes]
        assert reps == sorted(reps)


def test_partition_agrees_with_full_orbits():
    # every class at p = 6 and 12; the 17 balanced-period classes at p = 24
    for classes in (partition_classes(6), partition_classes(12), balanced_period_classes(24)):
        for cls in classes:
            orbit = group_orbit(cls.representative)
            assert (orbit.representative, orbit.size) == (cls.representative, cls.size)


@pytest.mark.parametrize("p", [12, 24])
def test_partition_lists_no_span(p, monkeypatch):
    """The partition walks kernel coordinates and keeps each class's
    representative and size; it never lists the 2^d periodic tuples."""

    def refuse(p):
        raise AssertionError(f"the span of period {p} was listed")

    monkeypatch.setattr(orbits, "periodic_tuple_bits", refuse)
    monkeypatch.setattr(symmetry, "periodic_tuple_bits", refuse)
    partition_classes.cache_clear()
    try:
        classes = partition_classes(p)
        last = classes[-1]
        members = last.members
    finally:
        partition_classes.cache_clear()
    assert len(classes) == CLASS_COUNTS[p - 1]
    assert len(members) == last.size


class _BreadthFirst(symmetry._KernelCoordinates):
    """The breadth-first walk over the four generator edges of every
    member: the reference the coset listing of orbit is tested against.
    ``step`` packs the four generator maps into one: field g (d bits each)
    of step(c) is the image of c under generator g, and the bits above 4d
    are the lex key of c, its tuple's bits reversed."""

    def __init__(self, p):
        super().__init__(p)
        self.step = orbits._Gf2Map([
            sum(column << (g * self.d) for g, column in enumerate(columns))
            for columns in zip(*self.matrices, (orbits._reverse_bits(b, p) for b in self.basis))
        ])

    def orbit(self, start, visited):
        d, mask, key_shift = self.d, (1 << self.d) - 1, 4 * self.d
        step = self.step
        low, high, half, low_mask = step.low, step.high, step.half, step.low_mask
        best = 1 << self.p
        visited[start] = 1
        queue = [start]
        for c in queue:
            packed = low[c & low_mask] ^ high[c >> half]
            if packed >> key_shift < best:
                best = packed >> key_shift
            for x in (packed & mask, (packed >> d) & mask, (packed >> 2 * d) & mask,
                      (packed >> 3 * d) & mask):
                if not visited[x]:
                    visited[x] = 1
                    queue.append(x)
        return best, len(queue)


def _reference_walk(p, balanced=False):
    """The classes of p (balanced ones only if asked) by the breadth-first
    walk at the kernel period."""
    space = _BreadthFirst(symmetry._kernel_space(p).p)
    visited = symmetry._balance_plane(space) if balanced else bytearray(1 << space.d)
    return symmetry._walk(space, p, visited)


@pytest.mark.parametrize("p", [p for p in range(1, 81) if orbits.kernel_generator(p)[0] <= 18])
def test_partition_matches_the_breadth_first_walk(p):
    """Every period up to 80 with d <= 18 (kernel periods up to 73)."""
    assert partition_classes(p) == _reference_walk(p)


@pytest.mark.parametrize("p", [24, 72])
def test_balanced_walk_matches_the_breadth_first_walk(p):
    assert symmetry.balanced_classes(p) == _reference_walk(p, balanced=True)


def test_kernel_coordinates_hold_one_map_per_generator(monkeypatch):
    """Four generator maps and no packed step; the Burnside count reads
    those maps and builds only one more per dihedral element: 4 + 6."""
    built = []

    class Counting(orbits._Gf2Map):
        def __init__(self, columns):
            built.append(len(columns))
            super().__init__(columns)

    monkeypatch.setattr(symmetry, "_Gf2Map", Counting)
    space = symmetry._KernelCoordinates(24)
    assert not hasattr(space, "step") and len(space.maps) == 4 and built == [16] * 4
    built.clear()
    assert burnside_class_count(12) == CLASS_COUNTS[11]
    assert built == [orbits.kernel_generator(12)[0]] * 10


def test_orbit_walk_refuses_past_its_work_bound():
    """group_orbit and OrbitClass.members refuse once the members walked
    times p^2 pass ORBIT_WORK_LIMIT: at p = 2044 after about 64 members.
    The 14 400-member classes of p = 120 stay within it."""
    assert 14_400 * 120 ** 2 <= symmetry.ORBIT_WORK_LIMIT
    x = ResidueTuple.from_bits(orbits.systematic_basis(2044)[0], 2044)
    message = f"orbit of a length-2044 tuple exceeds {symmetry.ORBIT_WORK_LIMIT} member cells"
    with pytest.raises(TooLarge, match=message):
        group_orbit(x)
    with pytest.raises(TooLarge, match=message):
        OrbitClass(x, 1).members


def test_kernel_dimension_refusal_builds_no_generator_images(monkeypatch):
    """partition_classes, the balanced walk and the Burnside count refuse
    on d alone, before the d kernel basis vectors, their generator matrices
    or any block of lane planes are built."""

    def refuse(*args):
        raise AssertionError(f"kernel basis, generator images or lane planes were built: {args}")

    monkeypatch.setattr(symmetry, "_generator_images", refuse)
    monkeypatch.setattr(symmetry, "systematic_basis", refuse)
    monkeypatch.setattr(census, "_free_planes", refuse)
    partition_classes.cache_clear()
    symmetry.balanced_classes.cache_clear()
    try:
        with pytest.raises(TooLarge, match="kernel dimension 2040 exceeds 20"):
            partition_classes(2044)
        with pytest.raises(TooLarge, match="kernel dimension 2040 exceeds 20"):
            balanced_period_classes(2044)
        with pytest.raises(TooLarge, match="kernel dimension 2040 exceeds 20"):
            burnside_class_count(2044)
    finally:
        partition_classes.cache_clear()
        symmetry.balanced_classes.cache_clear()


def _filtered_partition(p):
    """The balance filter over the whole partition: every class whose
    p-grid holds 2 ones = p^2."""
    return tuple(cls for cls in partition_classes(p)
                 if 2 * build_period_grid(cls.representative).ones == p * p)


@pytest.mark.parametrize("p", [*range(4, 25, 4), 36, 72])
def test_balanced_walk_matches_filtered_partition(p):
    assert balanced_period_classes(p) == _filtered_partition(p)


@pytest.mark.parametrize("p", [4, 8, 2048])
def test_balanced_walk_is_empty_at_q0_one(p):
    """At these periods the only periodic tuple is zero (d = 0, q0 = 1): its
    one cell is 0 and 2 * 0 != 1, so the zero tuple is not balanced and the
    plane's one byte marks it visited."""
    assert orbits.kernel_generator(p)[0] == 0
    assert symmetry._balance_plane(symmetry._kernel_space(p)) == b"\1"
    assert balanced_period_classes(p) == ()


def test_balance_plane_counts_nothing_at_an_odd_kernel_period(monkeypatch):
    """p = 105 is its own kernel period (d = 20): q0^2 is odd, so no period
    is balanced, and the plane marks every coordinate without a count."""
    def refuse(cells):
        raise AssertionError("a balance plane was counted at odd q0")

    space = symmetry._kernel_space(105)
    assert (space.p, space.d) == (105, 20)
    monkeypatch.setattr(census, "bit_sliced_sum", refuse)
    symmetry.balanced_classes.cache_clear()
    try:
        assert symmetry.balanced_classes(105) == ()
        assert symmetry._balance_plane(space) == b"\1" * (1 << 20)
    finally:
        symmetry.balanced_classes.cache_clear()


def test_balanced_classes_of_p24_match_the_golden(golden_dir):
    rows = (golden_dir / "balanced_representatives_p24.csv").read_text().splitlines()
    assert rows[1:] == [f"{k},{c.representative}" for k, c in enumerate(symmetry.balanced_classes(24), 1)]
    assert len(rows) == 18


@pytest.mark.parametrize("p, samples", [(12, 256), (24, 300), (72, 300)])
def test_balance_plane_bits_match_direct_grids(p, samples):
    """Byte c of the plane is 0 exactly when 2 ones = p^2 on the p-grid of
    the tuple with kernel coordinates c, built from systematic_basis(p):
    every coordinate at p = 12 (d = 8), a seeded sample at p = 24 and 72."""
    d = orbits.kernel_generator(p)[0]
    plane = symmetry._balance_plane(symmetry._kernel_space(p))
    assert len(plane) == 1 << d and set(plane) <= {0, 1}
    basis = orbits.systematic_basis(p)
    seen = set()
    for c in random.Random(p).sample(range(1 << d), samples):
        bits = 0
        for k, vector in enumerate(basis):
            if c >> k & 1:
                bits ^= vector
        assert bits >> (p - d) == c
        balanced = 2 * build_period_grid(ResidueTuple.from_bits(bits, p)).ones == p * p
        assert (plane[c] == 0) == balanced, c
        seen.add(balanced)
    assert seen == {False, True}


@pytest.mark.parametrize("p, lane_bits", [(12, 2), (24, 12)])
def test_blocked_balance_plane_matches_one_block(p, lane_bits, monkeypatch):
    """Split into 2^(d - lane_bits) census blocks (64 at p = 12, d = 8; 16 at
    p = 24, d = 16), the plane and the balanced walk equal their one-block
    results."""
    space = symmetry._kernel_space(p)
    assert space.d > lane_bits
    symmetry.balanced_classes.cache_clear()
    try:
        whole, classes = symmetry._balance_plane(space), symmetry.balanced_classes(p)
        monkeypatch.setattr(census, "LANE_BITS", lane_bits)
        symmetry.balanced_classes.cache_clear()
        assert symmetry._balance_plane(space) == whole
        assert symmetry.balanced_classes(p) == classes
    finally:
        symmetry.balanced_classes.cache_clear()


def test_balance_plane_holds_one_block_of_lanes(monkeypatch):
    """With 2^10-lane blocks, the plane of p = 24 (d = 16) peaks under its
    2^16-byte visited array plus 15 KB: no int spans all 2^16 lanes, the
    array is allocated once, not grown, and one row of 24 cell planes of
    2^10 lanes is alive at a time."""
    space = symmetry._kernel_space(24)
    monkeypatch.setattr(census, "LANE_BITS", 10)
    tracemalloc.start()
    try:
        plane = symmetry._balance_plane(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(plane) == 1 << 16
    assert peak < (1 << 16) + (15 << 10)


def test_burnside_count_matches_class_counts():
    assert [burnside_class_count(p) for p in range(1, 25)] == CLASS_COUNTS[:24]


@pytest.mark.parametrize("p", [36, 72, 216])
def test_partition_at_the_kernel_period_matches_a_direct_walk(p):
    """The classes walked at q0 (12 for p = 36, 24 for 72 and 216) and
    repeated up to p equal those of a walk of the p-bit coordinates."""
    d = orbits.kernel_generator(p)[0]
    direct = symmetry._walk(symmetry._KernelCoordinates(p), p, bytearray(1 << d))
    assert partition_classes(p) == direct


@pytest.mark.parametrize("p", [36, 72, symmetry.BURNSIDE_PERIOD_LIMIT])
def test_burnside_count_at_p_matches_the_kernel_period_partition(p):
    assert burnside_class_count(p) == len(partition_classes(p))


@pytest.mark.parametrize("p", [216, 2048])
def test_burnside_count_refuses_periods_past_its_bound(p, monkeypatch):
    """p = 216 (d = 16) and 2048 (d = 0) are refused on p alone, before the
    coordinates or any GF(2) map is built."""

    def refuse(*args):
        raise AssertionError(f"coordinates or a GF(2) map were built: {args}")

    monkeypatch.setattr(symmetry, "_KernelCoordinates", refuse)
    monkeypatch.setattr(symmetry, "_Gf2Map", refuse)
    start = time.perf_counter()
    with pytest.raises(TooLarge, match=f"Burnside count at period {p} exceeds 100"):
        burnside_class_count(p)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("p", [64, 100])
def test_burnside_count_is_one_at_kernel_dimension_zero(p, monkeypatch):
    """The zero tuple is the only class, counted without coordinates."""

    def refuse(*args):
        raise AssertionError(f"coordinates were built: {args}")

    monkeypatch.setattr(symmetry, "_KernelCoordinates", refuse)
    assert orbits.kernel_generator(p)[0] == 0
    assert burnside_class_count(p) == 1


def test_walks_build_coordinates_only_at_the_kernel_period(monkeypatch):
    """partition_classes(72) and balanced_classes(72) build the coordinates
    of q0 = 24 and never those of 72."""
    built = []

    class Counting(symmetry._KernelCoordinates):
        def __init__(self, p):
            built.append(p)
            super().__init__(p)

    monkeypatch.setattr(symmetry, "_KernelCoordinates", Counting)
    partition_classes.cache_clear()
    symmetry.balanced_classes.cache_clear()
    try:
        partition_classes(72)
        symmetry.balanced_classes(72)
    finally:
        partition_classes.cache_clear()
        symmetry.balanced_classes.cache_clear()
    assert built == [24, 24]


def test_multiplicity_invariance_under_action():
    x = R("010100")
    grid_mult = build_period_grid(x).multiplicity()
    for g in _closure(6):
        image = apply(g, x)
        assert build_period_grid(image).multiplicity() == grid_mult


def test_triangle_multiplicity_invariant_under_rotation_reflection():
    # the finite-triangle action permutes cells, so counts are preserved
    for text in ("0100", "110101", "0010100"):
        x = R(text)
        base = multiplicity(build_steinhaus(x))
        assert multiplicity(build_steinhaus(rotate_r(x))) == base
        assert multiplicity(build_steinhaus(reflect_i(x))) == base
