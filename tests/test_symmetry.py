import random

import pytest

from expected_values import CLASS_COUNTS

from steinhaus import orbits, symmetry
from steinhaus import (
    GroupElement,
    build_steinhaus,
    NotPeriodic,
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
    for cls in partition_classes(12):
        assert (6 * 12 * 12) % cls.size == 0


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


def test_kernel_dimension_refusal_builds_no_generator_images(monkeypatch):
    """partition_classes refuses on d alone: the d kernel basis vectors and
    their generator matrices are built only by what reads them."""

    def refuse(*args):
        raise AssertionError(f"kernel basis or generator images were built: {args}")

    monkeypatch.setattr(symmetry, "_generator_images", refuse)
    monkeypatch.setattr(symmetry, "systematic_basis", refuse)
    partition_classes.cache_clear()
    try:
        with pytest.raises(TooLarge, match="kernel dimension 2040 exceeds 20"):
            partition_classes(2044)
    finally:
        partition_classes.cache_clear()


def test_burnside_count_matches_class_counts():
    assert [burnside_class_count(p) for p in range(1, 25)] == CLASS_COUNTS[:24]


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
