import itertools
import random

import pytest

from steinhaus import (
    MismatchedSides,
    MultiplicityTable,
    Orientation,
    ResidueTuple,
    Triangle,
    build_pascal,
    build_steinhaus,
    embed_pascal_in_steinhaus,
    extract_center_pascal,
    is_balanced,
    multiplicity,
)
from steinhaus.core import TRIANGLE_SIZE_LIMIT
from steinhaus.errors import TooLarge
from steinhaus.orbits import PERIOD_LIMIT

R = ResidueTuple.from_string


def test_steinhaus_seven_row_example():
    tri = build_steinhaus(R("0010100"))
    assert tri.rows == (
        (0, 0, 1, 0, 1, 0, 0),
        (0, 1, 1, 1, 1, 0),
        (1, 0, 0, 0, 1),
        (1, 0, 0, 1),
        (1, 0, 1),
        (1, 1),
        (0,),
    )
    assert multiplicity(tri).as_dict() == {0: 14, 1: 14}
    assert is_balanced(tri) == (True, 0)
    assert tri.obeys_local_rule()


def test_steinhaus_single_and_forced_cases():
    assert multiplicity(build_steinhaus(R("0"))).as_dict() == {0: 1, 1: 0}
    tri = build_steinhaus(R("11"))
    assert tri.rows == ((1, 1), (0,))
    assert multiplicity(tri).as_dict() == {0: 1, 1: 2}


def test_empty_seed_gives_empty_triangle():
    tri = build_steinhaus(ResidueTuple(2, ()))
    assert tri.size == 0
    assert tri.cell_count == 0
    assert multiplicity(tri).as_dict() == {0: 0, 1: 0}
    assert is_balanced(tri) == (True, 0)


def test_pascal_seven_row_example():
    tri = build_pascal(R("0000101"), R("0100001"))
    assert tri.rows == (
        (0,),
        (0, 1),
        (0, 1, 0),
        (0, 1, 1, 0),
        (1, 1, 0, 1, 0),
        (0, 0, 1, 1, 1, 0),
        (1, 0, 1, 0, 0, 1, 1),
    )
    assert multiplicity(tri).as_dict() == {0: 14, 1: 14}
    assert tri.obeys_local_rule()


def test_pascal_constant_ones_sides():
    # rows of the even/odd binomial triangle: row t carries 2^popcount(t) ones
    tri = build_pascal(R("1111"), R("1111"))
    assert multiplicity(tri).as_dict() == {0: 1, 1: 9}
    for t, row in enumerate(tri.rows):
        assert sum(row) == 1 << bin(t).count("1")


def test_pascal_mod7_balanced_example():
    tri = build_pascal(R("012153", 7), R("065624", 7))
    assert multiplicity(tri).counts == (3,) * 7
    assert is_balanced(tri) == (True, 0)


def test_pascal_side_validation():
    with pytest.raises(MismatchedSides):
        build_pascal(R("01"), R("011"))
    with pytest.raises(MismatchedSides):
        build_pascal(R("01"), R("10"))
    with pytest.raises(MismatchedSides):
        build_pascal(ResidueTuple(2, ()), ResidueTuple(2, ()))


def test_balance_examples():
    assert is_balanced(build_steinhaus(R("2330445", 7))) == (True, 0)
    assert is_balanced(build_steinhaus(R("00000"))) == (False, 15)


def test_all_zero_seed():
    assert multiplicity(build_steinhaus(R("00000"))).as_dict() == {0: 15, 1: 0}


def test_multiplicity_table_arithmetic():
    a = MultiplicityTable(2, (3, 4))
    b = MultiplicityTable(2, (1, 1))
    assert (a + b).counts == (4, 5)
    assert (a - b).counts == (2, 3)
    assert (2 * b).counts == (2, 2)
    assert a.spread == 1 and a.balanced
    with pytest.raises(ValueError):
        MultiplicityTable(2, (1, -1))


def test_residue_tuple_validation_and_strings():
    with pytest.raises(ValueError):
        ResidueTuple(2, (0, 2))
    with pytest.raises(ValueError):
        ResidueTuple(1, (0,))
    x = R("0,10,3", 11)
    assert x.entries == (0, 10, 3)
    assert str(x) == "0,10,3"
    assert str(R("0101")) == "0101"
    assert R("0101").bits == 0b1010
    assert ResidueTuple.from_bits(0b1010, 4) == R("0101")
    assert R("01").power(3) == R("010101")


def test_from_string_hands_the_fields_to_the_constructor():
    """The constructor converts and validates the digits or comma fields."""
    x = R(" 1, 2", 3)
    assert x.entries == (1, 2) and all(type(e) is int for e in x.entries)
    assert R(" 0110 ").entries == (0, 1, 1, 0)
    assert R("").entries == ()
    with pytest.raises(ValueError, match=r"^entry 2 outside 0\.\.1$"):
        R("0120")
    with pytest.raises(ValueError, match="invalid literal for int"):
        R("01a0")


@pytest.mark.parametrize("length", [0, 1, 24, 2048])
def test_from_bits_and_bits_round_trip(length):
    rng = random.Random(length)
    for _ in range(5):
        bits = rng.getrandbits(length)
        x = ResidueTuple.from_bits(bits, length)
        assert len(x) == length and x.modulus == 2
        assert x.entries == tuple((bits >> j) & 1 for j in range(length))
        assert x.bits == bits
        assert str(x) == "".join(str((bits >> j) & 1) for j in range(length))
        # bits above the length are ignored
        assert ResidueTuple.from_bits(bits | rng.getrandbits(64) << length, length) == x


def test_triangle_row_shape_validation():
    with pytest.raises(ValueError):
        Triangle(Orientation.STEINHAUS, 2, ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        Triangle(Orientation.PASCAL, 2, ((0, 1),))


def test_embed_pascal_round_trip_example():
    tri = build_pascal(R("0000101"), R("0100001"))
    host = embed_pascal_in_steinhaus(tri)
    assert host.size == 13
    assert host.obeys_local_rule()
    assert extract_center_pascal(host) == tri


def test_embed_single_cell():
    tri = build_pascal(R("0"), R("0"))
    host = embed_pascal_in_steinhaus(tri)
    assert host.size == 1
    assert host.rows == ((0,),)


def test_embed_size_two_against_brute_force():
    # search all size-3 apex-down triangles for the one whose center matches
    target = build_pascal(R("11"), R("10"))
    matches = []
    for seed in itertools.product((0, 1), repeat=3):
        host = build_steinhaus(ResidueTuple(2, seed))
        if extract_center_pascal(host) == target:
            matches.append(host)
    assert len(matches) == 1
    assert embed_pascal_in_steinhaus(target) == matches[0]
    assert matches[0] == build_steinhaus(R("011"))


def test_embed_mod_m():
    tri = build_pascal(R("012153", 7), R("065624", 7))
    host = embed_pascal_in_steinhaus(tri)
    assert host.size == 11
    assert host.obeys_local_rule()
    assert extract_center_pascal(host) == tri


def test_triangle_size_bound():
    # every period's generator fits one triangle
    assert TRIANGLE_SIZE_LIMIT >= PERIOD_LIMIT
    side = R("1" * (TRIANGLE_SIZE_LIMIT + 1))
    with pytest.raises(TooLarge):
        build_steinhaus(side)
    with pytest.raises(TooLarge):
        build_pascal(side, side)
