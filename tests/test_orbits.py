import random

import pytest

from expected_values import BALANCED_REPRESENTATIVES_24, KERNEL_DIMS, ORBIT_010100, PO6_TUPLES, CLASS9_REP

from steinhaus import (
    EmptyTuple,
    MultiplicityTable,
    NotPeriodic,
    ResidueTuple,
    TooLarge,
    build_period_grid,
    derive_tuple,
    detect_preperiod,
    enumerate_periodic_tuples,
    gf2_kernel_basis,
    is_periodic_tuple,
    orbit_cell,
    wendt_matrix,
)
from steinhaus.core import TRIANGLE_SIZE_LIMIT
from steinhaus.orbits import (
    PERIOD_LIMIT,
    PeriodGrid,
    binomial_row_mod,
    kernel_generator,
    periodic_tuple_bits,
    systematic_basis,
)

R = ResidueTuple.from_string


def test_derive_examples():
    assert derive_tuple(R("010100")) == R("011110")
    assert derive_tuple(R("000000")) == R("000000")
    assert derive_tuple(R("1")) == R("0")
    with pytest.raises(EmptyTuple):
        derive_tuple(ResidueTuple(2, ()))


def test_orbit_cell_examples():
    x = R("010100")
    assert orbit_cell(x, 0, 7) == 1
    assert orbit_cell(x, 2, 0) == 0
    assert orbit_cell(x, 6, 0) == orbit_cell(x, 0, 0) == 0


def test_orbit_cell_matches_iteration():
    for text in ("010100", "0010100", "1101"):
        x = R(text)
        p = len(x)
        row = x
        for i in range(2 * p + 1):
            for j in range(p):
                assert orbit_cell(x, i, j) == row[j], (text, i, j)
            row = derive_tuple(row)


def test_orbit_cell_mod_m_matches_iteration():
    x = ResidueTuple(5, (0, 1, 2, 3, 4, 2))
    row = x
    for i in range(10):
        for j in range(6):
            assert orbit_cell(x, i, j) == row[j]
        row = derive_tuple(row)


def test_binomial_row_mod():
    assert binomial_row_mod(4, 10) == (1, 4, 6, 4, 1)
    assert binomial_row_mod(5, 2) == (1, 1, 0, 0, 1, 1)
    assert binomial_row_mod(0, 7) == (1,)


def test_wendt_matrix_layouts():
    assert wendt_matrix(1).rows == (1,)
    m3 = wendt_matrix(3)
    assert all(row == 0b111 for row in m3.rows)
    m4 = wendt_matrix(4)
    assert [m4.entry(i, i) for i in range(4)] == [1, 1, 1, 1]
    assert sum(row.bit_count() for row in m4.rows) == 4  # identity: 4, 6, 4 are even


def test_kernel_dimensions_table():
    got = [len(gf2_kernel_basis(wendt_matrix(p))) for p in range(1, 25)]
    assert got == KERNEL_DIMS
    assert [kernel_generator(p)[0] for p in range(1, 25)] == KERNEL_DIMS


def test_systematic_basis_is_the_row_reduced_basis():
    # vector for vector, so a tuple's kernel coordinates are its top d bits
    # under either basis
    for p in range(1, 301):
        basis = systematic_basis(p)
        assert basis == gf2_kernel_basis(wendt_matrix(p)), p
        d = len(basis)
        assert [v >> (p - d) for v in basis] == [1 << k for k in range(d)]


def test_kernel_dimension_at_large_periods():
    dims = {28: 24, 72: 16, 216: 16, 264: 16, 1944: 16, 1992: 16, 2028: 8, 2044: 2040, 2048: 0}
    assert {p: kernel_generator(p)[0] for p in dims} == dims
    # the row reduction is quick at 2044, where all but 4 columns are free
    assert systematic_basis(2044) == gf2_kernel_basis(wendt_matrix(2044))


def test_kernel_vectors_annihilated():
    for p in (3, 6, 7, 12, 14):
        matrix = wendt_matrix(p)
        basis = gf2_kernel_basis(matrix)
        for v in basis:
            assert all((row & v).bit_count() % 2 == 0 for row in matrix.rows)
        assert len(set(basis)) == len(basis)


def test_kernel_of_all_ones_matrix_is_even_weight():
    assert sorted(periodic_tuple_bits(3)) == [0b000, 0b011, 0b101, 0b110]


def test_enumerate_periodic_tuples():
    assert {str(t) for t in enumerate_periodic_tuples(6)} == PO6_TUPLES
    assert [str(t) for t in enumerate_periodic_tuples(2)] == ["00"]
    assert len(enumerate_periodic_tuples(12)) == 256


def test_enumeration_members_are_periodic():
    for x in enumerate_periodic_tuples(6):
        assert is_periodic_tuple(x)
        for j in range(6):
            assert orbit_cell(x, 6, j) == x[j]


def test_period_grid_example():
    grid = build_period_grid(R("010100"))
    rows = ["".join(str(b) for b in grid.row_entries(i)) for i in range(6)]
    assert rows == ORBIT_010100
    assert grid.multiplicity().as_dict() == {0: 18, 1: 18}
    assert grid.cell(-1, -1) == grid.cell(5, 5)


def test_period_grid_rejects_non_periodic():
    # odd-weight tuples are never in the kernel of an all-ones circulant
    with pytest.raises(NotPeriodic):
        build_period_grid(R("0010000"))
    with pytest.raises(NotPeriodic):
        build_period_grid(R("1"))


def test_true_period_of_the_p24_classes():
    """Classes 16 and 17 repeat every 12 and every 6 entries; the others only every 24."""
    periods = [build_period_grid(R(rep)).true_period for rep in BALANCED_REPRESENTATIVES_24]
    assert periods == [24] * 15 + [12, 6]
    # repeating a tuple does not change its true period; a zero grid has true period 1
    assert build_period_grid(R(BALANCED_REPRESENTATIVES_24[16] * 3)).true_period == 6
    assert build_period_grid(R("0" * 12)).true_period == 1
    # both shifts count: this tuple repeats every 5 entries but its rows only
    # every 15, and the next one has row 5 equal to row 0 but repeats every 15
    assert build_period_grid(R("110001100011000")).true_period == 15
    assert build_period_grid(R("100110101111000")).true_period == 15


def test_zero_grid():
    grid = build_period_grid(R("000000"))
    assert all(grid.cell(i, j) == 0 for i in range(6) for j in range(6))


def test_class9_grid_multiplicity():
    grid = build_period_grid(R(CLASS9_REP))
    assert grid.multiplicity().as_dict() == {0: 288, 1: 288}


def window_multiplicity(grid, i0, j0):
    """Multiplicity of the p-by-p window of the orbit anchored at (i0, j0)."""
    ones = sum(grid.cell(i0 + i, j0 + j) for i in range(grid.p) for j in range(grid.p))
    return MultiplicityTable(2, (grid.p * grid.p - ones, ones))


def test_window_independence():
    grid = build_period_grid(R(CLASS9_REP))
    base = grid.multiplicity()
    for i0, j0 in ((1, 2), (17, 5), (23, 23), (30, 49)):
        assert window_multiplicity(grid, i0, j0) == base


def test_detect_preperiod():
    assert detect_preperiod(R("000000")) == (0, 1)
    report = detect_preperiod(R("0010100"))
    row = R("0010100")
    for _ in range(report.preperiod):
        row = derive_tuple(row)
    advanced = row
    for _ in range(report.period):
        advanced = derive_tuple(advanced)
    assert advanced == row
    assert report.period >= 1


def test_periodic_tuples_have_zero_preperiod_and_dividing_period():
    for x in enumerate_periodic_tuples(6):
        report = detect_preperiod(x)
        assert report.preperiod == 0
        assert 6 % report.period == 0


def test_grid_json_shape():
    grid = build_period_grid(R("010100"))
    payload = grid.to_json_dict()
    assert payload["p"] == 6
    assert payload["cells"][0] == [0, 1, 0, 1, 0, 0]


def test_period_bound():
    assert len(wendt_matrix(PERIOD_LIMIT).rows) == PERIOD_LIMIT
    with pytest.raises(TooLarge):
        wendt_matrix(PERIOD_LIMIT + 1)
    with pytest.raises(TooLarge):
        kernel_generator(PERIOD_LIMIT + 1)
    message = f"period {PERIOD_LIMIT + 1} exceeds the bound {PERIOD_LIMIT}"
    with pytest.raises(TooLarge, match=message):
        build_period_grid(ResidueTuple(2, (1,) + (0,) * PERIOD_LIMIT))


def _reference_line(grid, i, j, di, dj):
    # the per-cell reader: cell (i + k*di, j + k*dj) is bit k
    return sum(grid.cell(i + k * di, j + k * dj) << k for k in range(grid.p))


def _grids(p):
    # the grid of a periodic tuple and one of random rows
    rng = random.Random(p)
    rows = tuple(rng.getrandbits(p) for _ in range(p))
    periodic = ResidueTuple.from_bits(periodic_tuple_bits(p)[-1], p)
    return [build_period_grid(periodic), PeriodGrid(p, rows)]


@pytest.mark.parametrize("p", [4, 8, 12, 24, 36, 72])
def test_line_rotates_a_stored_line(p):
    rng = random.Random(p)
    anchors = [-2 * p - 3, -1, 0, 1, p - 1, p, 3 * p + 5]
    for grid in _grids(p):
        for di, dj in ((0, 1), (1, 0), (1, 1)):
            for i in anchors + [rng.randrange(-5 * p, 5 * p)]:
                for j in anchors + [rng.randrange(-5 * p, 5 * p)]:
                    assert grid.line(i, j, di, dj) == _reference_line(grid, i, j, di, dj)


@pytest.mark.parametrize("p", [4, 12, 24])
def test_diagonals_pack_the_cells_k_k_plus_c(p):
    for grid in _grids(p):
        for c in range(p):
            assert grid.diagonals[c] == sum(grid.cell(k, k + c) << k for k in range(p))


@pytest.mark.parametrize("step", [(0, -1), (-1, -1), (2, 1), (0, 0)])
def test_line_refuses_a_step_with_no_stored_line(step):
    grid = build_period_grid(R("010100"))
    with pytest.raises(ValueError, match="no stored line"):
        grid.line(0, 0, *step)


def test_detect_preperiod_refuses_past_its_work_bound():
    # the cycle of this tuple is longer than the bound allows
    with pytest.raises(TooLarge, match="no repetition among the first"):
        detect_preperiod(R("1" + "0" * 36))


def test_binomial_row_refuses_past_the_triangle_size_bound():
    with pytest.raises(TooLarge, match=f"triangle of size {TRIANGLE_SIZE_LIMIT + 1}"):
        binomial_row_mod(TRIANGLE_SIZE_LIMIT + 1, 3)
    # a non-periodic tuple of any modulus reads its rows through binomial_row_mod
    with pytest.raises(TooLarge):
        orbit_cell(R("1201", 3), TRIANGLE_SIZE_LIMIT + 1, 0)
    with pytest.raises(TooLarge, match=f"triangle of size {TRIANGLE_SIZE_LIMIT + 1}"):
        binomial_row_mod(TRIANGLE_SIZE_LIMIT + 1, 2)
    with pytest.raises(TooLarge, match="triangle of size 4000000"):
        orbit_cell(R("1000000"), 4 * 10 ** 6, 0)
