import pytest

from steinhaus import (
    ApFamilySpec,
    InvalidSpec,
    Orientation,
    ResidueTuple,
    SteinhausError,
    TooLarge,
    Triangle,
    ap_balanced_scan,
    build_steinhaus,
    interlaced_scan,
    interlaced_sequence_check,
    interlaced_tuple,
    multiplicative_order,
    multiplicity,
    orbit_period_check_mod_m,
)
from steinhaus.core import MODULUS_LIMIT
from steinhaus.modm import _interlaced_orbit_rows, interlaced_claimed_sizes, interlaced_entry


def test_multiplicative_order():
    assert multiplicative_order(2, 3) == 2
    assert multiplicative_order(2, 5) == 4
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(1, 9) == 1
    with pytest.raises(ValueError):
        multiplicative_order(3, 9)


@pytest.mark.parametrize("m,order,period", [(3, 2, 6), (5, 4, 20), (7, 3, 21)])
def test_ap_spec_periods(m, order, period):
    spec = ApFamilySpec(m)
    assert spec.order_factor == order
    assert spec.period == period


def test_ap_spec_validation():
    with pytest.raises(InvalidSpec):
        ApFamilySpec(4)
    with pytest.raises(InvalidSpec):
        ApFamilySpec(9, 3)


def test_ap_scan_mod3():
    rows = ap_balanced_scan(ApFamilySpec(3), 6)
    by_n = {row.n: row for row in rows}
    assert by_n[5].balanced and by_n[5].spread == 0
    assert by_n[6].balanced and by_n[6].spread == 0
    counts5 = multiplicity(build_steinhaus(ApFamilySpec(3).sequence_tuple(5)))
    assert counts5.counts == (5, 5, 5)
    counts6 = multiplicity(build_steinhaus(ApFamilySpec(3).sequence_tuple(6)))
    assert counts6.counts == (7, 7, 7)


def test_ap_scan_mod5():
    rows = ap_balanced_scan(ApFamilySpec(5), 20)
    by_n = {row.n: row for row in rows}
    assert by_n[19].balanced and by_n[20].balanced


def test_single_cell_is_balanced():
    for m in (3, 5, 7):
        assert ap_balanced_scan(ApFamilySpec(m), 1)[0].balanced


@pytest.mark.parametrize("n_max", [0, -1, -50])
def test_ap_scan_of_no_size_is_empty(n_max):
    assert ap_balanced_scan(ApFamilySpec(5), n_max) == []


@pytest.mark.parametrize("m", [3, 5, 7])
def test_ap_claims_across_three_periods(m):
    spec = ApFamilySpec(m)
    rows = ap_balanced_scan(spec, 3 * spec.period)  # raises on a broken claim
    claimed = set(spec.claimed_sizes(3 * spec.period))
    assert all(row.balanced for row in rows if row.n in claimed)


def test_ap_other_difference_and_start():
    spec = ApFamilySpec(5, common_difference=3, start=2)
    ap_balanced_scan(spec, 2 * spec.period)


@pytest.mark.parametrize("m", [3, 5, 7])
def test_ap_orbit_period(m):
    spec = ApFamilySpec(m)
    q = spec.period
    assert orbit_period_check_mod_m(spec.sequence_tuple(q), q)


def test_orbit_period_check_examples():
    assert orbit_period_check_mod_m(ResidueTuple(3, (0, 1, 2, 0, 1, 2)), 6)
    assert orbit_period_check_mod_m(ResidueTuple(2, (0,)), 1)
    # two derivations send (0,1) to (1,1) then (2,2), so period 2 fails
    assert not orbit_period_check_mod_m(ResidueTuple(3, (0, 1)), 2)
    with pytest.raises(ValueError):
        orbit_period_check_mod_m(ResidueTuple(3, (0, 1)), 3)


def test_interlaced_entries():
    values = [interlaced_entry(j, 7) for j in range(9)]
    assert values == [0, 6, 1, 1, 4, 2, 2, 2, 3]


@pytest.mark.parametrize("m", [3, 5, 7])
def test_interlaced_orbit_period(m):
    assert orbit_period_check_mod_m(interlaced_tuple(m, 6 * m), 6 * m)


def test_interlaced_check_positions():
    # size 8 is balanced at the origin; size 3 needs a shifted anchor
    assert interlaced_sequence_check(3, 8) == (True, 0)
    assert interlaced_sequence_check(3, 3) == (False, 2)
    assert interlaced_sequence_check(3, 3, 0, 3) == (True, 0)


def test_interlaced_scan_finds_claimed_sizes():
    for m in (3, 5):
        n_max = 3 * 6 * m
        witnesses = interlaced_scan(m, n_max)
        claimed = interlaced_claimed_sizes(m, n_max)
        for n in claimed:
            assert witnesses[n - 1].found, (m, n)
            i0, j0 = witnesses[n - 1].position
            result = interlaced_sequence_check(m, n, i0, j0)
            assert result.balanced


def test_interlaced_scan_pascal_multiples():
    for m in (3, 5):
        n_max = 3 * 6 * m
        witnesses = interlaced_scan(m, n_max, Orientation.PASCAL)
        for n in interlaced_claimed_sizes(m, n_max, Orientation.PASCAL):
            assert witnesses[n - 1].found, (m, n)


def test_interlaced_offset_witnesses_shift_with_the_sequence():
    # anchoring on row 0 at column c equals starting the sequence at index c
    m = 3
    for n, c in ((3, 3), (5, 1)):
        direct = build_steinhaus(interlaced_tuple(m, n, start=c))
        assert interlaced_sequence_check(m, n, 0, c) == (
            multiplicity(direct).balanced,
            multiplicity(direct).spread,
        )


@pytest.mark.parametrize("m", range(3, 32, 2))
def test_interlaced_orbit_repeats_under_the_skew_lattice(m):
    """G(i, j + 3m) = G(i, j) and G(i + 2m, j + m) = G(i, j), cell by cell on
    the 6m-by-6m period: the scan reads only the 2m-by-3m domain they leave."""
    orbit = _interlaced_orbit_rows(m)
    q = 6 * m
    for i in range(q):
        for j in range(q):
            assert orbit[i][(j + 3 * m) % q] == orbit[i][j], (m, i, j)
            assert orbit[(i + 2 * m) % q][(j + m) % q] == orbit[i][j], (m, i, j)


def _only_row_zero(m):
    """6m-periodic both ways and 3m-periodic along each row, but row 2m is
    not row 0 moved m columns on."""
    q = 6 * m
    return [(1,) * q] + [(0,) * q] * (q - 1)


def _one_cell_changed(m):
    rows = _interlaced_orbit_rows(m)
    return [((rows[0][0] + 1) % m,) + rows[0][1:]] + rows[1:]


@pytest.mark.parametrize("grid", [_only_row_zero, _one_cell_changed])
def test_interlaced_scan_refuses_an_orbit_off_the_skew_lattice(monkeypatch, grid):
    monkeypatch.setattr("steinhaus.modm._interlaced_orbit_rows", grid)
    with pytest.raises(AssertionError, match="does not repeat under"):
        interlaced_scan(3, 9)


def test_ap_scan_refuses_an_unbalanced_claimed_size(monkeypatch):
    """Size 2 at m = 5 is unbalanced (spread 2): claimed, the scan raises."""
    monkeypatch.setattr(ApFamilySpec, "claimed_sizes", lambda self, n_max: [2])
    with pytest.raises(SteinhausError, match=r"claimed sizes without balanced witness: \[2\]"):
        ap_balanced_scan(ApFamilySpec(5), 4)


def test_interlaced_scan_refuses_a_claimed_size_without_witness(monkeypatch):
    """No anchor of the m = 5 orbit holds a balanced size-6 triangle."""
    monkeypatch.setattr("steinhaus.modm.interlaced_claimed_sizes", lambda m, n_max, kind: [6])
    with pytest.raises(SteinhausError, match=r"claimed sizes without balanced witness: \[6\]"):
        interlaced_scan(5, 6)


def test_interlaced_scan_validation():
    with pytest.raises(InvalidSpec):
        interlaced_scan(4, 10)
    with pytest.raises(InvalidSpec):
        interlaced_sequence_check(6, 5)


def test_interlaced_check_is_bounded():
    """The cell-by-cell check builds no triangle past the size bound."""
    with pytest.raises(TooLarge, match="triangle of size 2049 exceeds the bound 2048"):
        interlaced_sequence_check(3, 2049)


def test_interlaced_check_refuses_an_orbit_past_the_work_bound(monkeypatch):
    """(6m)^2 = 3174^2 cells exceed INTERLACED_WORK_LIMIT at m = 529: the
    check is refused before the orbit is derived, whatever the size."""
    def refuse(*args):
        raise AssertionError("derived the interlaced orbit past the work bound")

    monkeypatch.setattr("steinhaus.modm._interlaced_orbit_rows", refuse)
    with pytest.raises(TooLarge, match="interlaced orbit of modulus 529 exceeds the work bound"):
        interlaced_sequence_check(529, 5)


def test_modulus_and_progression_bounds():
    assert len(ResidueTuple(MODULUS_LIMIT, (MODULUS_LIMIT - 1,))) == 1
    with pytest.raises(TooLarge):
        ResidueTuple(MODULUS_LIMIT + 1, ())
    with pytest.raises(TooLarge):
        Triangle(Orientation.STEINHAUS, MODULUS_LIMIT + 1, ())
    with pytest.raises(TooLarge):
        multiplicative_order(2, MODULUS_LIMIT + 1)
    # 1577 is the largest n_max whose 1577*(1577+7) fits AP_WORK_LIMIT at m = 7
    with pytest.raises(TooLarge):
        ap_balanced_scan(ApFamilySpec(7), 1578)
    # a large modulus costs m residue counts per size: 390 sizes of 65535
    with pytest.raises(TooLarge):
        ap_balanced_scan(ApFamilySpec(65535), 390)
