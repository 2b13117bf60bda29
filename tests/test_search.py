import dataclasses
import random

import pytest

from expected_values import (
    BALANCED_REPRESENTATIVES_12,
    BALANCED_REPRESENTATIVES_24,
    FULL_CLASS_INDICES_24,
    REMAINDER_COUNTS_24,
    CLASS9_PASCAL_DUAL_WITNESSES,
    CLASS9_PASCAL_NATIVE_WITNESSES,
    CLASS9_STEINHAUS_WITNESSES,
)

from steinhaus import (
    Orientation,
    build_pascal,
    build_steinhaus,
    PeriodNotDivisibleBy4,
    ResidueTuple,
    UnbalancedPeriod,
    balanced_period_classes,
    balanced_triangle_of_size,
    build_period_grid,
    check_family,
    check_pascal_family,
    check_steinhaus_family,
    dual_position,
    extract_pascal_block,
    extract_steinhaus_block,
    full_search,
    generator_tuple,
    is_balanced,
    multiplicity,
    oracle_verify_family,
    pascal_generator_tuples,
    remainder_set,
    steinhaus_dual_position,
)
from steinhaus import orbits, search
from steinhaus.errors import TooLarge
from steinhaus.search import REMAINDER_WORK_LIMIT, family_accepts, triangle_ones

R = ResidueTuple.from_string


def test_balanced_classes_p12():
    reps = [str(c.representative) for c in balanced_period_classes(12)]
    assert reps == BALANCED_REPRESENTATIVES_12


def test_balanced_classes_p4_empty():
    assert balanced_period_classes(4) == ()


def test_balanced_classes_requires_divisibility():
    with pytest.raises(PeriodNotDivisibleBy4):
        balanced_period_classes(6)


def test_balanced_classes_p24_representatives():
    reps = [str(c.representative) for c in balanced_period_classes(24)]
    assert reps == BALANCED_REPRESENTATIVES_24


def test_doubled_short_reps_reappear():
    reps = [str(c.representative) for c in balanced_period_classes(24)]
    assert reps[15] == BALANCED_REPRESENTATIVES_12[0] * 2
    assert reps[16] == BALANCED_REPRESENTATIVES_12[1] * 2


def test_extract_steinhaus_block_examples(rep9_grid):
    block = extract_steinhaus_block(rep9_grid, 6, 9, 6)
    assert multiplicity(block).as_dict() == {0: 11, 1: 10}
    assert block.obeys_local_rule()
    assert extract_steinhaus_block(rep9_grid, 3, 5, 0).size == 0
    grid6 = build_period_grid(R("010100"))
    top = extract_steinhaus_block(grid6, 0, 0, 6)
    assert top.rows == (
        (0, 1, 0, 1, 0, 0),
        (1, 1, 1, 1, 0),
        (0, 0, 0, 1),
        (0, 0, 1),
        (0, 1),
        (1,),
    )


def test_extract_pascal_block_examples(rep9_grid):
    single = extract_pascal_block(rep9_grid, 0, 9, 1)
    assert single.rows == ((rep9_grid.cell(0, 9),),)
    block = extract_pascal_block(rep9_grid, 25, 34, 24)
    left = tuple(row[0] for row in block.rows)
    assert "".join(map(str, left)) == "011110000101011000101110"
    assert block.obeys_local_rule()
    zero_grid = build_period_grid(R("000000000000"))
    zero_block = extract_pascal_block(zero_grid, 3, 7, 5)
    assert all(v == 0 for v in zero_block.cells())


def test_generator_tuple_rows(rep9):
    for remainders, (i0, j0), z in CLASS9_STEINHAUS_WITNESSES:
        assert str(generator_tuple(rep9, i0, j0)) == z
    assert generator_tuple(rep9, 0, 0) == rep9


def test_generator_tuple_generates_the_blocks(rep9, rep9_grid):
    for n in (3, 10, 24, 30):
        z = generator_tuple(rep9, 6, 9)
        seed = ResidueTuple(2, tuple(z[j % 24] for j in range(n)))
        assert build_steinhaus(seed) == extract_steinhaus_block(rep9_grid, 6, 9, n)


def test_pascal_generator_tuples_rows(rep9):
    for remainders, (i0, j0), zl, zr in CLASS9_PASCAL_NATIVE_WITNESSES:
        left, right = pascal_generator_tuples(rep9, i0, j0)
        assert (str(left), str(right)) == (zl, zr)
    left, right = pascal_generator_tuples(R("000000000000"), 2, 5)
    assert left == right == R("000000000000")


def test_pascal_generator_tuples_generate_the_blocks(rep9, rep9_grid):
    left, right = pascal_generator_tuples(rep9, 1, 2)
    for n in (1, 5, 24, 26):
        l = ResidueTuple(2, tuple(left[i % 24] for i in range(n)))
        r = ResidueTuple(2, tuple(right[i % 24] for i in range(n)))
        assert build_pascal(l, r) == extract_pascal_block(rep9_grid, 1, 2, n)


def test_dual_position_arithmetic():
    assert dual_position(1, 11, 23, 24) == (25, 34, 0)
    assert dual_position(0, 0, 23, 24)[2] == 0
    assert dual_position(6, 9, 17, 24) == (24, 26, 6)
    for i0, j0, r in ((1, 11, 23), (6, 9, 17), (0, 0, 0), (5, 7, 12)):
        di, dj, dr = dual_position(i0, j0, r, 24)
        assert steinhaus_dual_position(di, dj, dr, 24) == (i0, j0, r)


def test_steinhaus_witness_rows_accept(rep9):
    for remainders, (i0, j0), _z in CLASS9_STEINHAUS_WITNESSES:
        for r in remainders:
            assert check_steinhaus_family(rep9, i0, j0, r) is not None


def test_corner_free_acceptance(rep9):
    cert = check_steinhaus_family(rep9, 1, 11, 0)
    assert cert is not None
    assert cert.corner.total == 0


def test_block_multiplicities_of_main_witness(rep9):
    cert = check_steinhaus_family(rep9, 6, 9, 6)
    assert cert.corner.counts == (11, 10)
    assert cert.band.counts == (222, 222)
    assert cert.period.counts == (288, 288)
    assert oracle_verify_family(cert, 4)


def test_oracle_refuses_multipliers_past_the_triangle_bound(rep9):
    # K*p + p - 1 = 2039 at K = 84 and 2063 at K = 85, against the bound 2048
    cert = check_steinhaus_family(rep9, 6, 9, 6)
    assert oracle_verify_family(cert, 84)
    with pytest.raises(TooLarge, match="triangle of size 2063 exceeds the bound 2048"):
        oracle_verify_family(cert, 85)


def test_corrupted_certificate_fails_oracle(rep9):
    cert = check_steinhaus_family(rep9, 6, 9, 6)
    shifted = dataclasses.replace(cert, position=(6, 10))
    assert not oracle_verify_family(shifted, 2)


def test_corrupted_pascal_certificate_fails_oracle(rep9):
    cert = check_pascal_family(rep9, *dual_position(6, 9, 6, 24))
    assert cert is not None and oracle_verify_family(cert, 2)
    shifted = dataclasses.replace(cert, position=(13, 16))
    assert not oracle_verify_family(shifted, 2)


def _reference_balance(cert, K):
    """Triangle k = 0..K of the certificate's family balanced, by extraction."""
    grid = build_period_grid(cert.generator)
    i0, j0 = cert.position
    sizes = [k * cert.p + cert.remainder for k in range(K + 1)]
    return [is_balanced(search.extract_block(grid, i0, j0, n, cert.kind)).balanced for n in sizes]


def test_oracle_reads_every_size_of_its_prefix(rep9):
    """oracle_verify_family(cert, K) for K = 1..4 against extraction, on the
    real certificates of class 9 and on forged ones moved off their anchor;
    some forged ones pass k = 0 and fail later, so a size read from the
    wrong entry of the prefix shows."""
    p = len(rep9)
    late_rejections = 0
    for kind in Orientation:
        for r, i0, j0 in remainder_set(rep9, kind).witnesses:
            cert = check_family(rep9, i0, j0, r, kind)
            forged = [
                dataclasses.replace(cert, position=((i0 + di) % p, (j0 + dj) % p))
                for di, dj in ((0, 1), (1, 0), (5, 11))
            ]
            for candidate in [cert, *forged]:
                balanced = _reference_balance(candidate, 4)
                late_rejections += balanced[0] and not all(balanced)
                for K in range(1, 5):
                    assert oracle_verify_family(candidate, K) == all(balanced[: K + 1])
            assert all(_reference_balance(cert, 4))
    assert late_rejections > 0


def test_rejections_on_doubled_class():
    y1 = R(BALANCED_REPRESENTATIVES_12[0] * 2)
    assert len(remainder_set(y1)) == 0
    assert len(remainder_set(y1, Orientation.PASCAL)) == 0
    assert check_steinhaus_family(y1, 3, 5, 7) is None


def test_unbalanced_period_guard():
    zero = R("0" * 24)
    with pytest.raises(UnbalancedPeriod):
        check_steinhaus_family(zero, 0, 0, 3)


@pytest.mark.parametrize("r", [24, -1])
def test_check_family_rejects_a_remainder_outside_the_period(rep9, r):
    with pytest.raises(ValueError):
        check_family(rep9, 6, 9, r, Orientation.STEINHAUS)


def test_check_family_requires_divisibility():
    with pytest.raises(PeriodNotDivisibleBy4):
        check_family(R("010100"), 0, 0, 1, Orientation.STEINHAUS)


@pytest.mark.parametrize("field,delta", [("corner_ones", 2), ("band_ones", 1)])
def test_certificate_rejects_unbalanced_counts(rep9, field, delta):
    cert = check_steinhaus_family(rep9, 6, 9, 6)
    with pytest.raises(ValueError):
        dataclasses.replace(cert, **{field: getattr(cert, field) + delta})


def test_search_and_certificates_never_recount_the_period(rep9, monkeypatch):
    """The period's ones come from PeriodGrid.ones; no table is built for it."""
    def refuse(self):
        raise AssertionError("period recounted through PeriodGrid.multiplicity")

    monkeypatch.setattr(orbits.PeriodGrid, "multiplicity", refuse)
    assert full_search(24).remainder_counts(Orientation.STEINHAUS) == REMAINDER_COUNTS_24
    for remainders, (i0, j0), _z in CLASS9_STEINHAUS_WITNESSES:
        for r in remainders:
            cert = check_steinhaus_family(rep9, i0, j0, r)
            assert cert.to_json_dict()["period_counts"] == [288, 288]
            assert oracle_verify_family(cert, 1)


def test_remainder_scan_bound():
    assert 216 ** 3 <= 256 ** 3 <= REMAINDER_WORK_LIMIT
    # the bound reads the true period off the grid, so the grid and its
    # balance are checked first
    with pytest.raises(UnbalancedPeriod):
        remainder_set(R("0" * 260))


def test_remainder_scan_bound_reads_the_true_period(monkeypatch):
    """A p = 72 class of true period 24 is bounded by 24^3, not 72^3."""
    x = full_search(72).classes[8].class_rep
    assert build_period_grid(x).true_period == 24
    monkeypatch.setattr(search, "REMAINDER_WORK_LIMIT", 24 ** 3 - 1)
    with pytest.raises(TooLarge, match="true period 24 exceeds the work bound"):
        remainder_set(x)
    monkeypatch.setattr(search, "REMAINDER_WORK_LIMIT", 24 ** 3)
    assert len(remainder_set(x)) == 72


def test_lifted_witnesses_at_p72_are_the_p24_witnesses(report24):
    """Each p = 72 class repeats a p = 24 class (its first 24 entries), and
    each of its witnesses (r, i0, j0) is that class's witness of r mod 24,
    as the p = 24 search digests freeze it."""
    witnesses24 = {
        (str(entry.class_rep), kind): {r: (i0, j0) for r, i0, j0 in entry.remainders(kind).witnesses}
        for entry in report24.classes
        for kind in Orientation
    }
    report72 = full_search(72)
    assert len(report72.classes) == len(report24.classes)
    for entry in report72.classes:
        y = str(entry.class_rep)[:24]
        assert str(entry.class_rep) == y * 3
        for kind in Orientation:
            expected = witnesses24[y, kind]
            rset = entry.remainders(kind)
            assert len(rset) == 3 * len(expected)
            for r, i0, j0 in rset.witnesses:
                assert (i0, j0) == expected[r % 24]


def test_pascal_dual_witness_rows_accept(rep9):
    for r, (i0, j0), dual_r, (si, sj), zl, zr in CLASS9_PASCAL_DUAL_WITNESSES:
        cert = check_pascal_family(rep9, i0, j0, r)
        assert cert is not None, (i0, j0, r)
        left, right = pascal_generator_tuples(rep9, i0, j0)
        assert (str(left), str(right)) == (zl, zr)
        di, dj, dr = steinhaus_dual_position(i0, j0, r, 24)
        assert (di % 24, dj % 24, dr) == (si % 24, sj % 24, dual_r)
        assert check_steinhaus_family(rep9, di, dj, dr) is not None


def test_pascal_native_witness_rows_accept(rep9):
    covered = set()
    for remainders, (i0, j0), _zl, _zr in CLASS9_PASCAL_NATIVE_WITNESSES:
        for r in remainders:
            assert check_pascal_family(rep9, i0, j0, r) is not None
            covered.add(r)
    assert covered == set(range(24))


def test_position_periodicity(rep9):
    for i0, j0, r in ((1, 11, 5), (6, 9, 6), (3, 3, 11)):
        base = check_steinhaus_family(rep9, i0, j0, r)
        shifted = check_steinhaus_family(rep9, i0 + 24, j0 + 24, r)
        assert base == shifted


def test_fast_predicate_matches_direct_checks():
    # reference: extract the corner and the size p+r triangle and count cells
    rng = random.Random(7)
    classes = balanced_period_classes(24)
    accepted = 0
    for _ in range(150):
        x = rng.choice(classes).representative
        grid = build_period_grid(x)
        i0, j0, r = rng.randrange(24), rng.randrange(24), rng.randrange(24)
        for kind, extract in (
            (Orientation.STEINHAUS, extract_steinhaus_block),
            (Orientation.PASCAL, extract_pascal_block),
        ):
            corner = multiplicity(extract(grid, i0, j0, r))
            band = multiplicity(extract(grid, i0, j0, 24 + r)) - corner
            direct = corner.spread <= 1 and band.spread == 0
            cert = check_family(x, i0, j0, r, kind)
            assert (cert is not None) == direct == family_accepts(x, i0, j0, r, kind)
            if cert is not None:
                assert (cert.corner, cert.band) == (corner, band)
                accepted += 1
    assert accepted >= 10


def test_block_additivity(rep9, rep9_grid):
    for i0, j0, r in ((6, 9, 6), (1, 11, 0), (3, 3, 11)):
        cert = check_steinhaus_family(rep9, i0, j0, r)
        assert cert is not None
        for k in range(5):
            direct = multiplicity(extract_steinhaus_block(rep9_grid, i0, j0, 24 * k + r))
            predicted = cert.corner + k * cert.band + (k * (k - 1) // 2) * cert.period
            assert direct == predicted


def test_complementarity_blocks(rep9_grid):
    """The corner and band of one kind tile a full period together with the
    band and corner of the dual kind, on rep9 at four triples and on random
    grids of any p and any number T of ones.  With S(n) the Steinhaus triangle
    at (i0, j0) and P(n) the Pascal one at the dual anchor, s = p - 1 - r:
    (i) the S band of r and the P band of s hold 2T ones together, and
    (ii) S(p+r) and P(s) hold T ones plus twice those of S(r)."""
    rng = random.Random(12)
    cases = [(rep9_grid, triple) for triple in ((6, 9, 6), (1, 11, 4), (3, 3, 11), (0, 0, 17))]
    for _ in range(60):
        p = rng.randrange(4, 17)
        density = rng.random()
        rows = tuple(sum((rng.random() < density) << j for j in range(p)) for _ in range(p))
        triple = (rng.randrange(p), rng.randrange(p), rng.randrange(p))
        cases.append((orbits.PeriodGrid(p, rows), triple))
    steinhaus, pascal = Orientation.STEINHAUS, Orientation.PASCAL
    for grid, (i0, j0, r) in cases:
        p, period_counts = grid.p, grid.multiplicity().counts
        ip, jp, rp = dual_position(i0, j0, r, p)

        def count(cells, base_i, base_j):
            ones = sum(grid.cell(base_i + i, base_j + j) for i, j in cells)
            return (len(cells) - ones, ones)

        u0 = count([(i, j) for i in range(r) for j in range(i, r)], i0, j0)
        u1 = count(
            [(i, j) for i in range(p) for j in range(max(i, r), p + r)], i0, j0
        )
        v1 = count([(i, j) for i in range(rp) for j in range(i + 1)], ip, jp)
        v0 = count(
            [(i, j) for i in range(rp, p + rp) for j in range(min(i + 1, p))], ip, jp
        )
        assert tuple(a + b for a, b in zip(u0, v0)) == period_counts
        assert tuple(a + b for a, b in zip(u1, v1)) == period_counts

        def ones(i, j, n, kind):
            return triangle_ones(grid, i, j, n, kind)

        s_band = ones(i0, j0, p + r, steinhaus) - ones(i0, j0, r, steinhaus)
        p_band = ones(ip, jp, p + rp, pascal) - ones(ip, jp, rp, pascal)
        assert s_band + p_band == 2 * grid.ones  # (i)
        assert ones(i0, j0, p + r, steinhaus) + ones(ip, jp, rp, pascal) == (
            grid.ones + 2 * ones(i0, j0, r, steinhaus)
        )  # (ii)


def test_both_remainder_sets_of_a_tuple_take_one_scan(rep9, monkeypatch):
    """remainder_set of the Pascal kind reads the Steinhaus scan that the
    Steinhaus call ran; neither kind scans the Pascal triangles."""
    scans = []
    counts = orbits.AnchorFields.triangle_counts

    def counted(fields, rows, kind):
        scans.append(kind)
        return counts(fields, rows, kind)

    monkeypatch.setattr(orbits.AnchorFields, "triangle_counts", counted)
    search._first_anchors.cache_clear()
    steinhaus = remainder_set(rep9, Orientation.STEINHAUS)
    pascal = remainder_set(rep9, Orientation.PASCAL)
    assert scans == [Orientation.STEINHAUS]
    assert (len(steinhaus), len(pascal)) == (24, 24)


def test_duality_random_triples():
    rng = random.Random(99)
    classes = balanced_period_classes(24)
    for _ in range(1000):
        x = rng.choice(classes).representative
        i0, j0, r = rng.randrange(24), rng.randrange(24), rng.randrange(24)
        st = family_accepts(x, i0, j0, r, Orientation.STEINHAUS)
        di, dj, dr = dual_position(i0, j0, r, 24)
        pa = family_accepts(x, di, dj, dr, Orientation.PASCAL)
        assert st == pa


def test_remainder_set_of_class9(rep9):
    rset = remainder_set(rep9)
    assert rset.full
    assert rset.remainders == tuple(range(24))
    for r, i0, j0 in rset.witnesses:
        assert check_steinhaus_family(rep9, i0, j0, r) is not None


def test_remainder_set_first_witness_order(rep9):
    rset = remainder_set(rep9)
    r0_witness = rset.witness(0)
    found = None
    for i0 in range(24):
        for j0 in range(24):
            if family_accepts(rep9, i0, j0, 0):
                found = (i0, j0)
                break
        if found:
            break
    assert r0_witness == found


def test_full_search_table(report24):
    assert report24.remainder_counts(Orientation.STEINHAUS) == REMAINDER_COUNTS_24
    assert report24.full_classes(Orientation.STEINHAUS) == FULL_CLASS_INDICES_24
    assert report24.full_classes(Orientation.PASCAL) == FULL_CLASS_INDICES_24


def _remainder_counts_csv(report):
    lines = ["class_index,representative,steinhaus_remainders,pascal_remainders"]
    for entry in report.classes:
        lines.append(
            f"{entry.index},{entry.class_rep},{len(entry.steinhaus)},{len(entry.pascal)}"
        )
    return "\n".join(lines) + "\n"


def test_full_search_matches_remainder_golden(report24, golden_dir):
    golden = (golden_dir / "remainder_counts_p24.csv").read_text()
    assert _remainder_counts_csv(report24) == golden


def test_full_search_p72_matches_remainder_golden(golden_dir):
    golden = (golden_dir / "remainder_counts_p72.csv").read_text()
    assert _remainder_counts_csv(full_search(72)) == golden


def test_every_witness_certificate_survives_the_oracle(report24):
    for entry in report24.classes:
        for kind, rset in (
            (Orientation.STEINHAUS, entry.steinhaus),
            (Orientation.PASCAL, entry.pascal),
        ):
            check = (
                check_steinhaus_family if kind is Orientation.STEINHAUS else check_pascal_family
            )
            for r, i0, j0 in rset.witnesses:
                cert = check(entry.class_rep, i0, j0, r)
                assert cert is not None
                assert oracle_verify_family(cert, 4)


def test_full_search_p12_all_empty():
    report = full_search(12)
    assert report.remainder_counts(Orientation.STEINHAUS) == (0, 0)
    assert report.remainder_counts(Orientation.PASCAL) == (0, 0)


def test_balanced_triangle_of_size(report24):
    for n in (1, 7, 24, 25, 49, 100):
        tri = balanced_triangle_of_size(report24, n, Orientation.STEINHAUS)
        assert tri.size == n and is_balanced(tri).balanced
        tri = balanced_triangle_of_size(report24, n, Orientation.PASCAL)
        assert tri.size == n and is_balanced(tri).balanced
