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
    CLASS9_REP,
    CLASS9_STEINHAUS_WITNESSES,
)
from test_line_stream import _ones_prefix

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
    partition_classes,
    pascal_generator_tuples,
    remainder_set,
    steinhaus_dual_position,
)
from steinhaus import orbits, search
from steinhaus.errors import EmptyTuple, NotPeriodic, TooLarge
from steinhaus.orbits import true_period
from steinhaus.search import REMAINDER_WORK_LIMIT

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


def test_oracle_refuses_multipliers_past_the_triangle_bound(rep9, monkeypatch):
    # K*p + p - 1 = 2039 at K = 84 and 2063 at K = 85, against the bound 2048
    cert = check_steinhaus_family(rep9, 6, 9, 6)
    assert oracle_verify_family(cert, 84)

    def refuse(*args):
        raise AssertionError("counted the blocks of a multiplier past the bound")

    monkeypatch.setattr(search, "_block_ones", refuse)
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


def _stream_balance(cert, K):
    """Triangle k = 0..K of the certificate's family balanced, by the
    reference line stream."""
    grid = build_period_grid(cert.generator)
    i0, j0 = cert.position
    ones = _ones_prefix(grid, i0, j0, K * cert.p + cert.remainder, cert.kind)
    return [abs(n * (n + 1) // 2 - 2 * ones[n]) <= 1 for n in range(cert.remainder, len(ones), cert.p)]


def _oracle_disagreements(x, remainders, K, reference):
    """Count (oracle verdicts at K' = 1..K that differ from the reference,
    candidates that pass k = 0 and fail later) over the real certificates
    of x at the given remainders, both kinds, and forged ones moved off
    their anchor, each checked to be real by the reference."""
    p = len(x)
    disagreements = late_rejections = 0
    for kind in Orientation:
        witnesses = remainder_set(x, kind)
        for r in remainders:
            i0, j0 = witnesses.witness(r)
            cert = check_family(x, i0, j0, r, kind)
            assert all(reference(cert, K))
            forged = [
                dataclasses.replace(cert, position=((i0 + di) % p, (j0 + dj) % p))
                for di, dj in ((0, 1), (1, 0), (5, 11))
            ]
            for candidate in [cert, *forged]:
                balanced = reference(candidate, K)
                late_rejections += balanced[0] and not all(balanced)
                disagreements += sum(
                    oracle_verify_family(candidate, k) != all(balanced[: k + 1]) for k in range(1, K + 1)
                )
    return disagreements, late_rejections


CLASS9_AT_72 = R(CLASS9_REP * 3)
REMAINDERS_AT_72 = (0, 1, 23, 24, 47, 70, 71)


def test_oracle_reads_every_size_of_its_prefix(rep9):
    """oracle_verify_family(cert, K) against a reference, on real
    certificates and on forged ones moved off their anchor: class 9 at
    p = 24 for K = 1..4 against extraction, and at p = 72 for K = 1..8,
    r = 0 and r = p - 1 included, against the line stream.  Some forged
    ones pass k = 0 and fail later, so a size read from the wrong entry of
    the blocks shows."""
    for x, remainders, K, reference in [
        (rep9, range(len(rep9)), 4, _reference_balance),
        (CLASS9_AT_72, REMAINDERS_AT_72, 8, _stream_balance),
    ]:
        disagreements, late_rejections = _oracle_disagreements(x, remainders, K, reference)
        assert disagreements == 0 and late_rejections > 0


def _short_block_ones(grid, i0, j0, n, kind):
    """search._block_ones with each band row one cell short: the mask
    (D << c >> 1) - R, that is (D << c - 1) - R with no negative shift at c = 0."""
    p = grid.p
    start, s = (j0 % p, i0 % p) if kind is Orientation.STEINHAUS else (i0 % p, j0 % p)
    plane, w, R, D, stair, low = search._line_plane(grid, kind, n // p + 2)
    r = n % p
    band = plane >> ((start + r) % p * w + s)
    ones = [((band & ((D << r) - R)) >> (p - r) * w & stair).bit_count()]
    for c in range(r, n, p):
        ones.append(ones[-1] + (band & ((D << c >> 1) - R)).bit_count())
    return ones


def test_the_oracle_test_rejects_a_band_mask_a_cell_short(monkeypatch):
    """The mutant keeps the corner, so only the sizes past it go wrong; the
    p = 72 check of test_oracle_reads_every_size_of_its_prefix sees it."""
    monkeypatch.setattr(search, "_block_ones", _short_block_ones)
    disagreements, _ = _oracle_disagreements(CLASS9_AT_72, REMAINDERS_AT_72, 8, _stream_balance)
    assert disagreements > 0


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


def _witness_certificates(report):
    """check_family of every witness of the report, both kinds."""
    return [
        check_family(entry.class_rep, i0, j0, r, kind)
        for entry in report.classes
        for kind in Orientation
        for r, i0, j0 in entry.remainders(kind).witnesses
    ]


def test_check_family_builds_the_certificate_the_constructor_builds(report24):
    """The checked path skips __post_init__, yet each of the 654 certificates
    equals, hashes and prints as the one the public constructor builds."""
    certs = _witness_certificates(report24)
    assert len(certs) == 654
    for cert in certs:
        public = search.FamilyCertificate(
            cert.kind, cert.generator, cert.position, cert.remainder, cert.corner_ones, cert.band_ones
        )
        assert cert == public and hash(cert) == hash(public) and repr(cert) == repr(public)


def test_check_family_tests_each_certificate_once(report24, monkeypatch):
    """The acceptance rule's targets are built p times per period, once per
    remainder, not once per certificate; each accepted certificate is tested
    once, against its remainder's targets, and check_family does not have
    the constructor check again."""
    calls, reads = [], []

    class Targets(tuple):
        def __getitem__(self, r):
            reads.append(r)
            return super().__getitem__(r)

    targets, table = search._family_targets, search._period_targets
    monkeypatch.setattr(search, "_family_targets", lambda p, r: calls.append(r) or targets(p, r))
    monkeypatch.setattr(search, "_period_targets", lambda p: Targets(table(p)))
    monkeypatch.setattr(search.FamilyCertificate, "__post_init__", lambda self: calls.append(self))
    table.cache_clear()
    search._period_plane.cache_clear()
    try:
        certs = _witness_certificates(report24)
    finally:
        search._period_plane.cache_clear()  # drop the planes holding the counting table
    assert None not in certs and len(certs) == 654
    assert calls == list(range(24))
    assert reads == [cert.remainder for cert in certs]


@pytest.mark.parametrize("p", [4, 8, 12, 24, 72, 264])
def test_the_targets_table_holds_the_rule_of_every_remainder(p):
    assert search._period_targets(p) == tuple(search._family_targets(p, r) for r in range(p))


@pytest.mark.parametrize("x,r,error,message", [
    (R("100000"), 99, PeriodNotDivisibleBy4, "not divisible by 4"),
    (R("1000"), 7, ValueError, "remainder must lie"),
    (R("1000"), 1, NotPeriodic, "does not generate"),
    (ResidueTuple(3, (1, 0, 0, 0)), 1, ValueError, "defined for modulus 2"),
    (R("0" * 24), 25, ValueError, "remainder must lie"),
    (R("0" * 24), 1, UnbalancedPeriod, "not balanced"),
], ids=str)
def test_check_family_refuses_in_a_fixed_order(x, r, error, message):
    """The period's divisibility, then the remainder's range, then the grid
    (modulus, periodicity), then the period's balance; the public
    constructor refuses the same inputs in the same order, given counts the
    rule accepts at a valid remainder: corner 0 and half the band's cells
    (162 for the all-zero p = 24 tuple at r = 1, whose certificate would
    otherwise report a balanced period)."""
    p = len(x)
    band = (p * r + p * (p + 1) // 2) // 2
    for kind in Orientation:
        for refuse in (
            lambda: check_family(x, 0, 0, r, kind),
            lambda: search.FamilyCertificate(kind, x, (0, 0), r, 0, band),
        ):
            with pytest.raises(ValueError, match=message) as refused:
                refuse()
            assert type(refused.value) is error


def test_an_unbalanced_period_is_refused_on_every_call():
    """No refusal is cached: the plane lookup raises again."""
    zero = R("0" * 24)
    for _ in range(3):
        for kind in Orientation:
            with pytest.raises(UnbalancedPeriod):
                check_family(zero, 1, 2, 3, kind)


def test_p72_certificates_equal_the_constructors():
    report = full_search(72)
    certs = _witness_certificates(report)
    assert len(certs) == 3 * 654 and None not in certs
    assert {cert.kind for cert in certs} == set(Orientation)
    for cert in certs:
        public = search.FamilyCertificate(
            cert.kind, cert.generator, cert.position, cert.remainder, cert.corner_ones, cert.band_ones
        )
        assert cert == public and hash(cert) == hash(public) and repr(cert) == repr(public)


@pytest.mark.parametrize("fields,error", [
    ({"remainder": 24}, "remainder must lie in 0..p-1"),
    ({"remainder": -1}, "remainder must lie in 0..p-1"),
    ({"corner_ones": 0}, "certificate blocks are not balanced"),
    ({"band_ones": 0}, "certificate blocks are not balanced"),
    ({"generator": R("0110" * 5 + "01")}, "not divisible by 4"),
], ids=str)
def test_the_public_constructor_keeps_its_checks(rep9, fields, error):
    cert = check_steinhaus_family(rep9, 6, 9, 6)
    with pytest.raises(ValueError, match=error):
        dataclasses.replace(cert, **fields)


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
    # the bound reads the true period off the tuple, so the tuple and the
    # balance of its true-period grid are checked first
    with pytest.raises(UnbalancedPeriod):
        remainder_set(R("0" * 260))


def test_remainder_set_error_contract(monkeypatch):
    with pytest.raises(EmptyTuple):
        remainder_set(ResidueTuple(2, ()))
    with pytest.raises(ValueError):
        remainder_set(ResidueTuple(3, (0,) * 4))
    with pytest.raises(NotPeriodic):
        remainder_set(R("1000"))
    with pytest.raises(PeriodNotDivisibleBy4):
        remainder_set(R("0010000"))
    # an unbalanced period is refused before the q^3 bound, however low
    monkeypatch.setattr(search, "REMAINDER_WORK_LIMIT", 0)
    with pytest.raises(UnbalancedPeriod):
        remainder_set(R("0" * 24))

    def refuse(bits, p):
        raise AssertionError("derived a tuple past the period bound")

    monkeypatch.setattr(orbits, "_bit_rows", refuse)
    with pytest.raises(TooLarge, match="period 3000 exceeds the bound"):
        remainder_set(ResidueTuple(2, (0,) * 3000))


def test_search_builds_only_true_period_grids(monkeypatch):
    """Every p = 1944 class has a true period dividing 24, and the balance
    filter and the remainder scans ask for no grid of any other tuple."""
    lengths = []
    build = search.build_period_grid

    def recording(x):
        lengths.append(len(x))
        return build(x)

    monkeypatch.setattr(search, "build_period_grid", recording)
    search._true_period_grid.cache_clear()
    classes = balanced_period_classes(1944)
    assert lengths and max(lengths) <= 24
    lengths.clear()
    search._true_period_grid.cache_clear()
    assert len(full_search(1944).classes) == len(classes)
    assert lengths and max(lengths) <= 24


def test_a_class_grid_is_keyed_by_the_class_tuple(monkeypatch):
    """When q = p the class tuple itself keys the grid cache, so a later
    lookup of the tuple hits by identity, comparing no entries."""
    search._true_period_grid.cache_clear()
    build_period_grid.cache_clear()
    full = [cls.representative for cls in balanced_period_classes(24)
            if true_period(cls.representative) == 24]
    grids = [search._true_period_grid(x) for x in full]
    assert full and all(grid is build_period_grid(x) for x, grid in zip(full, grids))

    def refuse(self, other):
        raise AssertionError("compared a class tuple entry by entry")

    monkeypatch.setattr(ResidueTuple, "__eq__", refuse)
    assert all(build_period_grid(x) is grid for x, grid in zip(full, grids))


def test_full_search_finds_each_true_period_once(monkeypatch):
    """The scans read the grids the balance filter built: one true period
    per balanced class, 17 at p = 24; the 75 unbalanced classes of the
    partition are never walked."""
    calls = []

    def counting(x):
        calls.append(x)
        return true_period(x)

    monkeypatch.setattr(search, "true_period", counting)
    search._true_period_grid.cache_clear()
    full_search(24)
    assert len(calls) == len(balanced_period_classes(24)) == 17


def test_full_search_takes_the_one_public_path(monkeypatch):
    """full_search reaches the scan only through the module's public entry
    points: the balance filter once, then remainder_set per class and kind."""
    calls = {"balanced_period_classes": 0, "remainder_set": 0}

    def counting(name):
        inner = getattr(search, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(search, name, wrapper)

    for name in calls:
        counting(name)
    report = full_search(24)
    assert calls == {"balanced_period_classes": 1, "remainder_set": 34}
    assert len(report.classes) == 17


def test_balance_filter_refuses_a_plane_disagreement(monkeypatch):
    """The grid check behind the balance filter raises, never filters, when
    the balanced walk hands it an unbalanced class."""
    unbalanced = next(cls for cls in partition_classes(24) if cls not in balanced_period_classes(24))
    monkeypatch.setattr(search, "balanced_classes", lambda p: (unbalanced,))
    with pytest.raises(AssertionError, match="balance plane admitted"):
        full_search(24)


def _moved(plane, di, dj, p):
    """The plane whose row i, bit j is cell (i + di, j + dj) of ``plane``,
    both indices mod p: each packed row rotated dj places down."""
    mask, dj = (1 << p) - 1, dj % p
    return [(row >> dj | row << (p - dj)) & mask for row in (plane[(i + di) % p] for i in range(p))]


def _triangle_parities(rows, kind, n_max):
    """Entry n, for n = 0 .. n_max, packs the parity of T_n at every anchor:
    row i0, bit j0 is the ones mod 2 of the size-n triangle at (i0, j0) in
    the orbit whose period has packed rows ``rows``.  T_n gains the edge
    ending at (i0+n-1, j0+n-1): the column above it (Steinhaus), a prefix
    of the column at j0+n-1, or the row left of it (Pascal), a prefix of
    row i0+n-1."""
    p = len(rows)
    prefix, total, parities = [0] * p, [0] * p, [[0] * p]
    for n in range(1, n_max + 1):
        if kind is Orientation.STEINHAUS:
            prefix = [a ^ b for a, b in zip(prefix, _moved(rows, n - 1, 0, p))]
            edge = _moved(prefix, 0, n - 1, p)
        else:
            prefix = [a ^ b for a, b in zip(prefix, _moved(rows, 0, n - 1, p))]
            edge = _moved(prefix, n - 1, 0, p)
        total = [a ^ b for a, b in zip(total, edge)]
        parities.append(total)
    return parities


@pytest.mark.parametrize("kind", list(Orientation))
def test_every_band_of_the_kernel_generator_is_even(kind):
    """At every p <= 64 with d > 0, the orbit of the kernel generator h has
    an even number of ones in every band T_{p+r} - T_r, r = 0 .. p-1, at
    every anchor: the band-parity theorem, which leaves a family only to
    true periods divisible by 8.  The parities are not vacuous: at each p
    some whole triangle T_n, n >= 2, is odd, and sampled parities equal a
    direct recount of the triangle's cells."""
    periods = [p for p in range(1, 65) if orbits.kernel_generator(p)[0] > 0]
    assert len(periods) == 29
    for p in periods:
        grid = build_period_grid(ResidueTuple.from_bits(orbits.kernel_generator(p)[1], p))
        parities = _triangle_parities(grid.rows, kind, 2 * p - 1)
        for r in range(p):
            assert parities[p + r] == parities[r], (p, r)
        assert any(any(plane) for plane in parities[2:]), p
        for n, i0, j0 in [(5, 3, 1), (p, 1, 2), (p + min(3, p - 1), 0, p - 1)]:
            steinhaus = kind is Orientation.STEINHAUS
            shape = [(a, b) for a in range(n) for b in range(n) if (a <= b if steinhaus else b <= a)]
            ones = sum(grid.cell(i0 + a, j0 + b) for a, b in shape)
            assert parities[n][i0 % p] >> (j0 % p) & 1 == ones % 2, (p, n)


def test_remainder_scan_bound_reads_the_true_period(monkeypatch):
    """A p = 72 class of true period 24 is bounded by 24^3, not 72^3."""
    x = full_search(72).classes[8].class_rep
    assert true_period(x) == 24
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
            assert (cert is not None) == direct
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
            return search._block_ones(grid, i, j, n, kind)[-1]

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
        st = check_family(x, i0, j0, r, Orientation.STEINHAUS) is not None
        di, dj, dr = dual_position(i0, j0, r, 24)
        pa = check_family(x, di, dj, dr, Orientation.PASCAL) is not None
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
            if check_family(rep9, i0, j0, 0, Orientation.STEINHAUS) is not None:
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


def test_balanced_triangle_of_size_is_bounded(report24, monkeypatch):
    """A size past the triangle bound is refused before any cell is read."""
    def refuse(*args):
        raise AssertionError("extracted a triangle past the size bound")

    monkeypatch.setattr(search, "extract_block", refuse)
    for kind in Orientation:
        with pytest.raises(TooLarge, match="triangle of size 2049 exceeds the bound"):
            balanced_triangle_of_size(report24, 2049, kind)


def test_the_exported_extractors_are_bounded(monkeypatch):
    """A size past the triangle bound is refused before any cell is read."""
    def refuse(*args):
        raise AssertionError("extracted a triangle past the size bound")

    grid = build_period_grid(R("0" * 24))
    monkeypatch.setattr(search, "extract_block", refuse)
    for extract in (extract_steinhaus_block, extract_pascal_block):
        with pytest.raises(TooLarge, match="triangle of size 2049 exceeds the bound"):
            extract(grid, 0, 0, 2049)
