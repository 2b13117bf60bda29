"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.
"""

import random
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

from expected_values import (
    BALANCED_REPRESENTATIVES_24,
    CLASS_COUNTS,
    KERNEL_DIMS,
    REMAINDER_COUNTS_24,
    CLASS9_REP,
    CLASS9_PASCAL_DUAL_WITNESSES,
    CLASS9_PASCAL_NATIVE_WITNESSES,
    CLASS9_STEINHAUS_WITNESSES,
)

from steinhaus import (
    ApFamilySpec,
    GroupElement,
    Orientation,
    ResidueTuple,
    ap_balanced_scan,
    apply,
    average_census,
    balanced_period_classes,
    balanced_triangle_of_size,
    build_pascal,
    build_period_grid,
    build_steinhaus,
    check_pascal_family,
    check_steinhaus_family,
    compose,
    enumerate_periodic_tuples,
    extract_steinhaus_block,
    extremal_ones_scan,
    full_search,
    gf2_kernel_basis,
    interlaced_scan,
    is_balanced,
    multiplicity,
    oracle_verify_family,
    partition_classes,
    pascal_generator_tuples,
    pascal_max_ones,
    reflect_i,
    rotate_r,
    steinhaus_max_ones,
    wendt_matrix,
)
from steinhaus.census import triangle_count
from steinhaus.cli import main
from steinhaus.modm import interlaced_claimed_sizes
from steinhaus.orbits import _derive_bits, periodic_tuple_bits
from steinhaus.search import generator_tuple

R = ResidueTuple.from_string


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number:2d}: {description}", flush=True)
        raise
    elapsed = time.monotonic() - start
    print(
        f"PASS criterion {number:2d}: {description} ({elapsed:.2f}s / {budget_seconds:g}s)",
        flush=True,
    )
    assert elapsed < budget_seconds, f"criterion {number} exceeded its time budget"


def test_criterion_01_kernel_dimensions():
    with criterion(1, "kernel dimensions for p = 1..24", 1.0):
        got = [len(gf2_kernel_basis(wendt_matrix(p))) for p in range(1, 25)]
        assert got == KERNEL_DIMS


def test_criterion_02_class_counts():
    with criterion(2, "symmetry class counts for p = 1..24", 30.0):
        got = [len(partition_classes(p)) for p in range(1, 25)]
        assert got == CLASS_COUNTS


def test_criterion_03_balanced_class_representatives():
    with criterion(3, "balanced-period class counts and p=24 representatives", 30.0):
        counts = [len(balanced_period_classes(p)) for p in (4, 8, 12, 16, 20, 24)]
        assert counts == [0, 0, 2, 0, 0, 17]
        reps = [str(c.representative) for c in balanced_period_classes(24)]
        assert reps == BALANCED_REPRESENTATIVES_24


def test_criterion_04_remainder_set_sizes():
    with criterion(4, "remainder-set sizes at p=24 and empty sets at p=12", 300.0):
        report = full_search(24)
        assert report.remainder_counts(Orientation.STEINHAUS) == REMAINDER_COUNTS_24
        report12 = full_search(12)
        assert report12.remainder_counts(Orientation.STEINHAUS) == (0, 0)
        assert report12.remainder_counts(Orientation.PASCAL) == (0, 0)


def test_criterion_05_class9_witnesses():
    with criterion(5, "apex-down witnesses and block counts for class 9 at p=24", 10.0):
        rep9 = R(CLASS9_REP)
        for remainders, (i0, j0), z in CLASS9_STEINHAUS_WITNESSES:
            assert str(generator_tuple(rep9, i0, j0)) == z
            for r in remainders:
                assert check_steinhaus_family(rep9, i0, j0, r) is not None
        cert = check_steinhaus_family(rep9, 6, 9, 6)
        assert cert.corner.counts == (11, 10)
        assert cert.band.counts == (222, 222)
        assert cert.period.counts == (288, 288)
        assert oracle_verify_family(cert, 4)


def test_criterion_06_duality_witnesses():
    with criterion(6, "apex-up witnesses, dual and native, with side tuples", 30.0):
        rep9 = R(CLASS9_REP)
        for r, (i0, j0), _dr, _dpos, zl, zr in CLASS9_PASCAL_DUAL_WITNESSES:
            assert check_pascal_family(rep9, i0, j0, r) is not None
            left, right = pascal_generator_tuples(rep9, i0, j0)
            assert (str(left), str(right)) == (zl, zr)
        for remainders, (i0, j0), zl, zr in CLASS9_PASCAL_NATIVE_WITNESSES:
            left, right = pascal_generator_tuples(rep9, i0, j0)
            assert (str(left), str(right)) == (zl, zr)
            for r in remainders:
                assert check_pascal_family(rep9, i0, j0, r) is not None


def test_criterion_07_all_sizes_realized():
    with criterion(7, "balanced triangles of every size 1..200, both kinds", 60.0):
        report = full_search(24)
        for n in range(1, 201):
            for kind in (Orientation.STEINHAUS, Orientation.PASCAL):
                triangle = balanced_triangle_of_size(report, n, kind)
                assert triangle.size == n
                counts = multiplicity(triangle)
                assert counts.total == n * (n + 1) // 2
                assert counts.spread <= 1


def test_criterion_08_censuses():
    with criterion(8, "average and maximum one-counts by exhaustive census", 120.0):
        for n in range(1, 15):
            total = average_census(n, Orientation.STEINHAUS)
            assert 2 * total == triangle_count(n, Orientation.STEINHAUS) * n * (n + 1) // 2
            assert extremal_ones_scan(n, Orientation.STEINHAUS) == steinhaus_max_ones(n)
        for n in range(1, 10):
            total = average_census(n, Orientation.PASCAL)
            assert 2 * total == triangle_count(n, Orientation.PASCAL) * n * (n + 1) // 2
            assert extremal_ones_scan(n, Orientation.PASCAL) == pascal_max_ones(n)
        assert pascal_max_ones(8) == 27


def test_criterion_09_property_suites():
    with criterion(9, "structural invariants and algebraic laws", 60.0):
        rng = random.Random(2024)
        # local rule on random triangles over several moduli
        for _ in range(120):
            m = rng.choice((2, 3, 5, 7))
            n = rng.randrange(1, 13)
            seed = ResidueTuple(m, tuple(rng.randrange(m) for _ in range(n)))
            assert build_steinhaus(seed).obeys_local_rule()
            right = ResidueTuple(m, (seed[0],) + tuple(rng.randrange(m) for _ in range(n - 1)))
            assert build_pascal(seed, right).obeys_local_rule()
        # dihedral relations on all 12-periodic generators
        for x in enumerate_periodic_tuples(12):
            assert rotate_r(rotate_r(rotate_r(x))) == x
            assert reflect_i(reflect_i(x)) == x
            ir = rotate_r(reflect_i(x))
            assert rotate_r(reflect_i(ir)) == x
        # action compatibility on 1000 random triples
        po12 = enumerate_periodic_tuples(12)
        for _ in range(1000):
            g = GroupElement(12, rng.randrange(12), rng.randrange(12), rng.randrange(3), rng.randrange(2))
            h = GroupElement(12, rng.randrange(12), rng.randrange(12), rng.randrange(3), rng.randrange(2))
            x = rng.choice(po12)
            assert apply(h, apply(g, x)) == apply(compose(g, h), x)
        # block additivity for k <= 4
        rep9 = R(CLASS9_REP)
        grid = build_period_grid(rep9)
        for i0, j0, r in ((6, 9, 6), (1, 11, 0), (3, 3, 11)):
            cert = check_steinhaus_family(rep9, i0, j0, r)
            for k in range(5):
                direct = multiplicity(extract_steinhaus_block(grid, i0, j0, 24 * k + r))
                assert direct == cert.corner + k * cert.band + (k * (k - 1) // 2) * cert.period
        # complementary blocks tile a full period
        p = 24
        period_counts = grid.multiplicity().counts
        for i0, j0, r in ((6, 9, 6), (1, 11, 4), (0, 0, 17)):
            ip, jp, rp = i0 + r + 1, j0 + r, p - 1 - r

            def count(cells, bi, bj):
                ones = sum(grid.cell(bi + i, bj + j) for i, j in cells)
                return (len(cells) - ones, ones)

            u0 = count([(i, j) for i in range(r) for j in range(i, r)], i0, j0)
            u1 = count([(i, j) for i in range(p) for j in range(max(i, r), p + r)], i0, j0)
            v1 = count([(i, j) for i in range(rp) for j in range(i + 1)], ip, jp)
            v0 = count([(i, j) for i in range(rp, p + rp) for j in range(min(i + 1, p))], ip, jp)
            assert tuple(a + b for a, b in zip(u0, v0)) == period_counts
            assert tuple(a + b for a, b in zip(u1, v1)) == period_counts
        # kernel membership equals vertical periodicity, exhaustive p <= 12
        for p in range(1, 13):
            periodic = set(periodic_tuple_bits(p))
            for bits in range(1 << p):
                row = bits
                for _ in range(p):
                    row = _derive_bits(row, p)
                assert (row == bits) == (bits in periodic)


def test_criterion_10_mod_m_checks():
    with criterion(10, "mod-m balance: progressions and the interlaced orbit", 60.0):
        assert is_balanced(build_steinhaus(R("2330445", 7))) == (True, 0)
        assert is_balanced(build_pascal(R("012153", 7), R("065624", 7))) == (True, 0)
        for m in (3, 5, 7):
            spec = ApFamilySpec(m)
            rows = ap_balanced_scan(spec, 3 * spec.period)
            claimed = set(spec.claimed_sizes(3 * spec.period))
            assert all(row.balanced for row in rows if row.n in claimed)
        for m in (3, 5):
            n_max = 3 * 6 * m
            witnesses = interlaced_scan(m, n_max)
            for n in interlaced_claimed_sizes(m, n_max):
                assert witnesses[n - 1].found, (m, n)
            pascal = interlaced_scan(m, n_max, Orientation.PASCAL)
            for n in interlaced_claimed_sizes(m, n_max, Orientation.PASCAL):
                assert pascal[n - 1].found, (m, n)


def test_criterion_11_large_periods_at_their_true_period():
    with criterion(11, "search at p = 264 and 1944, each class scanned at its true period", 3.0):
        with tempfile.TemporaryDirectory() as scratch:
            out = Path(scratch) / "search.txt"
            for p, classes in ((264, 17), (1944, 17)):
                assert main(["search", "--p", str(p), "--out", str(out)]) == 0
                lines = out.read_text().splitlines()
                assert lines[0] == f"balanced-period classes at p={p}: {classes}"
                # each class repeats a p = 24 class, so it has p/24 times its remainders
                for line, count in zip(lines[1:], REMAINDER_COUNTS_24):
                    n = p // 24 * count
                    assert line.endswith(f"steinhaus |R|={n}  pascal |R|={n}")
                assert lines[-2:] == [
                    "classes with every remainder (steinhaus): 4, 6, 7, 8, 9, 11",
                    "classes with every remainder (pascal): 4, 6, 7, 8, 9, 11",
                ]
