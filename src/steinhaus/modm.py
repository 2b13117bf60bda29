"""Balance scans modulo m: arithmetic progressions and an interlaced sequence.

For odd m, the triangle on an arithmetic progression with invertible common
difference is balanced whenever its size is 0 or -1 mod q, where q is m
times the multiplicative order of 2^m mod m; the orbit of such a
progression is q-periodic, and its scan reads every size off one orbit.
A second family interlaces three arithmetic progressions; its orbit mod m
has period 6m and *contains* balanced triangles of every size divisible by
m and every size -1 mod 3m, though not necessarily anchored at the origin,
so those claims are checked by scanning every position at once with
orbits.AnchorFields, the packed counter the binary family scan uses too,
run on one one-hot grid per nonzero residue.  The orbit also repeats under
(0, 3m) and (2m, m), both checked on the derived period, so the scan packs
only the 6m^2 anchors of rows 0..2m-1 and columns 0..3m-1, a skewed torus
whose row 2m is row 0 moved m columns on, and the first witness in the scan
order of the whole 6m-by-6m period always lies among them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice
from math import gcd
from typing import NamedTuple

from .core import (
    MultiplicityTable,
    ResidueTuple,
    Triangle,
    Orientation,
    check_modulus,
    check_triangle_size,
    is_balanced,
)
from .errors import InvalidSpec, SteinhausError, TooLarge
from .orbits import AnchorFields, is_periodic_tuple, orbit_rows

# bound on (6m)^2 * n_max * m, positions of the 6m-by-6m period x sizes x residues; the
# scan packs 6m^2 of those positions, and at the bound m = 3 to n_max = 10 288 takes
# 0.09 s, m = 7 to 809 0.05 s (in process, 2 vCPUs, Python 3.11; 0.4 and 0.23 s at 36m^2)
INTERLACED_WORK_LIMIT = 10**7
# bound on n_max(n_max + m): the n_max^2 orbit cells and m residue counts per size that
# ap_balanced_scan reads; at the bound m = 7 to n_max = 1577 takes 0.4 s, 65535 to 38 0.7 s
AP_WORK_LIMIT = 25 * 10**5


def multiplicative_order(a: int, m: int) -> int:
    check_modulus(m)
    a %= m
    if gcd(a, m) != 1:
        raise ValueError(f"{a} is not invertible mod {m}")
    value = a
    order = 1
    while value != 1:
        value = value * a % m
        order += 1
    return order


@dataclass(frozen=True)
class ApFamilySpec:
    """Arithmetic progression start + j*difference mod an odd modulus."""

    modulus: int
    common_difference: int = 1
    start: int = 0

    def __post_init__(self) -> None:
        if self.modulus < 3 or self.modulus % 2 == 0:
            raise InvalidSpec(f"modulus must be odd and >= 3, got {self.modulus}")
        check_modulus(self.modulus)
        if gcd(self.common_difference, self.modulus) != 1:
            raise InvalidSpec(
                f"difference {self.common_difference} is not invertible mod {self.modulus}"
            )

    @property
    def order_factor(self) -> int:
        return multiplicative_order(pow(2, self.modulus, self.modulus), self.modulus)

    @property
    def period(self) -> int:
        return self.order_factor * self.modulus

    def sequence_tuple(self, length: int) -> ResidueTuple:
        m, d, c = self.modulus, self.common_difference, self.start
        return ResidueTuple(m, tuple((c + j * d) % m for j in range(length)))

    def claimed_sizes(self, n_max: int) -> list[int]:
        q = self.period
        return [n for n in range(1, n_max + 1) if n % q == 0 or n % q == q - 1]


class ScanRow(NamedTuple):
    n: int
    balanced: bool
    spread: int


def ap_balanced_scan(spec: ApFamilySpec, n_max: int) -> list[ScanRow]:
    """Balance of the triangle on the first n progression terms for every
    n <= n_max, the cells (i, j), i <= j < n, of one orbit, derived one
    column at a time; raises SteinhausError if any size 0 or -1 mod the
    period (ApFamilySpec.claimed_sizes) is unbalanced."""
    if n_max < 1:
        return []
    m = spec.modulus
    if n_max * (n_max + m) > AP_WORK_LIMIT:
        raise TooLarge(
            f"progression scan up to size {n_max} exceeds the work bound {AP_WORK_LIMIT}"
        )
    counts = [0] * m
    rows = []
    column: list[int] = []  # column n-1 of rows 0..n-1, which completes the size-n triangle
    for n, term in enumerate(spec.sequence_tuple(n_max).entries, 1):
        # cell (i, n-1) is cell (i-1, n-1) + cell (i-1, n-2): the new column from the last
        column = list(accumulate(column, lambda above, left: (above + left) % m, initial=term))
        for cell in column:
            counts[cell] += 1
        table = MultiplicityTable(m, counts)
        rows.append(ScanRow(n, table.balanced, table.spread))
    claimed = set(spec.claimed_sizes(n_max))
    missing = [row.n for row in rows if row.n in claimed and not row.balanced]
    if missing:
        raise SteinhausError(f"claimed sizes without balanced witness: {missing}")
    return rows


def orbit_period_check_mod_m(x: ResidueTuple, q: int) -> bool:
    """True when q derivation steps return the length-q tuple to itself."""
    if len(x) != q:
        raise ValueError("tuple length must equal the candidate period")
    return is_periodic_tuple(x)


def interlaced_entry(j: int, m: int) -> int:
    """Entry j of the interlacing of three arithmetic progressions:
    positions 3k, 3k+1, 3k+2 carry k, -1-2k, 1+k mod m."""
    k, t = divmod(j, 3)
    if t == 0:
        return k % m
    if t == 1:
        return (-1 - 2 * k) % m
    return (1 + k) % m


def interlaced_tuple(m: int, length: int, start: int = 0) -> ResidueTuple:
    return ResidueTuple(m, tuple(interlaced_entry(start + j, m) for j in range(length)))


def _interlaced_orbit_rows(m: int) -> list[tuple[int, ...]]:
    """The 6m rows of the interlaced orbit's fundamental domain mod m."""
    q = 6 * m
    rows = [row.entries for row in islice(orbit_rows(interlaced_tuple(m, q)), q + 1)]
    if rows.pop() != rows[0]:
        raise AssertionError(f"interlaced orbit mod {m} is not {q}-periodic")
    return rows


def interlaced_sequence_check(m: int, n: int, i0: int = 0, j0: int = 0):
    """Balance of the size-n triangle at orbit position (i0, j0) of the
    interlaced sequence mod m, built cell by cell from the 6m-by-6m orbit
    within the size and work bounds."""
    check_triangle_size(n)
    if m < 3 or m % 2 == 0:
        raise InvalidSpec(f"modulus must be odd and >= 3, got {m}")
    q = 6 * m
    if q * q > INTERLACED_WORK_LIMIT:
        raise TooLarge(f"interlaced orbit of modulus {m} exceeds the work bound {INTERLACED_WORK_LIMIT}")
    orbit = _interlaced_orbit_rows(m)
    kind = Orientation.STEINHAUS
    rows = tuple(
        tuple(orbit[(i0 + i) % q][(j0 + j) % q] for j in kind.columns(i, n)) for i in range(n)
    )
    return is_balanced(Triangle(kind, m, rows))


class SizeWitness(NamedTuple):
    n: int
    found: bool
    position: tuple[int, int] | None
    spread: int  # spread at the witness, or the best spread seen


def interlaced_scan(
    m: int, n_max: int, kind: Orientation = Orientation.STEINHAUS
) -> list[SizeWitness]:
    """For each size up to n_max, the first position (i0, then j0) in the
    6m-by-6m period of the interlaced orbit whose triangle has the smallest
    spread.

    The orbit G repeats under (0, 3m), since the three progressions return
    after 3m entries, and under (2m, m): G(i + 2m, j + m) = G(i, j).  Both
    are checked cell by cell on the derived period, so the 6m^2 anchors of
    rows 0..2m-1 and columns 0..3m-1, row 2m being row 0 moved m columns
    on, hold every triangle of the 36m^2.  The first hit in scan order lies
    among them: a hit (i, j) with i >= 2m is the hit (i - 2m, j - m) of an
    earlier row, and one with j >= 3m the hit (i, j - 3m) of the same row.
    Every anchor is a field of one packed count per nonzero residue, grown
    one size at a time; residue 0 fills the cells the other residues leave.
    Raises SteinhausError if a size interlaced_claimed_sizes claims has no
    balanced witness.
    """
    if m < 3 or m % 2 == 0:
        raise InvalidSpec(f"modulus must be odd and >= 3, got {m}")
    q = 6 * m
    if q * q * n_max * m > INTERLACED_WORK_LIMIT:
        raise TooLarge(
            f"interlaced scan of modulus {m} up to size {n_max} exceeds the "
            f"work bound {INTERLACED_WORK_LIMIT}"
        )
    orbit = _interlaced_orbit_rows(m)
    height, width = 2 * m, 3 * m
    for i, row in enumerate(orbit):
        if row[width:] != row[:width] or orbit[(i + height) % q] != row[-m:] + row[:-m]:
            raise AssertionError(
                f"interlaced orbit mod {m} does not repeat under (0, {width}) and ({height}, {m})"
            )
    fields = AnchorFields(height, n_max * (n_max + 1) // 2, width, m)
    grids = [
        [sum((v == x) << j for j, v in enumerate(row[:width])) for row in orbit[:height]]
        for x in range(1, m)
    ]
    residues = [fields.triangle_counts(rows, kind) for rows in grids]  # one-hot, residues 1..m-1
    witnesses = []
    for n in range(1, n_max + 1):
        cells = n * (n + 1) // 2
        totals = [next(counts)[0] for counts in residues]
        high = low = cells * fields.lsb - sum(totals)  # residue 0
        for total in totals:
            high, low = fields.maximum(high, total), fields.minimum(low, total)
        spread, hits = _smallest_field(fields, high - low, cells)
        position = divmod(fields.first(hits), width) if spread <= 1 else None
        # a smallest spread above n_max + 1 is reported as n_max + 2
        witnesses.append(SizeWitness(n, spread <= 1, position, min(spread, n_max + 2)))
    claimed = set(interlaced_claimed_sizes(m, n_max, kind))
    missing = [w.n for w in witnesses if w.n in claimed and not w.found]
    if missing:
        raise SteinhausError(f"claimed sizes without balanced witness: {missing}")
    return witnesses


def _smallest_field(fields: AnchorFields, v: int, most: int) -> tuple[int, int]:
    """The smallest field of v (none exceeds most), by a gallop up from 0 and
    a bisection, with the guard bits of the fields that hold it: those at
    most t, as none is at most t - 1."""
    below, t = -1, 0  # no field is at most below; the gallop stops once one is at most t
    while not (hits := fields.at_most(v, t)):
        below, t = t, min(2 * t + 1, most)
    while t - below > 1:
        mid = (below + t) // 2
        at_mid = fields.at_most(v, mid)
        below, t, hits = (below, mid, at_mid) if at_mid else (mid, t, hits)
    return t, hits


def interlaced_claimed_sizes(
    m: int, n_max: int, kind: Orientation = Orientation.STEINHAUS
) -> list[int]:
    """Sizes the interlaced orbit is claimed to realize: multiples of m and
    sizes -1 mod 3m for Steinhaus; multiples of 3m for Pascal (the other
    Pascal congruence is left unresolved)."""
    if kind is Orientation.STEINHAUS:
        return [
            n
            for n in range(1, n_max + 1)
            if n % m == 0 or n % (3 * m) == 3 * m - 1
        ]
    return [n for n in range(1, n_max + 1) if n % (3 * m) == 0]
