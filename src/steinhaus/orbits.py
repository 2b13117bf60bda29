"""Periodic orbits of the pairwise-sum derivation rule.

Deriving a p-periodic sequence yields another p-periodic sequence, so a
p-tuple generates a doubly indexed orbit whose rows are its iterated
derivatives, streamed by orbit_rows.  The orbit is *p-periodic* (vertically
as well) exactly when the tuple lies in the GF(2) kernel of the circulant
matrix of binomial coefficients C(p, .), a cyclic code whose generator
polynomial kernel_generator finds by one gcd; its p-by-p fundamental domain
is a PeriodGrid, whose line rotates a stored row, column or diagonal of it.
Bit-level helpers pack modulus-2 tuples LSB-first into ints.
AnchorFields counts the ones of the triangles at every anchor of a periodic
orbit at once, one bit field per anchor of a packed int, on the grid rows
(family scan) or on one one-hot grid per residue (mod-m scan).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice
from typing import Iterator, NamedTuple, Sequence

from .core import MultiplicityTable, Orientation, ResidueTuple, check_triangle_size
from .errors import EmptyTuple, NotPeriodic, TooLarge

# kernel dimension d above which the span and the partition's 2^d visited array are refused
KERNEL_ENUM_LIMIT = 20
# cells that detect_preperiod may derive and keep, a row counting at least 16: about 0.5 s
PREPERIOD_WORK_LIMIT = 1 << 20
# largest period accepted: its p rows of p bits are derived into a period grid,
# and every generator of a period fits one triangle (core.TRIANGLE_SIZE_LIMIT)
PERIOD_LIMIT = 2048


def check_period(p: int) -> None:
    if p > PERIOD_LIMIT:
        raise TooLarge(f"period {p} exceeds the bound {PERIOD_LIMIT}")


def derive_tuple(x: ResidueTuple) -> ResidueTuple:
    """One derivation step on the period: entry j becomes x[j-1] + x[j] mod m."""
    if len(x) == 0:
        raise EmptyTuple("cannot derive an empty tuple")
    e, m = x.entries, x.modulus
    return ResidueTuple(m, tuple((e[j - 1] + e[j]) % m for j in range(len(e))))


def orbit_rows(x: ResidueTuple) -> Iterator[ResidueTuple]:
    """x, its derivative, its second derivative, ... without end: the rows of
    its orbit, from the one loop that derives a tuple.  Read with islice."""
    while True:
        yield x
        x = derive_tuple(x)


def _rotate(v: int, k: int, bits: int) -> int:
    """The low bits of v rotated k places up."""
    return ((v & (1 << (bits - k)) - 1) << k) | ((v >> (bits - k)) & (1 << k) - 1)


def _derive_bits(bits: int, p: int) -> int:
    return bits ^ _rotate(bits, 1, p)


def _bit_rows(bits: int, p: int) -> Iterator[int]:
    """The p-bit tuple, its derivative, ... without end: the bit-level twin
    of orbit_rows and the one loop that derives bits.  Read with islice."""
    while True:
        yield bits
        bits = _derive_bits(bits, p)


def _reverse_bits(bits: int, p: int) -> int:
    return int(format(bits, f"0{p}b")[::-1], 2)


def binomial_is_odd(n: int, k: int) -> bool:
    """C(n, k) is odd exactly when k is a submask of n."""
    return 0 <= k <= n and (k & n) == k


@lru_cache(maxsize=256)
def binomial_row_mod(n: int, m: int) -> tuple[int, ...]:
    """Row n of the Pascal triangle reduced mod m, built without bignums in
    O(n^2) steps; TooLarge past the triangle size bound."""
    check_triangle_size(n)
    row = (1,)
    for _ in range(n):
        row = (1,) + tuple((row[k] + row[k + 1]) % m for k in range(len(row) - 1)) + (1 % m,)
    return row


@lru_cache(maxsize=65536)
def is_periodic_tuple(x: ResidueTuple) -> bool:
    """True when row p of the orbit of x equals row 0 (vertical period p)."""
    p = len(x)
    if p == 0:
        raise EmptyTuple("periodicity is undefined for an empty tuple")
    return next(islice(orbit_rows(x), p, None)) == x


def orbit_cell(x: ResidueTuple, i: int, j: int) -> int:
    """Cell (i, j) of the orbit generated by the periodic extension of x.

    Row i is expressed directly through row 0 via binomial coefficients:
    a(i, j) = sum_k C(i, k) * x[(j - k) mod p].  The row index is reduced
    mod p only when x is known to generate a p-periodic orbit.
    """
    if i < 0:
        raise ValueError("row index must be non-negative")
    p = len(x)
    if p == 0:
        raise EmptyTuple("orbit of an empty tuple is undefined")
    if i >= p and is_periodic_tuple(x):
        i %= p
    e, m = x.entries, x.modulus
    row = binomial_row_mod(i, m)
    return sum(c * e[(j - k) % p] for k, c in enumerate(row) if c) % m


@dataclass(frozen=True)
class Gf2Matrix:
    """Dense matrix over GF(2); row i is an int with bit j = entry (i, j)."""

    rows: tuple[int, ...]
    cols: int

    def __post_init__(self) -> None:
        mask = (1 << self.cols) - 1
        if any(row & ~mask for row in self.rows):
            raise ValueError("row has bits beyond the declared column count")

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1


def wendt_matrix(p: int) -> Gf2Matrix:
    """The p-by-p circulant of binomial parities whose row 0 is
    (C(p,p), C(p,p-1), ..., C(p,1)) mod 2; row i is its cyclic shift by i.
    Its row-reduced kernel is the reference that systematic_basis is tested
    against."""
    if p < 1:
        raise ValueError("period must be positive")
    check_period(p)
    first = 0
    for j in range(p):
        if binomial_is_odd(p, p - j):
            first |= 1 << j
    mask = (1 << p) - 1
    rows = tuple(((first << i) | (first >> (p - i))) & mask for i in range(p))
    return Gf2Matrix(rows, p)


def gf2_kernel_basis(matrix: Gf2Matrix) -> list[int]:
    """Null-space basis via row reduction, one vector per free column.

    Pivots are chosen leftmost-first and the pivot rows kept fully reduced,
    so the basis is reproducible; vector k has bit 1 at its free column,
    which is its highest set bit, and bit 0 at every other free column.
    """
    pivots: dict[int, int] = {}
    for row in matrix.rows:
        x = row
        for c, prow in pivots.items():
            if (x >> c) & 1:
                x ^= prow
        if not x:
            continue
        c = (x & -x).bit_length() - 1
        for c2, prow in pivots.items():
            if (prow >> c) & 1:
                pivots[c2] = prow ^ x
        pivots[c] = x
    basis = []
    for free in range(matrix.cols):
        if free in pivots:
            continue
        v = 1 << free
        for pc, prow in pivots.items():
            if (prow >> free) & 1:
                v |= 1 << pc
        basis.append(v)
    return basis


def xor_span(vectors: Sequence[int]) -> list[int]:
    """Entry s is the XOR of the vectors[k] whose bit k is set in s."""
    table = [0]
    for v in vectors:
        table += [t ^ v for t in table]
    return table


class _Gf2Map:
    """A GF(2)-linear map on d-bit vectors, given by the images of the d unit
    vectors and applied with two XOR tables: ``low`` spans the first (d+1)//2
    images and is indexed by the low bits of the argument, ``high`` the rest."""

    def __init__(self, columns: list[int]):
        self.half = (len(columns) + 1) // 2
        self.low_mask = (1 << self.half) - 1
        self.low = xor_span(columns[: self.half])
        self.high = xor_span(columns[self.half :])

    def __call__(self, x: int) -> int:
        return self.low[x & self.low_mask] ^ self.high[x >> self.half]


def _gf2_divmod(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of the GF(2)[t] polynomials a and b != 0, bit k
    the coefficient of t^k."""
    q, top = 0, b.bit_length()
    while (shift := a.bit_length() - top) >= 0:
        q |= 1 << shift
        a ^= b << shift
    return q, a


@lru_cache(maxsize=None)
def kernel_generator(p: int) -> tuple[int, int]:
    """The kernel dimension d and the generator h of the p-periodic tuples.

    A tuple is the polynomial x(t) with bit k the coefficient of t^k, taken
    mod t^p + 1: derivation multiplies it by 1 + t, the cyclic shift by t.
    So x generates a p-periodic orbit exactly when f*x = 0, where
    f = (1+t)^p + 1, whose odd binomial coefficients Lucas gives.  That
    kernel is the cyclic code of the multiples of h = (t^p + 1)/g, where
    g = gcd(f, t^p + 1) and d = deg g (Martin, Odlyzko and Wolfram, Commun.
    Math. Phys. 93, 1984; MacWilliams and Sloane, ch. 7).
    """
    if p < 1:
        raise ValueError("period must be positive")
    check_period(p)
    modulus = (1 << p) | 1  # t^p + 1
    g, rest = modulus, sum(1 << k for k in range(1, p + 1) if binomial_is_odd(p, k))
    while rest:  # Euclid, from rest = f
        g, rest = rest, _gf2_divmod(g, rest)[1]
    return g.bit_length() - 1, _gf2_divmod(modulus, g)[0]


def systematic_basis(p: int) -> list[int]:
    """The kernel basis read off h: vector k is t^j + (t^j mod h) for
    j = p-d+k, a multiple of h whose only set bit among the top d is bit j.
    Vector for vector it is gf2_kernel_basis(wendt_matrix(p)), the reduced
    basis with the same free columns p-d .. p-1."""
    d, h = kernel_generator(p)
    basis, low = [], 1 << (p - d)
    remainder = h ^ low  # t^(p-d) mod h
    for k in range(d):
        basis.append(low << k | remainder)
        remainder <<= 1
        if remainder & low:
            remainder ^= h
    return basis


@lru_cache(maxsize=None)
def periodic_tuple_bits(p: int) -> tuple[int, ...]:
    """All bitmasks of p-tuples generating p-periodic orbits (the kernel span).

    Entry c is the tuple whose kernel coordinates are c: the XOR of the
    systematic_basis vectors k with bit k set in c.
    """
    d = kernel_generator(p)[0]
    if d > KERNEL_ENUM_LIMIT:
        raise TooLarge(f"kernel dimension {d} exceeds {KERNEL_ENUM_LIMIT}")
    return tuple(xor_span(systematic_basis(p)))


def enumerate_periodic_tuples(p: int) -> list[ResidueTuple]:
    """The 2^dim tuples whose orbits are p-periodic, in lexicographic order."""
    tuples = [ResidueTuple.from_bits(b, p) for b in periodic_tuple_bits(p)]
    tuples.sort(key=lambda t: t.entries)
    return tuples


@dataclass(frozen=True)
class PeriodGrid:
    """The p-by-p fundamental domain of a p-periodic orbit (modulus 2).

    rows[i] packs orbit row i LSB-first; any cell of the full orbit reduces
    into the grid by taking both indices mod p.
    """

    p: int
    rows: tuple[int, ...]

    def cell(self, i: int, j: int) -> int:
        return (self.rows[i % self.p] >> (j % self.p)) & 1

    def line(self, i: int, j: int, di: int, dj: int) -> int:
        """The p cells (i + k*di, j + k*dj), k = 0..p-1, packed LSB-first: row
        i from column j on (step (0, 1)), column j down from row i (1, 0) or
        the diagonal down-right from (i, j) (1, 1), a stored line rotated."""
        p = self.p
        if (di, dj) == (0, 1):
            return _rotate(self.rows[i % p], -j % p, p)
        if (di, dj) == (1, 0):
            return _rotate(self.columns[j % p], -i % p, p)
        if (di, dj) == (1, 1):
            return _rotate(self.diagonals[(j - i) % p], -i % p, p)
        raise ValueError(f"no stored line has step ({di}, {dj})")

    def row_entries(self, i: int) -> tuple[int, ...]:
        return ResidueTuple.from_bits(self.rows[i % self.p], self.p).entries

    @property
    def cells(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.row_entries(i) for i in range(self.p))

    @cached_property
    def columns(self) -> tuple[int, ...]:
        """columns[j] packs orbit column j LSB-first, bit i the cell (i, j):
        the transposed rows, read as strings (row p-1 first) and zipped."""
        bits = [format(row, f"0{self.p}b") for row in reversed(self.rows)]
        return tuple(int("".join(column), 2) for column in zip(*bits))[::-1]

    @cached_property
    def diagonals(self) -> tuple[int, ...]:
        """diagonals[c] packs the cells (k, k+c) LSB-first, bit k from row k:
        the columns of the rows, row k rotated down by k places."""
        rotated = tuple(_rotate(row, -k % self.p, self.p) for k, row in enumerate(self.rows))
        return PeriodGrid(self.p, rotated).columns

    @cached_property
    def true_period(self) -> int:
        """The least divisor q of p under which a shift of q rows and a shift
        of q columns both leave the grid unchanged."""
        p, first = self.p, self.rows[0]
        divisors = (q for q in range(1, p + 1) if p % q == 0)
        return next(q for q in divisors if self.rows[q % p] == first == _rotate(first, q, p))

    @cached_property
    def ones(self) -> int:
        """Ones in the p-by-p period, counted once per (cached) grid."""
        return sum(row.bit_count() for row in self.rows)

    def multiplicity(self) -> MultiplicityTable:
        return MultiplicityTable(2, (self.p * self.p - self.ones, self.ones))

    def to_json_dict(self) -> dict:
        return {"p": self.p, "cells": [list(self.row_entries(i)) for i in range(self.p)]}


@lru_cache(maxsize=512)
def build_period_grid(x: ResidueTuple) -> PeriodGrid:
    """Fundamental domain of the orbit of x; raises NotPeriodic when row p
    of the orbit differs from row 0."""
    if x.modulus != 2:
        raise ValueError("period grids are defined for modulus 2")
    p = len(x)
    if p == 0:
        raise EmptyTuple("cannot build a grid from an empty tuple")
    check_period(p)
    rows = list(islice(_bit_rows(x.bits, p), p + 1))
    if rows.pop() != rows[0]:
        raise NotPeriodic(f"{x} does not generate a {p}-periodic orbit")
    return PeriodGrid(p, tuple(rows))


class AnchorFields:
    """One count per anchor of a q-periodic orbit, all q^2 of them in one int.

    Anchor (i0, j0) owns the w-bit field i0*q + j0.  Every count the caller
    stores is at most ``max_count`` < 2^(w-1), so no field carries into the
    next and the top (guard) bit of each field is free for the comparisons,
    which SWAR-test every field at once (Warren, Hacker's Delight, ch. 2).
    """

    def __init__(self, q: int, max_count: int):
        self.q = q
        self.w = w = max_count.bit_length() + 1
        self.width, self.row_shift = q * q * w, q * w
        self.pad = "0" * (w - 1)
        self.lsb = int(self.pad + self.pad.join("1" * (q * q)), 2)  # 1 in every field
        self.guard = self.lsb << (w - 1)                           # top bit of every field
        self.below_guard = self.guard - self.lsb                   # 2^(w-1) - 1 in every field
        self.everything = (1 << self.width) - 1
        self.last_column = int(("1" * w + "0" * (self.row_shift - w)) * q, 2)
        self.other_columns = self.everything ^ self.last_column

    def next_column(self, v: int) -> int:
        """Field (i0, j0) takes field (i0, j0+1)."""
        w = self.w
        return ((v >> w) & self.other_columns) | ((v << (self.row_shift - w)) & self.last_column)

    def next_row(self, v: int) -> int:
        """Field (i0, j0) takes field (i0+1, j0)."""
        return (v >> self.row_shift) | ((v << (self.width - self.row_shift)) & self.everything)

    def equal(self, v: int, target: int) -> int:
        """The guard bit of each field of v holding target."""
        return self.guard & ~((v ^ target * self.lsb) + self.below_guard)

    def at_most(self, v: int, target: int) -> int:
        """The guard bit of each field of v holding at most target."""
        return (((target * self.lsb) | self.guard) - v) & self.guard

    def maximum(self, a: int, b: int) -> int:
        """Fieldwise maximum of a and b."""
        ge = ((a | self.guard) - b) & self.guard  # guard bit of each field where a >= b
        keep = ge - (ge >> (self.w - 1))          # the value bits of those fields
        return (a & keep) | (b & ~keep)

    def minimum(self, a: int, b: int) -> int:
        """Fieldwise minimum of a and b: each field of a + b stays below 2^w."""
        return a + b - self.maximum(a, b)

    def first(self, hits: int, di: int = 0, dj: int = 0) -> int:
        """Index i0*q + j0 of the lowest field whose guard bit is set in hits
        once every field (i0, j0) has moved to (i0+di, j0+dj) mod q: the rows
        rotate as one int, then only the lowest non-empty row by dj."""
        q, row_shift = self.q, self.row_shift
        if di % q:
            hits = _rotate(hits, di % q * row_shift, self.width)
        k = ((hits & -hits).bit_length() - 1) // self.w
        if dj % q:
            i = k // q
            row = _rotate(hits >> i * row_shift, dj % q * self.w, row_shift)
            k = i * q + ((row & -row).bit_length() - 1) // self.w
        return k

    def triangle_counts(self, rows: Sequence[int], kind: Orientation) -> Iterator[tuple[int, int]]:
        """Packed (total_n, edge_n) for n = 1, 2, ...: at every anchor, the
        ones of the size-n triangle of the given kind in the orbit whose
        fundamental domain has row i packed LSB-first in rows[i], and of the
        edge of n cells that growing it from size n-1 added.  That edge ends
        at the diagonal cell (i0+n-1, j0+n-1): it is the column above it
        (Steinhaus) or the row left of it (Pascal).  So edge_n is edge_{n-1}
        moved one step along that line plus the grid moved n-1 steps down
        the diagonal, and total_n = total_{n-1} + edge_n.
        """
        along = self.next_column if kind is Orientation.STEINHAUS else self.next_row
        bits = "".join(format(row, f"0{self.q}b") for row in reversed(rows))
        diagonal = edge = total = int(self.pad + self.pad.join(bits), 2)
        while True:
            yield total, edge
            diagonal = self.next_row(self.next_column(diagonal))
            edge = along(edge) + diagonal
            total += edge


class PreperiodReport(NamedTuple):
    preperiod: int
    period: int


def detect_preperiod(x: ResidueTuple) -> PreperiodReport:
    """First repetition among iterated derivatives of x.

    Returns the smallest i1 such that some later i2 repeats the i1-th
    derivative, together with the cycle length i2 - i1.  There are finitely
    many tuples of the given length, but the cycle can be exponentially long:
    TooLarge once the rows derived exceed PREPERIOD_WORK_LIMIT cells.
    """
    if len(x) == 0:
        raise EmptyTuple("cannot iterate an empty tuple")
    max_rows = PREPERIOD_WORK_LIMIT // max(len(x), 16)
    seen: dict[ResidueTuple, int] = {}
    for index, row in enumerate(islice(orbit_rows(x), max_rows + 1)):
        first = seen.setdefault(row, index)
        if first != index:
            return PreperiodReport(first, index - first)
    raise TooLarge(
        f"no repetition among the first {max_rows + 1} derivatives of a length-{len(x)} tuple"
    )
