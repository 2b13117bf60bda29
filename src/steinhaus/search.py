"""Search for infinite families of balanced triangles inside periodic orbits.

A triangle family anchored at position (i0, j0) with remainder r consists of
the triangles of size kp + r for k = 0, 1, 2, ...  Such a family is balanced
for every k exactly when three blocks are balanced: the corner triangle of
size r, the band of cells added by one period step (an even block, so its
two counts must be equal), and the p-by-p period itself.  This holds only
when p is divisible by 4.  The module scans all (position, remainder) pairs
per orbit class at once, each anchor of the class's true period a bit field
of one packed int (orbits.AnchorFields; remainder_set lifts them to p), of
one kind: the Pascal witnesses follow by duality (dual_position).  It
collects the achievable remainders with witnesses, and emits certificates
that an independent oracle re-verifies by counting each triangle straight
from the grid with masked popcounts.  Certificates and the oracle count a
triangle line by line (_line_counts): Pascal line t is grid row i0+t read
from column j0, Steinhaus line t grid column j0+t read from row i0, each
masked to its t+1 cells.  No line depends on the triangle's size, so the
ones of every size up to n are the prefix sums of one stream of n popcounts
(_ones_prefix): a certificate reads its corner and band from one prefix,
the oracle every size kp + r from another of its own.  Both test the counts
against one acceptance rule (_accepts); each grid counts its period's ones
once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, cycle, islice
from operator import and_
from typing import Iterable, Iterator

from .core import (
    TRIANGLE_SIZE_LIMIT,
    MultiplicityTable,
    Orientation,
    ResidueTuple,
    Triangle,
    check_triangle_size,
    is_balanced,
    multiplicity,  # unused here; perfbench/workloads.py traces it as search.multiplicity
)
from .errors import PeriodNotDivisibleBy4, TooLarge, UnbalancedPeriod
from .orbits import AnchorFields, PeriodGrid, build_period_grid
from .symmetry import OrbitClass, partition_classes

# bound on q^3, the packed remainder scan's work at true period q: q <= 256, ~0.5 s and ~45 MB
REMAINDER_WORK_LIMIT = 1 << 24


def extract_block(
    grid: PeriodGrid, i0: int, j0: int, n: int, kind: Orientation
) -> Triangle:
    """The size-n triangle of the given kind anchored at orbit position
    (i0, j0): cells (i0+i, j0+j) for j in kind.columns(i, n), so the anchor
    is the principal vertex of a Steinhaus triangle and the apex of a Pascal one."""
    if n < 0:
        raise ValueError("size must be non-negative")
    p = grid.p
    rows = []
    for i in range(n):
        bits = grid.rows[(i0 + i) % p]
        rows.append(tuple((bits >> ((j0 + j) % p)) & 1 for j in kind.columns(i, n)))
    return Triangle(kind, 2, tuple(rows))


def extract_steinhaus_block(grid: PeriodGrid, i0: int, j0: int, n: int) -> Triangle:
    return extract_block(grid, i0, j0, n, Orientation.STEINHAUS)


def extract_pascal_block(grid: PeriodGrid, i0: int, j0: int, n: int) -> Triangle:
    return extract_block(grid, i0, j0, n, Orientation.PASCAL)


def generator_tuple(x: ResidueTuple, i0: int, j0: int) -> ResidueTuple:
    """Orbit row i0 read from column j0 on, the image of x under t(-i0, -j0);
    its periodic extension generates the Steinhaus triangles anchored there."""
    grid = build_period_grid(x)
    return ResidueTuple.from_bits(grid.line(i0, j0, 0, 1), grid.p)


def pascal_generator_tuples(
    x: ResidueTuple, i0: int, j0: int
) -> tuple[ResidueTuple, ResidueTuple]:
    """Left and right side tuples of the Pascal triangles with apex at (i0, j0):
    the grid lines down the column below it and down the diagonal to its lower
    right, the images of x under t(-i0, -j0-1) r and t(-i0, -j0) r^2 i."""
    grid = build_period_grid(x)
    return tuple(ResidueTuple.from_bits(grid.line(i0, j0, 1, dj), grid.p) for dj in (0, 1))


def dual_position(i0: int, j0: int, r: int, p: int) -> tuple[int, int, int]:
    """Pascal family position dual to the Steinhaus family at (i0, j0, r):
    (i0 + r + 1, j0 + r, s), s = p - 1 - r, without mod-p reduction.  On a
    balanced period the two families are balanced together.  Proof: let S(n)
    be the size-n Steinhaus triangle at (i0, j0), P(n) the Pascal one at the
    dual anchor and T the ones of the period.  On any p-by-p grid,
    (i) ones(S(p+r) - S(r)) + ones(P(p+s) - P(s)) = 2T: the two bands,
    reduced mod p, tile two p-by-p windows; (ii) ones(S(p+r)) + ones(P(s))
    = T + 2 ones(S(r)): S(p+r) and P(s) cover the window at rows i0..,
    columns j0+r.. once and S(r) twice, at (i0, j0) and (i0+p, j0+p).  The
    bands hold 2p^2 cells, so if T = p^2/2, (i) splits the P band evenly
    exactly when it splits the S band.  Then (ii) gives 2 ones(P(s)) -
    s(s+1)/2 = 2 ones(S(r)) - r(r+1)/2: _accepts holds for both or neither.
    """
    if not 0 <= r < p:
        raise ValueError("remainder must lie in 0..p-1")
    return i0 + r + 1, j0 + r, p - 1 - r


def steinhaus_dual_position(i0: int, j0: int, r: int, p: int) -> tuple[int, int, int]:
    """Inverse direction: the Steinhaus family dual to the Pascal family at
    (i0, j0, r) is anchored at (i0 + r - p, j0 + r + 1 - p, p - 1 - r)."""
    if not 0 <= r < p:
        raise ValueError("remainder must lie in 0..p-1")
    return i0 + r - p, j0 + r + 1 - p, p - 1 - r


def _check_period(p: int) -> None:
    if p % 4:
        raise PeriodNotDivisibleBy4(f"period {p} is not divisible by 4")


@dataclass(frozen=True)
class FamilyCertificate:
    """Witness that the triangles of size kp + r anchored at ``position``
    are balanced for every k >= 0: the corner and band ones that _accepts,
    its one acceptance rule, reads.  The period is balanced, as check_family
    raised UnbalancedPeriod otherwise; corner, band, period are views."""

    kind: Orientation
    generator: ResidueTuple
    position: tuple[int, int]
    remainder: int
    corner_ones: int  # ones of the size-r triangle at the anchor
    band_ones: int    # ones of the one-period difference block

    def __post_init__(self) -> None:
        p = len(self.generator)
        r = self.remainder
        _check_period(p)
        if not 0 <= r < p:
            raise ValueError("remainder must lie in 0..p-1")
        if not _accepts(self.corner_ones, self.band_ones, p, r):
            raise ValueError("certificate blocks are not balanced")

    @property
    def p(self) -> int:
        return len(self.generator)

    @property
    def corner(self) -> MultiplicityTable:
        cells = self.remainder * (self.remainder + 1) // 2
        return MultiplicityTable(2, (cells - self.corner_ones, self.corner_ones))

    @property
    def band(self) -> MultiplicityTable:
        return MultiplicityTable(2, (self.band_ones, self.band_ones))  # an even split

    @property
    def period(self) -> MultiplicityTable:
        return MultiplicityTable(2, (self.p * self.p // 2,) * 2)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "generator": str(self.generator),
            "position": list(self.position),
            "remainder": self.remainder,
            "corner_counts": list(self.corner.counts),
            "band_counts": list(self.band.counts),
            "period_counts": list(self.period.counts),
        }


def _family_targets(p: int, r: int) -> tuple[range, int | None]:
    """The one acceptance rule of a family with remainder r: the one-counts
    that balance the size-r corner (|cells - 2 ones| <= 1), and the ones the
    band added by growing it to size p + r must hold to split evenly (None
    when the band has an odd number of cells and cannot split)."""
    corner_cells = r * (r + 1) // 2
    band_cells = p * r + p * (p + 1) // 2
    corner_ones = range(corner_cells // 2, (corner_cells + 1) // 2 + 1)
    return corner_ones, band_cells // 2 if band_cells % 2 == 0 else None


def _accepts(corner: int, band: int, p: int, r: int) -> bool:
    """The family predicate on the ones of the size-r corner and of its band."""
    corner_ones, band_half = _family_targets(p, r)
    return corner in corner_ones and band == band_half


def check_family(
    x: ResidueTuple, i0: int, j0: int, r: int, kind: Orientation
) -> FamilyCertificate | None:
    """Accept iff the size-r corner triangle of the given kind at (i0, j0) is
    balanced and the band added by growing it to size p + r splits evenly
    (the band is rows r..p+r-1 of the size p+r triangle, of either kind);
    returns the certificate of the two counts on acceptance, None on
    rejection, and raises UnbalancedPeriod on an unbalanced period."""
    p = len(x)
    _check_period(p)
    if not 0 <= r < p:
        raise ValueError("remainder must lie in 0..p-1")
    grid = build_period_grid(x)
    if 2 * grid.ones != p * p:
        raise UnbalancedPeriod(f"period of {x} is not balanced")
    ones = _ones_prefix(grid, i0, j0, p + r, kind)
    corner, band = ones[r], ones[p + r] - ones[r]
    if not _accepts(corner, band, p, r):
        return None
    return FamilyCertificate(kind, x, (i0 % p, j0 % p), r, corner, band)


def check_steinhaus_family(
    x: ResidueTuple, i0: int, j0: int, r: int
) -> FamilyCertificate | None:
    return check_family(x, i0, j0, r, Orientation.STEINHAUS)


def check_pascal_family(
    x: ResidueTuple, i0: int, j0: int, r: int
) -> FamilyCertificate | None:
    return check_family(x, i0, j0, r, Orientation.PASCAL)


def family_accepts(
    x: ResidueTuple, i0: int, j0: int, r: int, kind: Orientation = Orientation.STEINHAUS
) -> bool:
    return check_family(x, i0, j0, r, kind) is not None


# _LINE_MASKS[t] = 2^(t+1) - 1 keeps the t+1 cells of line t: one table, grown
# to the largest size counted so far up to TRIANGLE_SIZE_LIMIT, never one per size
_LINE_MASKS = [1]


def _line_masks(n: int) -> Iterable[int]:
    """At least n masks, of lines 0, 1, ...: the table, grown first to
    min(n, TRIANGLE_SIZE_LIMIT) entries, then masks made on the fly."""
    table = _LINE_MASKS
    if len(table) < n:
        table.extend((2 << t) - 1 for t in range(len(table), min(n, TRIANGLE_SIZE_LIMIT)))
        if len(table) < n:
            return chain(table, ((2 << t) - 1 for t in range(len(table), n)))
    return table


def _line_counts(grid: PeriodGrid, i0: int, j0: int, n: int, kind: Orientation) -> Iterator[int]:
    """Ones of lines 0..n-1 of the triangles of the given kind anchored at
    orbit position (i0, j0); line t holds the t+1 cells that growing the
    size-t triangle to size t+1 adds, and none depends on the size: for
    Pascal it is orbit row i0+t read from column j0 on, for Steinhaus orbit
    column j0+t read from row i0 on (the Pascal line of the transposed grid
    with the anchor swapped).  Each line is popcounted straight from the
    grid: rotated to the anchor, repeated out to n bits, masked."""
    p = grid.p
    if kind is Orientation.STEINHAUS:
        lines, start, s = grid.columns, j0 % p, i0 % p
    else:
        lines, start, s = grid.rows, i0 % p, j0 % p
    # enough copies of a line side by side to read bits s..s+n-1 of it at once
    copies = sum(1 << (k * p) for k in range(-(-(s + n) // p)))
    rotated = [(line * copies) >> s for line in (lines[start:] + lines[:start])[:n]]
    return map(int.bit_count, map(and_, islice(cycle(rotated), n), _line_masks(n)))


def _ones_prefix(grid: PeriodGrid, i0: int, j0: int, n: int, kind: Orientation) -> list[int]:
    """Entry m is the ones of the size-m triangle of the given kind anchored
    at (i0, j0), for m = 0..n: the prefix sums of one line-count stream."""
    return list(accumulate(_line_counts(grid, i0, j0, n, kind), initial=0))


def triangle_ones(grid: PeriodGrid, i0: int, j0: int, n: int, kind: Orientation) -> int:
    """Ones in the size-n triangle of the given kind anchored at orbit
    position (i0, j0): the sum of its n line counts (_line_counts), rows
    for Pascal and columns for Steinhaus."""
    if n < 0:
        raise ValueError("size must be non-negative")
    return sum(_line_counts(grid, i0, j0, n, kind))


def check_oracle_size(p: int, max_multiplier: int) -> None:
    """The oracle's size rule: TooLarge when the largest triangle any
    remainder could need, of size max_multiplier*p + p - 1, is too large."""
    check_triangle_size(max_multiplier * p + p - 1)


def oracle_verify_family(cert: FamilyCertificate, max_multiplier: int) -> bool:
    """Independent check of a certificate: for every k up to max_multiplier,
    require the triangle of size kp + r balanced, its ones read from one
    prefix of line counts of length max_multiplier*p + r that this call
    derives afresh from the grid (_ones_prefix).  Reads neither the
    certificate's counts nor the packed counts of the remainder scan.
    Refused by check_oracle_size before any count."""
    if max_multiplier < 1:
        raise ValueError("need at least one multiplier")
    grid = build_period_grid(cert.generator)
    p, r = grid.p, cert.remainder
    check_oracle_size(p, max_multiplier)
    i0, j0 = cert.position
    ones = _ones_prefix(grid, i0, j0, max_multiplier * p + r, cert.kind)
    return all(abs(n * (n + 1) // 2 - 2 * ones[n]) <= 1 for n in range(r, len(ones), p))


@dataclass(frozen=True)
class RemainderSet:
    """Remainders r admitting a balanced family for one class, with the
    first accepting position per remainder (scan order: i0, then j0, then r)."""

    class_rep: ResidueTuple
    kind: Orientation
    p: int
    witnesses: tuple[tuple[int, int, int], ...]  # (remainder, i0, j0)

    @property
    def remainders(self) -> tuple[int, ...]:
        return tuple(w[0] for w in self.witnesses)

    def witness(self, r: int) -> tuple[int, int] | None:
        return next(((i0, j0) for remainder, i0, j0 in self.witnesses if remainder == r), None)

    @property
    def full(self) -> bool:
        return len(self.witnesses) == self.p

    def __len__(self) -> int:
        return len(self.witnesses)


@lru_cache(maxsize=2)  # the callers ask for both kinds of one tuple in turn
def _first_anchors(grid: PeriodGrid) -> dict[Orientation, dict[int, int]]:
    """First accepting anchor i0*p + j0 per achievable remainder of each kind,
    from one Steinhaus scan of all p^2 anchors at once (orbits.AnchorFields).
    The period must be balanced: the Pascal anchors are read by dual_position.

    Past size p, edge_{n+p} is edge_n plus the sum of its whole column, which
    is edge_p moved n columns along; so the band of remainder r (sizes
    r+1..p+r) is total_p plus edge_p moved 1..r columns along.  No count
    exceeds the cells of a band, which stay below 2p^2.
    """
    p = grid.p
    fields = AnchorFields(p, 2 * p * p)
    totals = [0]
    for total, edge in islice(fields.triangle_counts(grid.rows, Orientation.STEINHAUS), p):
        totals.append(total)
    band, line = total, edge  # of size p
    steinhaus, pascal = {}, {}
    for r in range(p):
        if r:
            line = fields.next_column(line)
            band += line
        corner_ones, band_half = _family_targets(p, r)
        if band_half is None:
            continue
        # distinct targets hit disjoint fields, so the sum is the union
        corner = sum(fields.equal(totals[r], ones) for ones in corner_ones)
        hits = fields.equal(band, band_half) & corner
        if hits:
            steinhaus[r] = fields.first(hits)
            di, dj, s = dual_position(0, 0, r, p)
            pascal[s] = fields.first(hits, di, dj)  # every hit moved to its dual anchor
    return {Orientation.STEINHAUS: steinhaus, Orientation.PASCAL: pascal}


def remainder_set(
    x: ResidueTuple, kind: Orientation = Orientation.STEINHAUS
) -> RemainderSet:
    """Every remainder r with a balanced family in the orbit of x, with its
    first accepting anchor in scan order (i0, then j0), lifted from the one
    scan that serves both kinds (_first_anchors) of y = x[:q], q the true
    period: r is in the set exactly when r mod q is in y's, at the same
    anchor.  Proof: at an anchor, each q-step band of a triangle holds one
    q-by-q period more than the one before it, so 2 ones - cells of size
    kq + r' is a polynomial of degree <= 2 in k.  Bounded in {-1, 0, 1} on
    the sizes kp + r = (kp/q + m)q + r', it is constant: they are balanced
    exactly when every size kq + r' is.  (i0, j0) accepts exactly when
    (i0 mod q, j0 mod q) does, which comes no later.  A balanced q is even
    (ones_p = (p/q)^2 ones_q), and for q = 2 (mod 4) every band is odd."""
    p = len(x)
    _check_period(p)
    grid = build_period_grid(x)
    if 2 * grid.ones != p * p:
        raise UnbalancedPeriod(f"period of {x} is not balanced")
    q = grid.true_period
    if q ** 3 > REMAINDER_WORK_LIMIT:
        raise TooLarge(
            f"remainder scan of true period {q} exceeds the work bound {REMAINDER_WORK_LIMIT} on q^3"
        )
    first = _first_anchors(build_period_grid(ResidueTuple(2, x.entries[:q])))[kind]
    witnesses = tuple((r, *divmod(first[r % q], q)) for r in range(p) if r % q in first)
    return RemainderSet(x, kind, p, witnesses)


def balanced_period_classes(p: int) -> tuple[OrbitClass, ...]:
    """Orbit classes whose p-by-p period has equally many zeroes and ones."""
    _check_period(p)
    return tuple(
        cls
        for cls in partition_classes(p)
        if 2 * build_period_grid(cls.representative).ones == p * p
    )


@dataclass(frozen=True)
class ClassFamilySearch:
    index: int  # 1-based position among the balanced-period classes
    class_rep: ResidueTuple
    steinhaus: RemainderSet
    pascal: RemainderSet

    def remainders(self, kind: Orientation) -> RemainderSet:
        return self.steinhaus if kind is Orientation.STEINHAUS else self.pascal


@dataclass(frozen=True)
class SearchReport:
    p: int
    classes: tuple[ClassFamilySearch, ...]

    def remainder_counts(self, kind: Orientation) -> tuple[int, ...]:
        return tuple(len(c.remainders(kind)) for c in self.classes)

    def full_classes(self, kind: Orientation) -> tuple[int, ...]:
        return tuple(c.index for c in self.classes if c.remainders(kind).full)


def full_search(p: int) -> SearchReport:
    """Remainder sets (both kinds) for every balanced-period class of period p."""
    reps = [cls.representative for cls in balanced_period_classes(p)]
    return SearchReport(p, tuple(
        ClassFamilySearch(k + 1, rep, *(remainder_set(rep, kind) for kind in Orientation))
        for k, rep in enumerate(reps)
    ))


def balanced_triangle_of_size(
    report: SearchReport, n: int, kind: Orientation
) -> Triangle:
    """A balanced triangle of size n taken from the first class of the
    report whose remainder set is full; verified by direct count."""
    if n < 1:
        raise ValueError("size must be positive")
    p = report.p
    r = n % p
    for entry in report.classes:
        rset = entry.remainders(kind)
        if not rset.full:
            continue
        i0, j0 = rset.witness(r)
        triangle = extract_block(build_period_grid(entry.class_rep), i0, j0, n, kind)
        if not is_balanced(triangle).balanced:
            raise AssertionError(
                f"family witness produced an unbalanced size-{n} triangle"
            )
        return triangle
    raise ValueError(f"report for p={p} has no class with a full remainder set")
