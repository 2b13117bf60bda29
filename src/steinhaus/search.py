"""Search for infinite families of balanced triangles inside periodic orbits.

A family anchored at (i0, j0) with remainder r is the triangles of size
kp + r, k = 0, 1, ...; it is balanced for every k exactly when three blocks
are: the size-r corner, the band one period step adds (an even block, so
its two counts must be equal) and the p-by-p period, which needs 4 | p.
full_search reads only the balanced-period classes; one packed scan per
class tests every anchor and remainder at once, one zero test of a miss
word per remainder (_first_anchors), the Pascal witnesses read by duality
(dual_position).  A certificate reads
its corner and band off a plane of doubled grid lines, one cached lookup
keyed on the tuple and kind (_period_plane) that also hands it the
period's targets (_period_targets); the oracle counts every size kp + r
afresh, one popcount per period of lines (_block_ones), off a plane of
the grid's lines and masks cached per (p, m) (_line_masks).  One rule,
_family_targets, tabled once per period, sets what the scan and
check_family accept; the FamilyCertificate constructor accepts what
check_family returns at its anchor, the one check of a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from .core import (
    MultiplicityTable,
    Orientation,
    ResidueTuple,
    Triangle,
    check_triangle_size,
    is_balanced,
    multiplicity,  # unused here; perfbench/workloads.py traces it as search.multiplicity
)
from .errors import PeriodNotDivisibleBy4, TooLarge, UnbalancedPeriod
from .orbits import AnchorFields, PeriodGrid, build_period_grid, true_period
from .symmetry import (
    OrbitClass,
    balanced_classes,
    partition_classes,  # unused here; perfbench/workloads.py traces it as search.partition_classes
)

# bound on q^3, the packed remainder scan's work at true period q: q <= 256, ~0.2 s and ~44 MB
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
    check_triangle_size(n)
    return extract_block(grid, i0, j0, n, Orientation.STEINHAUS)


def extract_pascal_block(grid: PeriodGrid, i0: int, j0: int, n: int) -> Triangle:
    check_triangle_size(n)
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
    s(s+1)/2 = 2 ones(S(r)) - r(r+1)/2: the acceptance rule (_family_targets)
    holds for both or neither.
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
    are balanced for every k >= 0: the corner and band ones that the rule
    accepts there.  The constructor asks check_family, so it refuses what
    check_family refuses, in its order (UnbalancedPeriod on an unbalanced
    period), and any counts but the ones check_family finds at the anchor.
    corner, band, period are views."""

    kind: Orientation
    generator: ResidueTuple
    position: tuple[int, int]
    remainder: int
    corner_ones: int  # ones of the size-r triangle at the anchor
    band_ones: int    # ones of the one-period difference block

    def __post_init__(self) -> None:
        checked = check_family(self.generator, *self.position, self.remainder, self.kind)
        if checked is None or (checked.corner_ones, checked.band_ones) != (self.corner_ones, self.band_ones):
            raise ValueError("certificate blocks are not balanced")

    @classmethod
    def _checked(cls, kind, generator, position, remainder, corner_ones, band_ones) -> FamilyCertificate:
        """The certificate that check_family has just checked, built without
        __post_init__ checking it again; it equals, hashes and prints as the
        one the constructor builds.  It costs more memory than the
        constructor's: tracemalloc puts the 654 witness certificates of
        p = 24 at 125 596 B built here and 90 700 B built by the constructor
        (192 and 139 B each, Python 3.11)."""
        cert = object.__new__(cls)
        fields = cert.__dict__
        fields["kind"], fields["generator"], fields["position"] = kind, generator, position
        fields["remainder"], fields["corner_ones"], fields["band_ones"] = remainder, corner_ones, band_ones
        return cert

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
        """The printed record; its count pairs (zeroes, ones) are those of the corner,
        band and period views.  jsonout.witness_record writes the same record from
        its own template and is tested against this one: change both together."""
        r, corner, band, half = self.remainder, self.corner_ones, self.band_ones, self.p * self.p // 2
        return {
            "kind": self.kind.value,
            "generator": str(self.generator),
            "position": list(self.position),
            "remainder": r,
            "corner_counts": [r * (r + 1) // 2 - corner, corner],
            "band_counts": [band, band],
            "period_counts": [half, half],
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


@lru_cache(maxsize=2)  # the period of one search or scan
def _period_targets(p: int) -> tuple[tuple[range, int | None], ...]:
    """_family_targets(p, r) for every remainder r, built once per period."""
    return tuple(_family_targets(p, r) for r in range(p))


def check_family(
    x: ResidueTuple, i0: int, j0: int, r: int, kind: Orientation
) -> FamilyCertificate | None:
    """The certificate of the size-r corner of the given kind at (i0, j0) and
    of the band that growing it to size p + r adds if the corner is balanced
    and the band splits evenly, else None; raises UnbalancedPeriod on an
    unbalanced period."""
    p = len(x)
    _check_period(p)
    if not 0 <= r < p:
        raise ValueError("remainder must lie in 0..p-1")
    plane, w, stair, whole, targets = _period_plane(x, kind)
    i0, j0 = i0 % p, j0 % p
    start, s = (j0, i0) if kind is Orientation.STEINHAUS else (i0, j0)
    cells = (plane >> (start * w + s)) & stair
    corner = (cells & ((1 << r * w) - 1)).bit_count()
    band = cells.bit_count() + whole[start + r] - whole[start]
    corner_ones, band_half = targets[r]  # the acceptance rule, _family_targets
    if band != band_half or corner not in corner_ones:
        return None
    return FamilyCertificate._checked(kind, x, (i0, j0), r, corner, band)


@lru_cache(maxsize=2)  # both kinds of one period
def _staircase(p: int) -> int:
    """Bits 0..t of row t for t < p, at the stride of _period_plane."""
    size = -(-p // 4)
    return int.from_bytes(b"".join(((2 << t) - 1).to_bytes(size, "little") for t in range(p)), "little")


@lru_cache(maxsize=4)  # one tuple's certificates share it, both kinds in turn
def _period_plane(x: ResidueTuple, kind: Orientation) -> tuple[int, int, int, list[int], tuple]:
    """The p lines of the kind (rows for Pascal, columns for Steinhaus) of
    x's grid, each doubled (line | line << p), stacked twice at stride
    w = 8 ceil(2p/8) bits; w; _staircase(p); the prefix sums of the stacked
    lines' ones; and _period_targets(p).  Shifted down by start*w + s and
    masked, row t is line t of the triangle at that anchor: the size-p
    triangle, its low r rows the size-r corner.  Line p+u of the size-(p+r)
    triangle is line u plus one whole period of line start+u, so the band
    (sizes r+1..p+r) is the size-p triangle plus r whole lines.  Raises as
    build_period_grid, then UnbalancedPeriod, and caches no refusal."""
    grid = build_period_grid(x)
    p = grid.p
    if 2 * grid.ones != p * p:
        raise UnbalancedPeriod(f"period of {x} is not balanced")
    lines = grid.columns if kind is Orientation.STEINHAUS else grid.rows
    size = -(-p // 4)
    plane = b"".join((line | line << p).to_bytes(size, "little") for line in lines)
    whole = list(accumulate(map(int.bit_count, lines * 2), initial=0))
    return int.from_bytes(plane * 2, "little"), 8 * size, _staircase(p), whole, _period_targets(p)


def check_steinhaus_family(
    x: ResidueTuple, i0: int, j0: int, r: int
) -> FamilyCertificate | None:
    return check_family(x, i0, j0, r, Orientation.STEINHAUS)


def check_pascal_family(
    x: ResidueTuple, i0: int, j0: int, r: int
) -> FamilyCertificate | None:
    return check_family(x, i0, j0, r, Orientation.PASCAL)


@lru_cache(maxsize=2)  # one run's oracle asks for one multiplier
def _line_masks(p: int, m: int) -> tuple[int, ...]:
    """The stride w = 8 ceil(mp/8) of p lines repeated m times, and masks
    of p rows at that stride: R, bit 0 of each; D, bit u+1 of row u; D - R;
    R(2^p - 1).  They depend on no grid."""
    size = -(-m * p // 8)
    R = int.from_bytes((1).to_bytes(size, "little") * p, "little")
    D = int.from_bytes(b"".join((2 << u).to_bytes(size, "little") for u in range(p)), "little")
    return 8 * size, R, D, D - R, (R << p) - R


@lru_cache(maxsize=2)  # one grid's witnesses of one kind come in a row
def _line_plane(grid: PeriodGrid, kind: Orientation, m: int) -> tuple[int, ...]:
    """The p lines of the kind (rows for Pascal, columns for Steinhaus), each
    repeated m times, stacked twice at stride w bits, then _line_masks(p, m)."""
    p = grid.p
    lines = grid.columns if kind is Orientation.STEINHAUS else grid.rows
    masks = _line_masks(p, m)
    size = masks[0] // 8
    copies = ((1 << m * p) - 1) // ((1 << p) - 1)
    plane = b"".join((line * copies).to_bytes(size, "little") for line in lines)
    return int.from_bytes(plane * 2, "little"), *masks


def _block_ones(grid: PeriodGrid, i0: int, j0: int, n: int, kind: Orientation) -> list[int]:
    """Entry k is the ones of the size-(r + kp) triangle of the given kind at
    orbit position (i0, j0), r = n mod p.  Line t of a triangle, the t+1
    cells that growing it from size t adds, is orbit row i0+t from column j0
    for Pascal, column j0+t from row i0 for Steinhaus.  Lines c..c+p-1,
    c = r + kp, are the plane's rows at rotation start + r shifted to the
    anchor, row u kept to c+u+1 cells by (D << c) - R, the last mask moved up
    p cells; lines 0..r-1 are the first block's top r rows, cut by D - R."""
    p = grid.p
    start, s = (j0 % p, i0 % p) if kind is Orientation.STEINHAUS else (i0 % p, j0 % p)
    # n//p + 2 copies of a line hold the n cells after any offset s < p
    plane, w, R, D, stair, low = _line_plane(grid, kind, n // p + 2)
    r = n % p
    band = plane >> ((start + r) % p * w + s)
    mask = (D << r) - R
    ones = [((band & mask) >> (p - r) * w & stair).bit_count()]
    for k in range(n // p):
        if k:
            mask = mask << p | low
        ones.append(ones[-1] + (band & mask).bit_count())
    return ones


def check_oracle_size(p: int, max_multiplier: int) -> None:
    """The oracle's size rule: TooLarge when the largest triangle any
    remainder could need, of size max_multiplier*p + p - 1, is too large."""
    check_triangle_size(max_multiplier * p + p - 1)


def oracle_verify_family(cert: FamilyCertificate, max_multiplier: int) -> bool:
    """Independent check of a certificate: for every k up to max_multiplier,
    require the triangle of size kp + r balanced, its ones counted afresh
    from the grid (_block_ones).  Reads neither the certificate's counts nor
    the packed counts of the remainder scan.  Refused by check_oracle_size
    before any count."""
    if max_multiplier < 1:
        raise ValueError("need at least one multiplier")
    grid = build_period_grid(cert.generator)
    p, r = grid.p, cert.remainder
    check_oracle_size(p, max_multiplier)
    i0, j0 = cert.position
    n = r
    for ones in _block_ones(grid, i0, j0, max_multiplier * p + r, cert.kind):
        if abs(n * (n + 1) // 2 - 2 * ones) > 1:
            return False
        n += p
    return True


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


@lru_cache(maxsize=4)  # the few true periods of one search
def _anchor_fields(q: int) -> AnchorFields:
    """The packed layout of the q-by-q scan: no count exceeds the cells of a
    band, which stay below 2q^2."""
    return AnchorFields(q, 2 * q * q)


@lru_cache(maxsize=2)  # the callers ask for both kinds of one tuple in turn
def _first_anchors(grid: PeriodGrid) -> dict[Orientation, dict[int, int]]:
    """First accepting anchor i0*p + j0 per achievable remainder of each kind,
    from one Steinhaus scan of all p^2 anchors at once (orbits.AnchorFields,
    one layout per period).  The period must be balanced: the Pascal anchors
    are read by dual_position.

    The counting pass keeps the miss word of each corner (AnchorFields.miss),
    not its count.  The band of remainder r is total_p plus r whole lines
    (_period_plane): edge_p, the whole column j0+p-1, moved 1..r columns
    along.  Each remainder ORs in its band's miss word and asks the fields
    one question (AnchorFields.hits), whether its corner and its band both
    hold counts _family_targets accepts.
    """
    p = grid.p
    fields = _anchor_fields(p)
    targets = _period_targets(p)
    corner_misses, total = [], 0  # total_r, of the size-r corner at every anchor
    for (corner_ones, _), (grown, edge) in zip(
        targets, fields.triangle_counts(grid.rows, Orientation.STEINHAUS)
    ):
        corner_misses.append(fields.miss(total, corner_ones))
        total = grown
    band, line = total, edge  # of size p
    steinhaus, pascal = {}, {}
    for r, (_, band_half) in enumerate(targets):
        if r:
            line = fields.next_column(line)
            band += line
        if band_half is None:
            continue
        hits = fields.hits(corner_misses[r] | fields.miss(band, range(band_half, band_half + 1)))
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
    (i0 mod q, j0 mod q) does, which comes no later.

    No family exists unless 8 divides q, so no other q is scanned.  Proof
    (band parity): in R = GF(2)[t]/(t^q + 1) cell (i, j) of the orbit is the
    coefficient of t^j in (1+t)^i y, so the ones of a shape at (i0, j0)
    have the parity of the coefficient of t^j0 in (1+t)^i0 S y, S the sum of
    t^-b (1+t)^a over its cells (a, b).  y is a multiple of h, where
    g h = t^q + 1 and g = gcd((1+t)^q + 1, t^q + 1); so a shape is even
    everywhere when g | S.  Mod g, t^q = (1+t)^q = 1, and t, 1+t are units
    (g(1) = 1), so any q consecutive powers of u = 1 + t^-1, t^-1 or 1 + t
    sum to 0, u - 1 being a unit too.  The Steinhaus band (cells a <= b,
    r <= b < q + r) has S = sum of u^m for u = 1 + t^-1 and u = t^-1,
    m = r+1..q+r; the Pascal band (b <= a, r <= a < q + r) has
    S = t/(1+t) (t^-1 sum of (1 + t^-1)^a + sum of (1+t)^a), a = r..q+r-1.
    Both are 0 mod g, so every band holds an even number of ones, while a
    family's band holds half of its q r + q(q+1)/2 cells: a count of cells
    that is odd for q = 2 (mod 4) and 2 (mod 4) for q = 4 (mod 8), so its
    half is never even.  A balanced q is even (ones_p = (p/q)^2 ones_q)."""
    p = len(x)
    _check_period(p)
    grid = _true_period_grid(x)
    q = grid.p
    if 2 * grid.ones != q * q:
        raise UnbalancedPeriod(f"period of {x} is not balanced")
    if q ** 3 > REMAINDER_WORK_LIMIT:
        raise TooLarge(f"remainder scan of true period {q} exceeds the work bound "
                       f"{REMAINDER_WORK_LIMIT} on q^3")
    if q % 8:
        return RemainderSet(x, kind, p, ())
    first = _first_anchors(grid)[kind]
    witnesses = tuple((r, *divmod(first[r % q], q)) for r in range(p) if r % q in first)
    return RemainderSet(x, kind, p, witnesses)


@lru_cache(maxsize=512)  # as build_period_grid: the filter and both scans share one per class
def _true_period_grid(x: ResidueTuple) -> PeriodGrid:
    """The grid of x[:q], q = true_period(x), balanced exactly when x's grid
    is; keyed by x itself when q = p, so later lookups of x hit by identity."""
    q = true_period(x)
    return build_period_grid(x if q == len(x) else ResidueTuple(2, x.entries[:q]))


def balanced_period_classes(p: int) -> tuple[OrbitClass, ...]:
    """Orbit classes whose p-by-p period has equally many zeroes and ones,
    sorted by representative as partition_classes(p) is; only their orbits
    are walked.  The classes are those of the balanced walk
    (symmetry.balanced_classes), which reads balance off a bit-sliced plane
    over the kernel coordinates; each one's true-period grid counts its
    ones again as a cross-check of that plane."""
    _check_period(p)
    classes = balanced_classes(p)
    for cls in classes:
        grid = _true_period_grid(cls.representative)
        if 2 * grid.ones != grid.p * grid.p:
            raise AssertionError(f"balance plane admitted the unbalanced class {cls.representative}")
    return classes


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
    """Remainder sets (both kinds) for every balanced-period class of period p:
    the balance filter (balanced_period_classes), then remainder_set per class
    and kind, all reading one cached true-period grid per class."""
    return SearchReport(p, tuple(
        ClassFamilySearch(k + 1, cls.representative, *(
            remainder_set(cls.representative, kind) for kind in Orientation
        ))
        for k, cls in enumerate(balanced_period_classes(p))
    ))


def balanced_triangle_of_size(
    report: SearchReport, n: int, kind: Orientation
) -> Triangle:
    """A balanced triangle of size n, within the size bound, taken from the
    first class of the report whose remainder set is full; verified by direct count."""
    if n < 1:
        raise ValueError("size must be positive")
    check_triangle_size(n)
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
