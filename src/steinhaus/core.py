"""Triangles of residues built with the Pascal local rule.

A Steinhaus triangle is generated downward from its top row, each entry
being the sum of the two entries above it; rows shrink by one.  A
generalized Pascal triangle is determined by its left and right sides
(which share the apex entry) and grows downward by the same rule; the two
kinds differ only in the columns each row covers (Orientation.columns).
Both carry a multiplicity table over Z/m and are *balanced* when the
residue counts differ pairwise by at most one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple

from .errors import MismatchedSides, TooLarge

# largest accepted modulus: bounds every table of m counts and every order loop mod m
MODULUS_LIMIT = 1 << 16
# largest triangle built cell by cell (n(n+1)/2 cells, about a second at the
# limit); at least orbits.PERIOD_LIMIT, so every period's generator fits one triangle
TRIANGLE_SIZE_LIMIT = 2048


def check_modulus(m: int) -> None:
    if m < 2:
        raise ValueError(f"modulus must be at least 2, got {m}")
    if m > MODULUS_LIMIT:
        raise TooLarge(f"modulus {m} exceeds the bound {MODULUS_LIMIT}")


def check_triangle_size(n: int) -> None:
    if n > TRIANGLE_SIZE_LIMIT:
        raise TooLarge(f"triangle of size {n} exceeds the bound {TRIANGLE_SIZE_LIMIT}")


class Orientation(Enum):
    STEINHAUS = "steinhaus"  # apex down
    PASCAL = "pascal"        # apex up

    def columns(self, t: int, n: int) -> range:
        """The columns of row t of a size-n triangle, counted from its anchor:
        t..n-1 for Steinhaus, 0..t for Pascal.  The one definition of the
        triangle shape; a row's entries are stored in this column order."""
        return range(t, n) if self is Orientation.STEINHAUS else range(t + 1)


@dataclass(frozen=True)
class ResidueTuple:
    """A finite tuple of residues mod ``modulus``; may be empty."""

    modulus: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        check_modulus(self.modulus)
        entries = tuple(map(int, self.entries))
        if entries and not 0 <= min(entries) <= max(entries) < self.modulus:
            e = next(e for e in entries if not 0 <= e < self.modulus)
            raise ValueError(f"entry {e} outside 0..{self.modulus - 1}")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_string(cls, text: str, modulus: int = 2) -> "ResidueTuple":
        """Parse ``'010100'`` (one digit per entry) or ``'0,11,3'`` (comma form)."""
        text = text.strip()
        return cls(modulus, text.split(",") if "," in text else text)

    @classmethod
    def from_bits(cls, bits: int, length: int) -> "ResidueTuple":
        """Unpack the low ``length`` bits of an LSB-first bitmask into a modulus-2 tuple."""
        return cls.from_string(format(bits, f"0{length}b")[::-1][:length])

    @property
    def bits(self) -> int:
        """Entries packed LSB-first into an int (modulus 2 only)."""
        if self.modulus != 2:
            raise ValueError("bit packing requires modulus 2")
        return int(str(self)[::-1] or "0", 2)

    def power(self, k: int) -> "ResidueTuple":
        """The tuple concatenated with itself k times."""
        if k < 1:
            raise ValueError("power requires k >= 1")
        return ResidueTuple(self.modulus, self.entries * k)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __getitem__(self, j: int) -> int:
        return self.entries[j]

    def __str__(self) -> str:
        return ("" if self.modulus <= 10 else ",").join(map(str, self.entries))


@dataclass(frozen=True)
class MultiplicityTable:
    """Residue counts of a triangle; spread is the max pairwise difference."""

    modulus: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        counts = tuple(int(c) for c in self.counts)
        if len(counts) != self.modulus:
            raise ValueError("need one count per residue")
        if any(c < 0 for c in counts):
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def spread(self) -> int:
        return max(self.counts) - min(self.counts)

    @property
    def balanced(self) -> bool:
        return self.spread <= 1

    def as_dict(self) -> dict[int, int]:
        return {x: c for x, c in enumerate(self.counts)}

    def __add__(self, other: "MultiplicityTable") -> "MultiplicityTable":
        if self.modulus != other.modulus:
            raise ValueError("modulus mismatch")
        return MultiplicityTable(
            self.modulus, tuple(a + b for a, b in zip(self.counts, other.counts))
        )

    def __sub__(self, other: "MultiplicityTable") -> "MultiplicityTable":
        if self.modulus != other.modulus:
            raise ValueError("modulus mismatch")
        return MultiplicityTable(
            self.modulus, tuple(a - b for a, b in zip(self.counts, other.counts))
        )

    def __mul__(self, k: int) -> "MultiplicityTable":
        return MultiplicityTable(self.modulus, tuple(k * c for c in self.counts))

    __rmul__ = __mul__


@dataclass(frozen=True)
class Triangle:
    """An oriented triangular array of residues, stored row by row.

    Row ``t`` holds the cells at ``orientation.columns(t, size)`` in order,
    so entry ``k`` sits at column ``columns.start + k``: column ``t + k`` of
    the generating sequence for Steinhaus, column ``k`` for Pascal.
    """

    orientation: Orientation
    modulus: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        check_modulus(self.modulus)
        rows = tuple(tuple(int(e) for e in row) for row in self.rows)
        n = len(rows)
        for t, row in enumerate(rows):
            want = len(self.orientation.columns(t, n))
            if len(row) != want:
                raise ValueError(f"row {t} has {len(row)} entries, expected {want}")
            for e in row:
                if not 0 <= e < self.modulus:
                    raise ValueError(f"entry {e} outside 0..{self.modulus - 1}")
        object.__setattr__(self, "rows", rows)

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def cell_count(self) -> int:
        n = self.size
        return n * (n + 1) // 2

    def cells(self) -> Iterator[int]:
        for row in self.rows:
            yield from row

    def obeys_local_rule(self) -> bool:
        """Full scan: every cell (t, j) whose parents (t-1, j-1) and (t-1, j)
        lie in the triangle equals their mod-m sum."""
        n = self.size
        cells = [dict(zip(self.orientation.columns(t, n), row)) for t, row in enumerate(self.rows)]
        return all(
            value == (above[j - 1] + above[j]) % self.modulus
            for above, here in zip(cells, cells[1:])
            for j, value in here.items()
            if j - 1 in above and j in above
        )

    def to_json_dict(self) -> dict:
        return {
            "orientation": self.orientation.value,
            "modulus": self.modulus,
            "size": self.size,
            "rows": [list(row) for row in self.rows],
        }


class BalanceResult(NamedTuple):
    balanced: bool
    spread: int


def build_steinhaus(seed: ResidueTuple) -> Triangle:
    """Steinhaus triangle whose top row is ``seed``; derived rows shrink by one."""
    check_triangle_size(len(seed))
    m = seed.modulus
    rows: list[tuple[int, ...]] = []
    row = seed.entries
    if row:
        rows.append(row)
    while len(row) > 1:
        row = tuple((row[k] + row[k + 1]) % m for k in range(len(row) - 1))
        rows.append(row)
    return Triangle(Orientation.STEINHAUS, m, tuple(rows))


def build_pascal(left: ResidueTuple, right: ResidueTuple) -> Triangle:
    """Generalized Pascal triangle with the given left and right sides.

    Both sides are read from apex to base and must agree on the apex entry.
    """
    if left.modulus != right.modulus:
        raise MismatchedSides("sides use different moduli")
    if len(left) != len(right):
        raise MismatchedSides(f"side lengths differ: {len(left)} vs {len(right)}")
    if len(left) == 0:
        raise MismatchedSides("sides must contain at least the apex entry")
    if left.entries[0] != right.entries[0]:
        raise MismatchedSides("sides disagree on the apex entry")
    check_triangle_size(len(left))
    m = left.modulus
    rows: list[tuple[int, ...]] = [(left.entries[0],)]
    for t in range(1, len(left)):
        prev = rows[-1]
        mid = tuple((prev[k - 1] + prev[k]) % m for k in range(1, t))
        rows.append((left.entries[t],) + mid + (right.entries[t],))
    return Triangle(Orientation.PASCAL, m, tuple(rows))


def multiplicity(triangle: Triangle) -> MultiplicityTable:
    counts = [0] * triangle.modulus
    for e in triangle.cells():
        counts[e] += 1
    return MultiplicityTable(triangle.modulus, tuple(counts))


def is_balanced(triangle: Triangle) -> BalanceResult:
    """Balanced means the residue counts differ pairwise by at most one."""
    table = multiplicity(triangle)
    return BalanceResult(table.balanced, table.spread)


def embed_pascal_in_steinhaus(triangle: Triangle) -> Triangle:
    """The unique Steinhaus triangle of size 2n-1 whose central inverted
    region reproduces the given size-n Pascal triangle.

    Writing the Steinhaus triangle as cells a[i][j] (0 <= i <= j <= 2n-2),
    the center occupies a[i][n-1+k] for 0 <= k <= i <= n-1.  Its bottom row
    is a complete Steinhaus row, so the rows below follow by the local rule
    and the rows above by solving the rule leftward and rightward.
    """
    if triangle.orientation is not Orientation.PASCAL:
        raise ValueError("embedding starts from a Pascal triangle")
    n = triangle.size
    if n == 0:
        raise ValueError("cannot embed an empty triangle")
    m = triangle.modulus
    total = 2 * n - 1
    a = [[0] * total for _ in range(total)]
    for i in range(n):
        for k in range(i + 1):
            a[i][n - 1 + k] = triangle.rows[i][k]
    for i in range(n, total):
        for j in range(i, total):
            a[i][j] = (a[i - 1][j - 1] + a[i - 1][j]) % m
    for i in range(n - 2, -1, -1):
        for j in range(n - 2, i - 1, -1):
            a[i][j] = (a[i + 1][j + 1] - a[i][j + 1]) % m
        for j in range(n + i, total):
            a[i][j] = (a[i + 1][j] - a[i][j - 1]) % m
    rows = tuple(tuple(a[i][i:total]) for i in range(total))
    return Triangle(Orientation.STEINHAUS, m, rows)


def extract_center_pascal(triangle: Triangle) -> Triangle:
    """Inverse of :func:`embed_pascal_in_steinhaus`: read off the central
    inverted region of an odd-size Steinhaus triangle."""
    if triangle.orientation is not Orientation.STEINHAUS:
        raise ValueError("extraction starts from a Steinhaus triangle")
    if triangle.size % 2 == 0:
        raise ValueError("central extraction needs an odd-size triangle")
    n = (triangle.size + 1) // 2
    rows = tuple(
        tuple(triangle.rows[i][n - 1 + k - i] for k in range(i + 1)) for i in range(n)
    )
    return Triangle(Orientation.PASCAL, triangle.modulus, rows)
