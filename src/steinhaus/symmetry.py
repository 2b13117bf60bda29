"""The order-6p^2 symmetry group acting on period-p orbit generators.

Generators: the unit translations of the orbit plane (t(-1,0) derives the
tuple, t(0,1) shifts it cyclically), the 120-degree rotation r (read off the
right side of the triangle on the tuple) and the reflection i (entry
reversal).  group_orbit and the kernel-coordinate partition act through
these four bit maps; they are GF(2)-linear on the kernel, so the partition
never lists the 2^d periodic tuples.  apply reads an image as one line of
the period grid: a row, a column or a diagonal, one direction per power of
r, read backward under i.  Every element has the unique normal form
t(u,v) r^alpha i^beta with the translation applied first; juxtaposition
throughout this module means "left factor acts first", matching the
rewriting rules r t(u,v) = t(v-u, -u) r and i t(u,v) = t(u, u-v) i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice

from .core import ResidueTuple
from .errors import TooLarge
from .orbits import (
    KERNEL_ENUM_LIMIT,
    Gf2Matrix,
    _bit_rows,
    _derive_bits,
    _Gf2Map,
    _reverse_bits,
    _rotate,
    build_period_grid,
    gf2_kernel_basis,
    kernel_generator,
    periodic_tuple_bits,  # unused here; perfbench/workloads.py traces it by this name
    systematic_basis,
)


@dataclass(frozen=True)
class GroupElement:
    """Normal form t(u,v) r^alpha i^beta for the group acting on p-tuples."""

    p: int
    u: int
    v: int
    alpha: int = 0
    beta: int = 0

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError("period must be positive")
        object.__setattr__(self, "u", self.u % self.p)
        object.__setattr__(self, "v", self.v % self.p)
        object.__setattr__(self, "alpha", self.alpha % 3)
        object.__setattr__(self, "beta", self.beta % 2)

    @classmethod
    def identity(cls, p: int) -> "GroupElement":
        return cls(p, 0, 0, 0, 0)

    @classmethod
    def translation(cls, p: int, u: int, v: int) -> "GroupElement":
        return cls(p, u, v, 0, 0)

    @classmethod
    def rotation(cls, p: int) -> "GroupElement":
        return cls(p, 0, 0, 1, 0)

    @classmethod
    def reflection(cls, p: int) -> "GroupElement":
        return cls(p, 0, 0, 0, 1)

    def __str__(self) -> str:
        return f"t({self.u},{self.v})r^{self.alpha}i^{self.beta}"


def _push_through_rotation(u: int, v: int, alpha: int) -> tuple[int, int]:
    # translation coordinates after moving left through r^alpha
    if alpha == 1:
        return v - u, -u
    if alpha == 2:
        return -v, u - v
    return u, v


def _push_through_reflection(u: int, v: int, beta: int) -> tuple[int, int]:
    return (u, u - v) if beta else (u, v)


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    """Normal form of the word g.h (g acts first, then h)."""
    if g.p != h.p:
        raise ValueError("elements belong to different groups")
    u, v = _push_through_reflection(h.u, h.v, g.beta)
    u, v = _push_through_rotation(u, v, g.alpha)
    if g.beta == 0:
        alpha = g.alpha + h.alpha
    else:
        alpha = g.alpha - h.alpha
    return GroupElement(g.p, g.u + u, g.v + v, alpha, g.beta ^ h.beta)


def inverse(g: GroupElement) -> GroupElement:
    gamma = (-g.alpha) % 3
    u, v = _push_through_rotation(-g.u, -g.v, gamma)
    u, v = _push_through_reflection(u, v, g.beta)
    alpha = g.alpha if g.beta else gamma
    return GroupElement(g.p, u, v, alpha, g.beta)


def apply(g: GroupElement, x: ResidueTuple) -> ResidueTuple:
    """Image of x under g = t(u,v) r^alpha i^beta: one line of the period grid
    of x (PeriodGrid.line).  For alpha = 0, 1, 2 it is row -u from column -v
    on, column -1-v down from row -u, or the diagonal up-left from
    (-1-u, -1-v): r turns one direction into the next.  i reads the line
    backward.  NotPeriodic unless x generates a p-periodic orbit.
    Satisfies apply(h, apply(g, x)) == apply(compose(g, h), x).
    """
    grid = build_period_grid(x)
    if g.p != grid.p:
        raise ValueError("group period does not match tuple length")
    i, j, di, dj = ((0, 0, 0, 1), (0, -1, 1, 0), (-1, -1, -1, -1))[g.alpha]
    i, j = i - g.u, j - g.v
    if g.beta:  # the same cells from the last one back
        i, j, di, dj = i - di, j - dj, -di, -dj
    return ResidueTuple.from_bits(grid.line(i, j, di, dj), grid.p)


def translate(x: ResidueTuple, u: int, v: int) -> ResidueTuple:
    """Translate the orbit of x by (u, v): entry j becomes cell (-u, j-v)."""
    return apply(GroupElement.translation(len(x), u, v), x)


def rotate_r(x: ResidueTuple) -> ResidueTuple:
    """Rotation by 120 degrees: the right side of the triangle on x.

    Defined for every modulus-2 tuple (rotating a triangle preserves the
    local rule only when addition equals subtraction); on p-periodic
    generators it permutes them, and r applied three times is the identity.
    """
    if x.modulus != 2:
        raise ValueError("triangle rotation is defined for modulus 2 only")
    return ResidueTuple.from_bits(_rotate_r_bits(x.bits, len(x)), len(x))


def reflect_i(x: ResidueTuple) -> ResidueTuple:
    """Reflection: entry reversal; an involution on every tuple."""
    return ResidueTuple(x.modulus, x.entries[::-1])


def _rotate_r_bits(bits: int, p: int) -> int:
    # column p-1 of orbit rows 0..p-1, read downward
    return sum(((row >> (p - 1)) & 1) << i for i, row in enumerate(islice(_bit_rows(bits, p), p)))


def _generator_images(bits: int, p: int) -> tuple[int, int, int, int]:
    # images under t(-1,0) (= derivation), t(0,1) (= cyclic shift), r and i
    return (
        _derive_bits(bits, p),
        _rotate(bits, 1, p),
        _rotate_r_bits(bits, p),
        _reverse_bits(bits, p),
    )


class _KernelCoordinates:
    """The p-periodic generators in kernel coordinates.

    The coordinates of a tuple are its top d bits, bits >> (p - d), by
    construction: basis vector k of systematic_basis has bit p-d+k as its
    only set bit among the top d, so bit k of the coordinates of a kernel
    member says whether vector k is in its sum.  Only d is read up front;
    the basis is built on first use, so a refused d builds nothing.
    The four generators act linearly; ``matrices`` holds their d-by-d
    matrices as columns, each column the coordinates of a basis vector's
    image.  ``step`` packs them into one map; both are built on first use.
    Field g (d bits each) of step(c) is the image of c under generator g,
    and the bits above 4d are the lex key of c, its tuple's bits reversed,
    which orders tuples as their entries do.
    """

    def __init__(self, p: int):
        self.p = p
        self.d = kernel_generator(p)[0]

    @cached_property
    def basis(self) -> list[int]:
        return systematic_basis(self.p)

    @cached_property
    def matrices(self) -> tuple[list[int], ...]:
        images = [_generator_images(b, self.p) for b in self.basis]
        return tuple([self.coordinates(image[g]) for image in images] for g in range(4))

    @cached_property
    def step(self) -> _Gf2Map:
        keys = [_reverse_bits(b, self.p) for b in self.basis]
        return _Gf2Map([
            sum(column << (g * self.d) for g, column in enumerate(columns))
            for columns in zip(*self.matrices, keys)
        ])

    def coordinates(self, bits: int) -> int:
        return bits >> (self.p - self.d)

    def images(self, c: int) -> tuple[int, int, int, int]:
        packed, mask = self.step(c), (1 << self.d) - 1
        return tuple((packed >> (g * self.d)) & mask for g in range(4))

    def orbit(self, start: int, visited: bytearray) -> tuple[list[int], int]:
        """Breadth-first closure of ``start`` under the four generators:
        the members' coordinates, each marked in ``visited``, and the
        smallest lex key among them."""
        d, mask, key_shift = self.d, (1 << self.d) - 1, 4 * self.d
        step = self.step
        low, high, half, low_mask = step.low, step.high, step.half, step.low_mask
        best = 1 << self.p
        visited[start] = 1
        queue = [start]
        for c in queue:
            packed = low[c & low_mask] ^ high[c >> half]
            if packed >> key_shift < best:
                best = packed >> key_shift
            for x in (packed & mask, (packed >> d) & mask, (packed >> 2 * d) & mask,
                      (packed >> 3 * d) & mask):
                if not visited[x]:
                    visited[x] = 1
                    queue.append(x)
        return queue, best


def _orbit(x: ResidueTuple) -> tuple[ResidueTuple, ...]:
    # closure of x under the four generators (each of finite order), walked
    # bit by bit and sorted by entries
    p, start = len(x), x.bits
    seen, queue = {start}, [start]
    for b in queue:
        for image in _generator_images(b, p):
            if image not in seen:
                seen.add(image)
                queue.append(image)
    return tuple(sorted((ResidueTuple.from_bits(b, p) for b in seen), key=lambda t: t.entries))


@dataclass(frozen=True)
class OrbitClass:
    """A group orbit inside the p-periodic generators, named by its
    lexicographically smallest member; ``members`` walks the orbit from it."""

    representative: ResidueTuple
    size: int

    @property
    def members(self) -> tuple[ResidueTuple, ...]:
        return _orbit(self.representative)


def group_orbit(x: ResidueTuple) -> OrbitClass:
    """All images of x under the 6p^2 group elements, computed bit by bit:
    the reference that the kernel-coordinate partition is tested against."""
    build_period_grid(x)  # NotPeriodic guard
    members = _orbit(x)
    return OrbitClass(members[0], len(members))


@lru_cache(maxsize=None)
def partition_classes(p: int) -> tuple[OrbitClass, ...]:
    """Partition of the p-periodic generators into group orbits.

    One kernel-coordinate walk per class over a visited array of the 2^d
    coordinates keeps the class's smallest lex key and size, and lists none
    of the 2^d tuples.  Classes are sorted by representative.
    """
    space = _KernelCoordinates(p)
    if space.d > KERNEL_ENUM_LIMIT:  # before ``step`` builds its 2^(d/2)-entry tables
        raise TooLarge(f"kernel dimension {space.d} exceeds {KERNEL_ENUM_LIMIT}")
    visited = bytearray(1 << space.d)
    found = []
    start = 0
    while start >= 0:
        orbit, key = space.orbit(start, visited)
        found.append((key, len(orbit)))
        start = visited.find(0, start + 1)
    found.sort()
    return tuple(OrbitClass(ResidueTuple.from_bits(_reverse_bits(k, p), p), n) for k, n in found)


def burnside_class_count(p: int) -> int:
    """Number of classes by the Cauchy-Frobenius lemma, enumerating no tuple.

    The mean over the 6p^2 elements t(u,v) r^alpha i^beta of 2^dim Fix(g),
    where dim Fix(g) is d minus the GF(2) rank of g - 1 on kernel
    coordinates.  The translations are the powers of derivation (t(-1,0))
    times the powers of the cyclic shift (t(0,1)).
    """
    space = _KernelCoordinates(p)
    d = space.d
    derive, shift, rotate, reflect = (_Gf2Map(m) for m in space.matrices)
    unit = [1 << k for k in range(d)]
    dihedral = []  # r^alpha i^beta, acting after the translation
    rotated = unit
    for _ in range(3):
        dihedral += [_Gf2Map(rotated), _Gf2Map([reflect(c) for c in rotated])]
        rotated = [rotate(c) for c in rotated]
    total = 0
    derived = unit
    for _ in range(p):
        translation = derived
        for _ in range(p):
            for g in dihedral:
                fixed = [g(c) ^ e for c, e in zip(translation, unit)]
                total += 1 << len(gf2_kernel_basis(Gf2Matrix(tuple(fixed), d)))
            translation = [shift(c) for c in translation]
        derived = [derive(c) for c in derived]
    count, rest = divmod(total, 6 * p * p)
    if rest:
        raise AssertionError(f"fixed points at p={p} do not average to an integer")
    return count
