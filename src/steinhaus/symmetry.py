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

partition_classes walks the classes from every kernel coordinate; by those
rules the translations are normal, so it lists a class as their orbits: one
shift cycle, derived layer by layer, per dihedral image of its start.
balanced_classes walks only those whose period is balanced: the balance
plane (_balance_plane), bit-sliced per census block of lanes, marks every
other coordinate visited up front.  Both work at the kernel period q0 of p
(_kernel_space) and repeat each representative p/q0 times.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

from . import census
from .core import ResidueTuple
from .errors import TooLarge
from .orbits import (
    Gf2Matrix,
    _bit_rows,
    _derive_bits,
    _Gf2Map,
    _reverse_bits,
    _rotate,
    build_period_grid,
    check_kernel_dimension,
    gf2_kernel_basis,
    kernel_generator,
    periodic_tuple_bits,  # unused here; perfbench/workloads.py traces it by this name
    systematic_basis,
)

BURNSIDE_PERIOD_LIMIT = 100  # 6p^2 d-by-d ranks: 1.9 s at p = 73 (d = 18)
ORBIT_WORK_LIMIT = 1 << 28  # members x p^2 of _orbit: 14 400 members at p = 120 take 1.3-1.9 s


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
    (-1-u, -1-v), the one down-right from (-u, -v) read backward: r turns one
    direction into the next.  i reads the line backward.  NotPeriodic unless
    x generates a p-periodic orbit.
    Satisfies apply(h, apply(g, x)) == apply(compose(g, h), x).
    """
    grid = build_period_grid(x)
    if g.p != grid.p:
        raise ValueError("group period does not match tuple length")
    i, j, di, dj = ((0, 0, 0, 1), (0, -1, 1, 0), (0, 0, 1, 1))[g.alpha]
    line = grid.line(i - g.u, j - g.v, di, dj)
    if g.beta != (g.alpha == 2):
        line = _reverse_bits(line, grid.p)
    return ResidueTuple.from_bits(line, grid.p)


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
    member says whether vector k is in its sum.  The four generators act
    linearly; ``matrices`` holds their d-by-d matrices as columns, each
    column the coordinates of a basis vector's image, and ``maps`` applies
    them (derivation, shift, r, i), each with two 2^(d/2)-entry XOR tables,
    so callers refuse a large d first (check_kernel_dimension).
    """

    def __init__(self, p: int):
        self.p = p
        self.d = kernel_generator(p)[0]
        self.basis = systematic_basis(p)
        images = [_generator_images(b, p) for b in self.basis]
        self.matrices = tuple([self.coordinates(image[g]) for image in images] for g in range(4))
        self.maps = tuple(_Gf2Map(m) for m in self.matrices)

    def coordinates(self, bits: int) -> int:
        return bits >> (self.p - self.d)

    def images(self, c: int) -> tuple[int, ...]:
        return tuple(g(c) for g in self.maps)

    def orbit(self, start: int, visited: bytearray) -> tuple[int, int]:
        """The class of ``start``, each member computed once and marked in
        ``visited``: its smallest lex key and size.

        The translations T (derivation D = t(-1,0), shift S = t(0,1)) are
        normal (the rewriting rules above), so the class is the union of the
        T-orbits of start, r.start, r^2.start and their i-images, any two
        equal or disjoint: a marked image is skipped (only whole classes are
        ever marked).  A T-orbit is listed in layers: layer 0 is the S-cycle
        of y, layer a+1 is D of layer a, until D^a y is in layer 0; D
        commutes with S and is invertible on the kernel, so earlier layers
        are disjoint.  i reverses the bits, so the lex keys (bits reversed)
        of a class are its members' bits, and the smallest is the tuple of
        the smallest coordinate, its top d bits.
        """
        derive, shift, rotate, reflect = self.maps
        low, high, half, low_mask = derive.low, derive.high, derive.half, derive.low_mask
        size, smallest, turned = 0, start, rotate(start)
        for image in (start, turned, rotate(turned)):
            for y in (image, reflect(image)):
                if visited[y]:
                    continue
                layer, c = [y], shift(y)
                while c != y:
                    layer.append(c)
                    c = shift(c)
                first = set(layer)
                while True:
                    for c in layer:
                        visited[c] = 1
                    size, smallest = size + len(layer), min(smallest, *layer)
                    head = low[layer[0] & low_mask] ^ high[layer[0] >> half]
                    if head in first:
                        break
                    layer = [head] + [low[c & low_mask] ^ high[c >> half] for c in islice(layer, 1, None)]
        key = 0
        for k, vector in enumerate(self.basis):
            if smallest >> k & 1:
                key ^= vector
        return key, size


def _orbit(x: ResidueTuple) -> tuple[ResidueTuple, ...]:
    # closure of x under the four generators (each of finite order), walked
    # bit by bit and sorted by entries
    p, start = len(x), x.bits
    seen, queue = {start}, [start]
    for b in queue:
        if len(seen) * p * p > ORBIT_WORK_LIMIT:
            raise TooLarge(f"orbit of a length-{p} tuple exceeds {ORBIT_WORK_LIMIT} member cells")
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


def _kernel_space(p: int) -> _KernelCoordinates:
    """The p-periodic generators in coordinates at their kernel period q0,
    the least divisor of p with the same kernel dimension d, refused above
    KERNEL_ENUM_LIMIT before anything is built.

    A q0-periodic orbit is p-periodic, so each q0-kernel tuple repeated p/q0
    times is in the p-kernel; repetition is linear and one-to-one, so the
    repeats are all d dimensions of it.  Coordinates are the top d bits,
    which lie in the last q0 entries (d <= q0), so they agree at q0 and p.
    Repetition commutes with derivation, shift, r (the orbit rows repeat, so
    column p-1 reads column q0-1) and i, so each class at p repeats a class
    at q0, of the same size, and its lex-smallest member repeats theirs.  The
    p-by-p period of a repeat holds (p/q0)^2 copies of the q0-by-q0 one, so
    it is balanced exactly when that one is.
    """
    d = check_kernel_dimension(p)
    q0 = next(q for q in range(1, p + 1) if p % q == 0 and kernel_generator(q)[0] == d)
    return _KernelCoordinates(q0)


def _walk(space: _KernelCoordinates, p: int, visited: bytearray) -> tuple[OrbitClass, ...]:
    """One kernel-coordinate walk per class from each coordinate not yet in
    ``visited``, keeping the class's smallest lex key and size and listing
    none of the 2^d tuples.  Classes are sorted by representative, the key
    in space.p binary digits repeated up to period p (_kernel_space)."""
    found = []
    start = visited.find(0)
    while start >= 0:
        found.append(space.orbit(start, visited))
        start = visited.find(0, start + 1)
    found.sort()
    digits, repeats = f"0{space.p}b", p // space.p
    return tuple(OrbitClass(ResidueTuple.from_string(format(k, digits) * repeats), n) for k, n in found)


@lru_cache(maxsize=None)
def partition_classes(p: int) -> tuple[OrbitClass, ...]:
    """Partition of the p-periodic generators into group orbits: the walk
    from every one of the 2^d kernel coordinates at the kernel period."""
    space = _kernel_space(p)
    return _walk(space, p, bytearray(1 << space.d))


def _balance_plane(space: _KernelCoordinates) -> bytearray:
    """The walk's visited array: byte c is 0 when coordinates c have a
    balanced q-by-q period (2 ones = q^2, q = space.p), counted one census
    block of lanes at a time; at odd q none is, and nothing is counted."""
    q, d, half = space.p, space.d, space.p * space.p // 2
    if q & 1:
        return bytearray(b"\1") * (1 << d)
    lanes = min(d, census.LANE_BITS)
    digits, unset = f"0{1 << lanes}b", bytes.maketrans(b"01", b"\1\0")

    def cells(free):  # one row alive at a time, each derived in place
        row = [0] * q
        for plane, vector in zip(free, space.basis):
            for j in range(q):
                if vector >> j & 1:
                    row[j] ^= plane
        for _ in range(q):
            yield from row
            last = row[-1]
            for j in range(q - 1, 0, -1):
                row[j] ^= row[j - 1]
            row[0] ^= last

    visited = bytearray(1 << d)
    for block, free in enumerate(census._free_planes(d)):
        counter = census.bit_sliced_sum(cells(free))
        balanced = 0 if half >> len(counter) else -1  # half > 0 clears the sign
        for i, level in enumerate(counter):
            balanced &= level if half >> i & 1 else ~level
        visited[block << lanes:(block + 1) << lanes] = (
            format(balanced, digits)[::-1].encode().translate(unset)
        )
    return visited


@lru_cache(maxsize=None)
def balanced_classes(p: int) -> tuple[OrbitClass, ...]:
    """The classes of partition_classes(p) whose p-by-p period is balanced:
    the walk from the coordinates the balance plane of the kernel period
    leaves unmarked; balance is group-invariant, so no walk leaves them."""
    space = _kernel_space(p)
    return _walk(space, p, _balance_plane(space))


def burnside_class_count(p: int) -> int:
    """Number of classes by the Cauchy-Frobenius lemma, enumerating no tuple.

    The mean over the 6p^2 elements t(u,v) r^alpha i^beta of 2^dim Fix(g),
    where dim Fix(g) is d minus the GF(2) rank of g - 1 on kernel
    coordinates.  The translations are the powers of derivation (t(-1,0))
    times the powers of the cyclic shift (t(0,1)).
    """
    d = check_kernel_dimension(p)  # before the 2^(d/2)-entry tables of ``maps``
    if p > BURNSIDE_PERIOD_LIMIT:
        raise TooLarge(f"Burnside count at period {p} exceeds {BURNSIDE_PERIOD_LIMIT}")
    if not d:
        return 1  # the zero tuple alone
    derive, shift, rotate, reflect = _KernelCoordinates(p).maps
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
