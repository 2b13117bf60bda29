"""The order-6p^2 symmetry group acting on period-p orbit generators.

Generators: the unit translations of the orbit plane, the 120-degree
rotation r (read off the right side of the triangle on the tuple) and the
reflection i (entry reversal).  Every element has the unique normal form
t(u,v) r^alpha i^beta with the translation applied first; juxtaposition
throughout this module means "left factor acts first", matching the
rewriting rules r t(u,v) = t(v-u, -u) r and i t(u,v) = t(u, u-v) i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import ResidueTuple, build_steinhaus
from .orbits import (
    _derive_bits,
    _reverse_bits,
    _rotl_bits,
    build_period_grid,
    periodic_tuple_bits,
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


# Index maps of the six rotation/reflection parts: the cell (i, j) of the
# orbit of the transformed tuple equals the mapped cell of the original orbit.
_D3_INDEX_MAPS = {
    (0, 0): lambda i, j: (i, j),
    (1, 0): lambda i, j: (j - i, -i - 1),
    (2, 0): lambda i, j: (-j - 1, i - j - 1),
    (0, 1): lambda i, j: (i, i - j - 1),
    (1, 1): lambda i, j: (-j - 1, -i - 1),
    (2, 1): lambda i, j: (j - i, j),
}


def apply(g: GroupElement, x: ResidueTuple) -> ResidueTuple:
    """Image of x under g, read off the period grid of x.

    Requires x to generate a p-periodic orbit (NotPeriodic otherwise).
    Satisfies apply(h, apply(g, x)) == apply(compose(g, h), x).
    """
    grid = build_period_grid(x)
    if g.p != grid.p:
        raise ValueError("group period does not match tuple length")
    index_map = _D3_INDEX_MAPS[(g.alpha, g.beta)]
    out = []
    for j in range(g.p):
        s, t = index_map(0, j)
        out.append(grid.cell(s - g.u, t - g.v))
    return ResidueTuple(2, tuple(out))


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
    triangle = build_steinhaus(x)
    return ResidueTuple(2, tuple(row[-1] for row in triangle.rows))


def reflect_i(x: ResidueTuple) -> ResidueTuple:
    """Reflection: entry reversal; an involution on every tuple."""
    return ResidueTuple(x.modulus, x.entries[::-1])


def _rotate_r_bits(bits: int, p: int) -> int:
    out = 0
    row = bits
    for i in range(p):
        out |= ((row >> (p - 1)) & 1) << i
        row = _derive_bits(row, p)
    return out


def _generator_images(bits: int, p: int) -> tuple[int, int, int, int]:
    # images under t(-1,0) (= derivation), t(0,1) (= cyclic shift), r and i
    return (
        _derive_bits(bits, p),
        _rotl_bits(bits, p),
        _rotate_r_bits(bits, p),
        _reverse_bits(bits, p),
    )


@dataclass(frozen=True)
class OrbitClass:
    """A group orbit inside the p-periodic generators, named by its
    lexicographically smallest member."""

    representative: ResidueTuple
    size: int
    members: tuple[ResidueTuple, ...]


def _class_from_bits(bits_list: list[int], p: int) -> OrbitClass:
    members = sorted(
        (ResidueTuple.from_bits(b, p) for b in bits_list), key=lambda t: t.entries
    )
    return OrbitClass(members[0], len(members), tuple(members))


def group_orbit(x: ResidueTuple) -> OrbitClass:
    """All images of x under the 6p^2 group elements (closure of the four
    generators, each of finite order)."""
    build_period_grid(x)  # NotPeriodic guard
    p = len(x)
    start = x.bits
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for b in frontier:
            for image in _generator_images(b, p):
                if image not in seen:
                    seen.add(image)
                    new.append(image)
        frontier = new
    return _class_from_bits(list(seen), p)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        parent = self.parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


@lru_cache(maxsize=None)
def partition_classes(p: int) -> tuple[OrbitClass, ...]:
    """Partition of the p-periodic generators into group orbits.

    Union-find seeded with the four generator images per tuple gives the
    same partition as full orbits at a fraction of the cost; classes are
    returned sorted by representative.
    """
    bits_list = periodic_tuple_bits(p)
    index = {b: k for k, b in enumerate(bits_list)}
    uf = _UnionFind(len(bits_list))
    for k, b in enumerate(bits_list):
        for image in _generator_images(b, p):
            uf.union(k, index[image])
    components: dict[int, list[int]] = {}
    for k, b in enumerate(bits_list):
        components.setdefault(uf.find(k), []).append(b)
    classes = [_class_from_bits(group, p) for group in components.values()]
    classes.sort(key=lambda c: c.representative.entries)
    return tuple(classes)
