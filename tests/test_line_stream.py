"""The certificates and the oracle count triangles by two separate methods.
The oracle counts one block of p lines per popcount (search._block_ones)
off a cached plane of repeated grid lines (search._line_plane) and masks
cached per period and multiplier (search._line_masks), and check_family
reads its corner and band from the cached plane of doubled grid lines
(search._period_plane).  Neither shares the other's counting code, and no
count is memoized: each plane caches the grid's lines, masks and (for the
certificates) whole-line ones, never a triangle's count, so no count passes
from check_family to the oracle, and the oracle never reads the
certificate's two counts.  Steinhaus lines are read from
PeriodGrid.columns, the transposed grid.

The reference here is a stream of one popcount per triangle line
(_line_counts); its prefix sums (_ones_prefix) give the ones of every
size, and the block count must equal them at every size it reports."""

import ast
import random
from itertools import accumulate, cycle, islice
from operator import and_
from pathlib import Path

import pytest

from steinhaus import Orientation, partition_classes
from steinhaus.orbits import PeriodGrid, build_period_grid
from steinhaus.search import _block_ones, _line_plane

SEARCH = Path(__file__).resolve().parents[1] / "src" / "steinhaus" / "search.py"


def _line_counts(grid, i0, j0, n, kind):
    """Ones of lines 0..n-1 of the triangles of the given kind anchored at
    orbit position (i0, j0); line t holds the t+1 cells that growing the
    size-t triangle to size t+1 adds, and none depends on the size: for
    Pascal it is orbit row i0+t read from column j0 on, for Steinhaus orbit
    column j0+t read from row i0 on.  Each line is popcounted straight from
    the grid: rotated to the anchor, repeated out to n bits, masked."""
    p = grid.p
    if kind is Orientation.STEINHAUS:
        lines, start, s = grid.columns, j0 % p, i0 % p
    else:
        lines, start, s = grid.rows, i0 % p, j0 % p
    copies = sum(1 << (k * p) for k in range(-(-(s + n) // p)))
    rotated = [(line * copies) >> s for line in (lines[start:] + lines[:start])[:n]]
    return map(int.bit_count, map(and_, islice(cycle(rotated), n), ((2 << t) - 1 for t in range(n))))


def _ones_prefix(grid, i0, j0, n, kind):
    """Entry m is the ones of the size-m triangle of the given kind anchored
    at (i0, j0), for m = 0..n: the prefix sums of one line-count stream."""
    return list(accumulate(_line_counts(grid, i0, j0, n, kind), initial=0))


def _functions() -> dict[str, ast.FunctionDef]:
    tree = ast.parse(SEARCH.read_text(encoding="utf-8"))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def _decorator_names(function: ast.FunctionDef) -> set[str]:
    """Names of the decorators, called or not, by name or as an attribute."""
    names = set()
    for decorator in function.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        names.add(getattr(target, "id", getattr(target, "attr", None)))
    return names


def test_the_decorator_finder_sees_every_spelling():
    source = "@lru_cache(maxsize=2)\n@functools.cache\ndef f():\n    pass\n"
    assert _decorator_names(ast.parse(source).body[0]) == {"lru_cache", "cache"}


@pytest.mark.parametrize("name", ["_block_ones", "check_family"])
def test_the_line_counts_are_not_memoized(name):
    assert not _decorator_names(_functions()[name]) & {"lru_cache", "cache", "cached_property"}


def _attributes(function: ast.FunctionDef) -> set[str]:
    return {getattr(node, "attr", None) for node in ast.walk(function)}


def test_the_oracle_plane_holds_lines_and_masks():
    """The oracle's cached plane takes no anchor and pops no count, so it
    can hold no triangle's count."""
    plane = _functions()["_line_plane"]
    assert [arg.arg for arg in plane.args.args] == ["grid", "kind", "m"]
    assert "bit_count" not in _attributes(plane)


def test_the_oracle_masks_read_no_grid():
    """The oracle's masks depend on the period and the multiplier alone and
    pop no count."""
    masks = _functions()["_line_masks"]
    assert [arg.arg for arg in masks.args.args] == ["p", "m"]
    assert not masks.args.vararg and not masks.args.kwarg and not masks.args.kwonlyargs
    assert "bit_count" not in _attributes(masks)
    assert "_line_masks" in _names(_functions()["_line_plane"])


def test_two_grids_of_one_period_share_the_oracle_masks():
    rng = random.Random(24)
    grids = [PeriodGrid(24, tuple(rng.getrandbits(24) for _ in range(24))) for _ in range(2)]
    for kind in Orientation:
        first, second = (_line_plane(grid, kind, 3) for grid in grids)
        assert first[0] != second[0] and first[1] == second[1] == 72
        assert all(a is b for a, b in zip(first[2:], second[2:])) and len(first) == len(second) == 6


def test_the_oracle_never_reads_the_certificate_counts():
    oracle = _functions()["oracle_verify_family"]
    read = {node.attr for node in ast.walk(oracle) if isinstance(node, ast.Attribute)}
    assert "position" in read and not read & {"corner_ones", "band_ones", "corner", "band"}


def _names(function: ast.FunctionDef) -> set[str]:
    return {node.id for node in ast.walk(function) if isinstance(node, ast.Name)}


CERTIFICATE_COUNTS = {"_period_plane", "_staircase"}
ORACLE_COUNTS = {"_block_ones", "_line_plane", "_line_masks"}


def test_the_certificate_and_the_oracle_count_independently():
    """The oracle and its blocks never name the certificate plane, and
    check_family never names the blocks or their plane, so the two counts
    stay independent methods."""
    functions = _functions()
    for name in ["oracle_verify_family", *ORACLE_COUNTS]:
        assert not _names(functions[name]) & CERTIFICATE_COUNTS, name
    for name in ["check_family", *CERTIFICATE_COUNTS]:
        assert not _names(functions[name]) & ORACLE_COUNTS, name
    assert "_period_plane" in _names(functions["check_family"])
    assert "_block_ones" in _names(functions["oracle_verify_family"])


@pytest.mark.parametrize("p", [12, 24, 36])
def test_columns_are_the_grid_read_down_each_column(p):
    for cls in partition_classes(p):
        grid = build_period_grid(cls.representative)
        cells = [[grid.cell(i, j) for j in range(p)] for i in range(p)]
        assert grid.columns == tuple(sum(cells[i][j] << i for i in range(p)) for j in range(p))


def _block_count_cases(p, rng):
    """(grid, i0, j0, n): up to three class grids of the partition and one
    random grid, at sizes 0, 1, p - 1, p, 3p, 2048 and one drawn from
    p..9p-1, from anchors that include negative ones."""
    grids = [build_period_grid(cls.representative) for cls in partition_classes(p)[:3]]
    grids.append(PeriodGrid(p, tuple(rng.getrandbits(p) for _ in range(p))))
    sizes = [0, 1, p - 1, p, 3 * p, 2048, rng.randrange(p, 9 * p)]
    for grid in grids:
        for n in sizes:
            for i0, j0 in [(0, 0), (-1, -p - 3), (-3 * p + 1, 2 * p - 1),
                           (rng.randrange(-3 * p, 3 * p), rng.randrange(-3 * p, 3 * p))]:
                yield grid, i0, j0, n


@pytest.mark.parametrize("p", [4, 12, 24, 36, 72])
@pytest.mark.parametrize("kind", list(Orientation))
def test_the_block_count_equals_the_line_stream(p, kind):
    """Entry k of _block_ones is the stream's prefix at size n mod p + kp,
    for every k up to n // p."""
    for grid, i0, j0, n in _block_count_cases(p, random.Random(p)):
        assert _block_ones(grid, i0, j0, n, kind) == _ones_prefix(grid, i0, j0, n, kind)[n % p::p], (i0, j0, n)
