"""The certificates and the oracle count triangles by two separate methods.
The oracle reads one line-count stream per call (search._line_counts), and
check_family reads its corner and band from the cached plane of doubled
grid lines (search._period_plane).  Neither shares the other's counting
code, and no count is memoized: the plane caches the grid's lines and
their whole-line ones, never a triangle's count, so no count passes from
check_family to the oracle, and the oracle never reads the certificate's
two counts.  Steinhaus lines are read from PeriodGrid.columns, the
transposed grid."""

import ast
from pathlib import Path

import pytest

from steinhaus import partition_classes
from steinhaus.orbits import build_period_grid

SEARCH = Path(__file__).resolve().parents[1] / "src" / "steinhaus" / "search.py"


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


@pytest.mark.parametrize("name", ["_line_counts", "_ones_prefix", "triangle_ones", "check_family"])
def test_the_line_counts_are_not_memoized(name):
    assert not _decorator_names(_functions()[name]) & {"lru_cache", "cache", "cached_property"}


def test_the_oracle_never_reads_the_certificate_counts():
    oracle = _functions()["oracle_verify_family"]
    read = {node.attr for node in ast.walk(oracle) if isinstance(node, ast.Attribute)}
    assert "position" in read and not read & {"corner_ones", "band_ones", "corner", "band"}


def _names(function: ast.FunctionDef) -> set[str]:
    return {node.id for node in ast.walk(function) if isinstance(node, ast.Name)}


CERTIFICATE_COUNTS = {"_period_plane", "_staircase"}
ORACLE_COUNTS = {"_ones_prefix", "_line_counts", "_line_masks", "triangle_ones"}


def test_the_certificate_and_the_oracle_count_independently():
    """The oracle and its stream never name the plane, and check_family
    never names the stream, so the two counts stay independent methods."""
    functions = _functions()
    for name in ["oracle_verify_family", *ORACLE_COUNTS]:
        assert not _names(functions[name]) & CERTIFICATE_COUNTS, name
    for name in ["check_family", *CERTIFICATE_COUNTS]:
        assert not _names(functions[name]) & ORACLE_COUNTS, name
    assert "_period_plane" in _names(functions["check_family"])
    assert "_ones_prefix" in _names(functions["oracle_verify_family"])


@pytest.mark.parametrize("p", [12, 24, 36])
def test_columns_are_the_grid_read_down_each_column(p):
    for cls in partition_classes(p):
        grid = build_period_grid(cls.representative)
        cells = [[grid.cell(i, j) for j in range(p)] for i in range(p)]
        assert grid.columns == tuple(sum(cells[i][j] << i for i in range(p)) for j in range(p))
