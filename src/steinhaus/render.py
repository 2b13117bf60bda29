"""Raster output: PBM/PPM images of orbits and balanced-triangle families.

Images are plain-text netpbm (P1 bitmaps for two residues, P3 pixmaps
otherwise), so outputs are diffable and byte-deterministic.  Triangle cells
and outlines are placed by Orientation.columns, for both kinds alike.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Orientation, ResidueTuple
from .errors import WindowTooLarge
from .orbits import build_period_grid, derive_tuple, is_periodic_tuple
from .search import FamilyCertificate, extract_block

MAX_PIXELS = 16_000_000
OUTLINE_COLOR = (255, 0, 0)
BACKGROUND = (255, 255, 255)


@dataclass(frozen=True)
class RenderSpec:
    """Rendering parameters.

    window is ((i_lo, i_hi), (j_lo, j_hi)) in orbit coordinates, half-open;
    None means one fundamental domain.  overlays lists triangle outlines
    (kind, i0, j0, n) tinted onto orbit renders.
    """

    cell_size: int = 1
    window: tuple[tuple[int, int], tuple[int, int]] | None = None
    overlays: tuple[tuple[Orientation, int, int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.cell_size < 1:
            raise ValueError("cell size must be at least 1")
        if self.window is not None:
            (i_lo, i_hi), (j_lo, j_hi) = self.window
            if i_hi <= i_lo or j_hi <= j_lo:
                raise ValueError("window ranges must be non-empty")


def default_palette(modulus: int) -> dict[int, tuple[int, int, int]]:
    """Residue 0 renders white, the top residue black, the rest evenly gray."""
    if modulus == 2:
        return {0: (255, 255, 255), 1: (0, 0, 0)}
    return {
        x: (round(255 * (1 - x / (modulus - 1))),) * 3 for x in range(modulus)
    }


def _pbm_bytes(pixels: list[list[int]]) -> bytes:
    height = len(pixels)
    width = len(pixels[0])
    lines = [f"P1\n{width} {height}\n"]
    for row in pixels:
        lines.append(" ".join(str(bit) for bit in row) + "\n")
    return "".join(lines).encode("ascii")


def _ppm_bytes(pixels: list[list[tuple[int, int, int]]]) -> bytes:
    height = len(pixels)
    width = len(pixels[0])
    lines = [f"P3\n{width} {height}\n255\n"]
    for row in pixels:
        lines.append(" ".join(f"{r} {g} {b}" for r, g, b in row) + "\n")
    return "".join(lines).encode("ascii")


def _scale(cells: list[list], cell_size: int) -> list[list]:
    if cell_size == 1:
        return cells
    out = []
    for row in cells:
        scaled = [value for value in row for _ in range(cell_size)]
        out.extend([scaled] * cell_size)
    # copy rows so later in-place edits stay independent
    return [list(row) for row in out]


def _check_pixels(width: int, height: int, spec: RenderSpec) -> None:
    if width * height * spec.cell_size * spec.cell_size > MAX_PIXELS:
        raise WindowTooLarge(
            f"{width}x{height} cells at size {spec.cell_size} exceeds the pixel cap"
        )


def _orbit_rows(x: ResidueTuple, i_lo: int, i_hi: int) -> list[tuple[int, ...]]:
    """Rows i_lo..i_hi-1 of the orbit of x.  A p-periodic orbit is entered
    a whole number of periods above i_lo; every row derived to reach the
    window counts against the pixel cap."""
    p = len(x)
    start = i_lo
    # the periodicity check derives p rows: no more than reaching i_lo, and within the cap
    if p <= i_lo and p * p <= MAX_PIXELS and is_periodic_tuple(x):
        start = i_lo % p
    derived = start + i_hi - i_lo
    if derived * p > MAX_PIXELS:
        raise WindowTooLarge(f"deriving {derived} rows of {p} cells exceeds the pixel cap")
    row = x
    for _ in range(start):
        row = derive_tuple(row)
    rows = []
    for _ in range(i_hi - i_lo):
        rows.append(row.entries)
        row = derive_tuple(row)
    return rows


def _overlay_cells(
    overlays, window
) -> set[tuple[int, int]]:
    """Boundary cells of each overlay triangle, in window coordinates."""
    (i_lo, i_hi), (j_lo, j_hi) = window
    marked: set[tuple[int, int]] = set()

    def mark(i: int, j: int) -> None:
        if i_lo <= i < i_hi and j_lo <= j < j_hi:
            marked.add((i - i_lo, j - j_lo))

    for kind, i0, j0, n in overlays:
        for t in range(n):
            columns = kind.columns(t, n)
            # each row's two end cells, and the whole of the row of n cells
            for j in columns if len(columns) == n else (columns[0], columns[-1]):
                mark(i0 + t, j0 + j)
    return marked


def render_orbit(x: ResidueTuple, spec: RenderSpec = RenderSpec()) -> bytes:
    """Raster of an orbit window: rows are iterated derivatives of x, columns
    wrap mod len(x).  PBM for two residues without overlays, PPM otherwise."""
    p = len(x)
    if p == 0:
        raise ValueError("cannot render an empty tuple")
    window = spec.window or ((0, p), (0, p))
    (i_lo, i_hi), (j_lo, j_hi) = window
    if i_lo < 0:
        raise ValueError("row range must start at a non-negative index")
    width, height = j_hi - j_lo, i_hi - i_lo
    _check_pixels(width, height, spec)
    cells = [[row[j % p] for j in range(j_lo, j_hi)] for row in _orbit_rows(x, i_lo, i_hi)]
    if x.modulus == 2 and not spec.overlays:
        return _pbm_bytes(_scale(cells, spec.cell_size))
    palette = default_palette(x.modulus)
    colored = [[palette[value] for value in row] for row in cells]
    for i, j in _overlay_cells(spec.overlays, window):
        colored[i][j] = OUTLINE_COLOR
    return _ppm_bytes(_scale(colored, spec.cell_size))


def _family_outline_pixels(
    kind: Orientation, p: int, r: int, n: int, cell: int
) -> set[tuple[int, int]]:
    """Pixel positions of the block-boundary lines of the size-n triangle
    (one corner block, then one band and one period square per step).  The
    lines are drawn for Steinhaus; a Pascal triangle is the transpose of a
    Steinhaus one, and so is its outline."""
    marked: set[tuple[int, int]] = set()
    for j in range(r if r else p, n, p):
        marked.update((y, j * cell) for y in range(j * cell))
    for i in range(p, n, p):
        marked.update((i * cell, xpx) for xpx in range((i + r) * cell, n * cell))
    if kind is Orientation.PASCAL:
        return {(xpx, y) for y, xpx in marked}
    return marked


def render_family(
    cert: FamilyCertificate, multiplier: int, spec: RenderSpec = RenderSpec()
) -> bytes:
    """Raster of the size-(multiplier*p + r) triangle of a certified family.

    With cell_size >= 3 the block decomposition is outlined in red (the
    lines occupy one pixel strip of the adjacent cells); smaller cells give
    a pure two-color image whose pixel counts equal the residue counts.
    """
    if multiplier < 0:
        raise ValueError("multiplier must be non-negative")
    grid = build_period_grid(cert.generator)
    p = grid.p
    i0, j0 = cert.position
    n = multiplier * p + cert.remainder
    if n == 0:
        raise ValueError("family triangle of size 0 has nothing to render")
    _check_pixels(n, n, spec)
    triangle = extract_block(grid, i0, j0, n, cert.kind)
    draw_outline = spec.cell_size >= 3
    if draw_outline:
        palette, background = default_palette(2), BACKGROUND
    else:
        palette, background = {0: 0, 1: 1}, 0
    cells = [[background] * n for _ in range(n)]
    for i, row in enumerate(triangle.rows):
        for j, value in zip(cert.kind.columns(i, n), row):
            cells[i][j] = palette[value]
    scaled = _scale(cells, spec.cell_size)
    if not draw_outline:
        return _pbm_bytes(scaled)
    for y, xpx in _family_outline_pixels(cert.kind, p, cert.remainder, n, spec.cell_size):
        scaled[y][xpx] = OUTLINE_COLOR
    return _ppm_bytes(scaled)
