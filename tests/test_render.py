import csv
import hashlib
from pathlib import Path

import pytest

from expected_values import ORBIT_010100, CLASS9_REP

from steinhaus.cli import main
from steinhaus import (
    Orientation,
    RenderSpec,
    ResidueTuple,
    WindowTooLarge,
    check_pascal_family,
    check_steinhaus_family,
    render_family,
    render_orbit,
)

R = ResidueTuple.from_string


def _parse_pbm(data: bytes):
    tokens = data.decode("ascii").split()
    assert tokens[0] == "P1"
    width, height = int(tokens[1]), int(tokens[2])
    bits = [int(t) for t in tokens[3:]]
    assert len(bits) == width * height
    return width, height, bits


def _parse_ppm(data: bytes):
    tokens = data.decode("ascii").split()
    assert tokens[0] == "P3" and tokens[3] == "255"
    width, height = int(tokens[1]), int(tokens[2])
    values = [int(t) for t in tokens[4:]]
    assert len(values) == 3 * width * height
    pixels = [tuple(values[k : k + 3]) for k in range(0, len(values), 3)]
    return width, height, pixels


def test_orbit_render_is_pbm_with_exact_ones(rep9):
    data = render_orbit(rep9)
    width, height, bits = _parse_pbm(data)
    assert (width, height) == (24, 24)
    assert sum(bits) == 288


def test_all_zero_orbit_renders_white():
    data = render_orbit(R("000000"))
    _, _, bits = _parse_pbm(data)
    assert sum(bits) == 0


def test_orbit_window_wraps_like_the_grid():
    spec = RenderSpec(window=((0, 12), (0, 18)))
    width, height, bits = _parse_pbm(render_orbit(R("010100"), spec))
    assert (width, height) == (18, 12)
    for i in range(12):
        row = bits[i * 18 : (i + 1) * 18]
        expected = [int(ORBIT_010100[i % 6][j % 6]) for j in range(18)]
        assert row == expected


def test_orbit_render_accepts_non_periodic_tuples():
    width, height, bits = _parse_pbm(render_orbit(R("10"), RenderSpec(window=((0, 3), (0, 2)))))
    # rows: 10 / 11 / 00, derived with wraparound
    assert bits == [1, 0, 1, 1, 0, 0]


def test_cell_size_scaling():
    spec = RenderSpec(cell_size=3)
    width, height, bits = _parse_pbm(render_orbit(R("010100"), spec))
    assert (width, height) == (18, 18)
    assert sum(bits) == 9 * 18


def test_mod_m_orbit_renders_ppm():
    x = ResidueTuple(3, (0, 1, 2, 0, 1, 2))
    width, height, pixels = _parse_ppm(render_orbit(x))
    assert (width, height) == (6, 6)
    assert pixels[0] == (255, 255, 255)
    assert {p for p in pixels} <= {(255, 255, 255), (128, 128, 128), (0, 0, 0)}


def test_orbit_overlay_marks_triangle_border():
    spec = RenderSpec(overlays=((Orientation.STEINHAUS, 0, 0, 3),))
    width, height, pixels = _parse_ppm(render_orbit(R("010100"), spec))
    red = (255, 0, 0)
    for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
        assert pixels[i * 6 + j] == red
    assert pixels[3 * 6 + 0] != red  # outside the outline


def test_determinism():
    spec = RenderSpec(cell_size=2)
    a = render_orbit(R(CLASS9_REP), spec)
    b = render_orbit(R(CLASS9_REP), spec)
    assert a == b


def test_family_render_counts(rep9):
    cert = check_steinhaus_family(rep9, 6, 9, 6)
    data = render_family(cert, 2)
    width, height, bits = _parse_pbm(data)
    assert (width, height) == (54, 54)
    # the size-54 member of the family is balanced: 1485 cells, 742 ones
    assert sum(bits) == 742


def test_family_render_corner_only(rep9):
    cert = check_steinhaus_family(rep9, 6, 9, 6)
    width, height, bits = _parse_pbm(render_family(cert, 0))
    assert (width, height) == (6, 6)
    assert sum(bits) == 10


def test_family_render_pascal(rep9):
    cert = check_pascal_family(rep9, 1, 2, 0)
    width, height, bits = _parse_pbm(render_family(cert, 1))
    assert (width, height) == (24, 24)
    assert sum(bits) == 150  # half of the 300 cells


def test_family_render_outline_needs_large_cells(rep9):
    cert = check_steinhaus_family(rep9, 6, 9, 6)
    data = render_family(cert, 1, RenderSpec(cell_size=4))
    width, height, pixels = _parse_ppm(data)
    assert (width, height) == (120, 120)
    assert (255, 0, 0) in pixels


def test_pixel_cap():
    with pytest.raises(WindowTooLarge):
        render_orbit(R("010100"), RenderSpec(window=((0, 10000), (0, 10000))))


def test_render_spec_validation():
    with pytest.raises(ValueError):
        RenderSpec(cell_size=0)
    with pytest.raises(ValueError):
        RenderSpec(window=((0, 0), (0, 5)))


# command -> SHA-256 of its output bytes, frozen before the triangle shape moved
# into Orientation.columns; "render_orbit KIND I0 J0 N" is a library call that
# outlines one triangle on a 30x28 window of the class-9 orbit
RENDER_DIGESTS = Path(__file__).parent / "golden" / "render_sha256.csv"
OVERLAY_WINDOW = ((0, 28), (0, 30))


def _output_bytes(command: str, out: Path) -> bytes:
    words = command.split()
    if words[0] == "render_orbit":
        kind, i0, j0, n = Orientation(words[1]), *map(int, words[2:])
        spec = RenderSpec(window=OVERLAY_WINDOW, overlays=((kind, i0, j0, n),))
        return render_orbit(R(CLASS9_REP), spec)
    assert main(words + ["--out", str(out)]) == 0
    return out.read_bytes()


with open(RENDER_DIGESTS, newline="", encoding="utf-8") as _handle:
    DIGEST_ROWS = [(row["command"], row["sha256"]) for row in csv.DictReader(_handle)]


@pytest.mark.parametrize("command,digest", DIGEST_ROWS, ids=[c for c, _ in DIGEST_ROWS])
def test_output_matches_frozen_digest(command, digest, tmp_path):
    data = _output_bytes(command, tmp_path / "out")
    assert hashlib.sha256(data).hexdigest() == digest
