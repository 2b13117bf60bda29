"""The search's JSON, written one class at a time (search_pieces): the text
of json.dumps(payload, indent=2), each class and each witness record one
%-format of a template that json.dumps wrote.  With an indent, json.dumps
runs its pure-Python encoder, which makes every token a piece of its own, so
it writes each template once, never once per class or record."""

from __future__ import annotations

import json
from typing import Iterator

from .core import Orientation
from .orbits import PeriodGrid, build_period_grid


def _container(items: list[str], newline: str) -> str:
    """The list of the item texts, each on a line of its own at newline + "  ",
    as json.dumps(..., indent=2) writes it."""
    if not items:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def _template(shape: dict, newline: str) -> str:
    """json.dumps(shape, indent=2) as a %-format, newline being the line break
    and indent of the line it starts on: each str value "%d" becomes an int
    slot and each "%%s" a text slot, both unquoted, while "%s" stays a quoted
    string slot.  The line breaks are moved by replacing every "\\n", which is
    exact: json.dumps escapes every newline inside a string."""
    text = json.dumps(shape, indent=2).replace("\n", newline)
    return text.replace('"%d"', "%d").replace('"%%s"', "%s")


# the keys of each kind's generator fields, and the grid steps of their lines
GENERATOR_KEYS = {Orientation.STEINHAUS: ("z",), Orientation.PASCAL: ("z_left", "z_right")}
_GENERATOR_STEPS = {Orientation.STEINHAUS: ((0, 1),), Orientation.PASCAL: ((1, 0), (1, 1))}


def generator_lines(kind: Orientation, grid: PeriodGrid, i0: int, j0: int) -> list[str]:
    """The values of the witness's generator fields (GENERATOR_KEYS[kind]),
    the str of generator_tuple or of pascal_generator_tuples: the packed grid
    lines through (i0, j0), formatted LSB first."""
    fmt = f"0{grid.p}b"
    return [format(grid.line(i0, j0, di, dj), fmt)[::-1] for di, dj in _GENERATOR_STEPS[kind]]


# the line break of the search payload's classes, of their lists, and of the records in them
_CLASSES = "\n    "
_LISTS = _CLASSES + "    "
RECORD_NEWLINE = _LISTS + "  "
_HOLE = "\0"  # a str no report holds: the place of each class in the payload's text
_INTS = ["%d", "%d"]

# each kind's witness record as a %-format, written at the depth the search writes
# it: FamilyCertificate.to_json_dict's fields (the kind written in) then the
# generator fields, whose "%s" slots take strings that need no escape
_RECORD_TEMPLATES = {
    kind: _template({"kind": kind.value, "generator": "%s", "position": _INTS, "remainder": "%d",
                     "corner_counts": _INTS, "band_counts": _INTS, "period_counts": _INTS,
                     **dict.fromkeys(GENERATOR_KEYS[kind], "%s")}, RECORD_NEWLINE)
    for kind in Orientation
}


def witness_record(cert, representative: str, lines: list[str]) -> str:
    """json.dumps(cert.to_json_dict() + the generator fields, indent=2) at the
    depth of RECORD_NEWLINE, representative being str(cert.generator): one
    %-format of the kind's template; lines are generator_lines."""
    r, corner, band, half = cert.remainder, cert.corner_ones, cert.band_ones, cert.p * cert.p // 2
    return _RECORD_TEMPLATES[cert.kind] % (
        representative, *cert.position, r, r * (r + 1) // 2 - corner, corner, band, band, half, half, *lines
    )


def _class_text(template: str, entry, kinds: list[Orientation], certs: dict) -> str:
    """One class of the search payload at the depth of the "classes" list: one
    %-format of the search's class template, its two lists per kind written
    by _container."""
    representative = str(entry.class_rep)
    grid = build_period_grid(entry.class_rep)
    values = [entry.index, representative]
    for kind in kinds:
        rset = entry.remainders(kind)
        values += len(rset), _container(list(map(str, rset.remainders)), _LISTS), _container([
            witness_record(certs[entry.index, kind, r], representative, generator_lines(kind, grid, i0, j0))
            for r, i0, j0 in rset.witnesses
        ], _LISTS)
    return template % tuple(values)


def search_pieces(report, kinds: list[Orientation], certs: dict, k_verify: int) -> Iterator[str]:
    """The search's JSON, json.dumps(payload, indent=2) + "\\n", one class at a
    time.  The payload holds p, each class's index, representative and, per
    kind, its remainder count, remainders and witness records (each
    certificate's to_json_dict and generator fields), then with k_verify > 0
    the number of certificates and k_verify.  certs maps (class index, kind,
    remainder) to each witness's certificate."""
    payload = {"p": report.p, "classes": [_HOLE] * len(report.classes)}
    if k_verify:
        payload.update(verified_certificates=len(certs), k_verify=k_verify)
    head, *tails = json.dumps(payload, indent=2).split(json.dumps(_HOLE))
    template = _template({"index": "%d", "representative": "%s", **{
        kind.value: {"remainder_count": "%d", "remainders": "%%s", "witnesses": "%%s"} for kind in kinds
    }}, _CLASSES)
    yield head
    for entry, tail in zip(report.classes, tails):
        yield _class_text(template, entry, kinds, certs) + tail
    yield "\n"
