"""The CLI's JSON writer: the text of json.dumps(value, indent=2), built one
string per container (indented), and the search report written one class at
a time, each witness record one %-format of a template that indented wrote
(search_pieces).  With an indent, json.dumps runs its pure-Python encoder,
which makes every token a piece of its own."""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Iterator

from .core import Orientation
from .orbits import PeriodGrid, build_period_grid


def _container(items: list[str], newline: str, brackets: str) -> str:
    """The list ("[]") or object ("{}") of the item texts, each on a line of
    its own at newline + "  ", as indented writes it."""
    if not items:
        return brackets
    inner = newline + "  "
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


def indented(value, newline: str = "\n") -> str:
    """value as json.dumps(value, indent=2) writes it, newline being the line
    break and indent of the line it starts on: one string per container, a
    list of plain ints joined in one piece.  Keys must be str."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if type(value) is int:
        return str(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if all(type(v) is int for v in value):
            return _container(list(map(str, value)), newline, "[]")
        return _container([indented(v, inner) for v in value], newline, "[]")
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        items = [encode_basestring_ascii(k) + ": " + indented(v, inner) for k, v in value.items()]
        return _container(items, newline, "{}")
    return json.dumps(value)  # floats and any other scalar, with json's own repr


# the keys of each kind's generator fields, and the grid steps of their lines
GENERATOR_KEYS = {Orientation.STEINHAUS: ("z",), Orientation.PASCAL: ("z_left", "z_right")}
_GENERATOR_STEPS = {Orientation.STEINHAUS: ((0, 1),), Orientation.PASCAL: ((1, 0), (1, 1))}


def generator_lines(kind: Orientation, grid: PeriodGrid, i0: int, j0: int) -> list[str]:
    """The values of the witness's generator fields (GENERATOR_KEYS[kind]),
    the str of generator_tuple or of pascal_generator_tuples: the packed grid
    lines through (i0, j0), formatted LSB first."""
    fmt = f"0{grid.p}b"
    return [format(grid.line(i0, j0, di, dj), fmt)[::-1] for di, dj in _GENERATOR_STEPS[kind]]


# the line break of the search payload's "witnesses" lists, and of the records in them
_WITNESSES = "\n        "
RECORD_NEWLINE = _WITNESSES + "  "
_HOLE = "\0"  # a str no report holds: the place of a text spliced in afterwards
_HOLE_TEXT = encode_basestring_ascii(_HOLE)
_INTS = ["%d", "%d"]

# each kind's witness record as a %-format: indented of its shape at the depth the
# search writes it, FamilyCertificate.to_json_dict's fields (the kind written in)
# then the generator fields, whose values are the slots "%s", a string that needs
# no escape, and "%d", an int, written unquoted
_RECORD_TEMPLATES = {
    kind: indented({"kind": kind.value, "generator": "%s", "position": _INTS, "remainder": "%d",
                    "corner_counts": _INTS, "band_counts": _INTS, "period_counts": _INTS,
                    **dict.fromkeys(GENERATOR_KEYS[kind], "%s")}, RECORD_NEWLINE).replace('"%d"', "%d")
    for kind in Orientation
}


def witness_record(cert, representative: str, lines: list[str]) -> str:
    """indented(cert.to_json_dict() + the generator fields, RECORD_NEWLINE),
    representative being str(cert.generator): one %-format of the kind's
    template; lines are generator_lines."""
    r, corner, band, half = cert.remainder, cert.corner_ones, cert.band_ones, cert.p * cert.p // 2
    return _RECORD_TEMPLATES[cert.kind] % (
        representative, *cert.position, r, r * (r + 1) // 2 - corner, corner, band, band, half, half, *lines
    )


def _class_text(entry, kinds: list[Orientation], certs: dict) -> str:
    """indented(item) of one class of the search payload, at the depth of the
    "classes" list: its witness lists written from records, every other field
    by indented."""
    representative = str(entry.class_rep)
    grid = build_period_grid(entry.class_rep)
    item = {"index": entry.index, "representative": representative}
    lists = []
    for kind in kinds:
        rset = entry.remainders(kind)
        item[kind.value] = {"remainder_count": len(rset), "remainders": list(rset.remainders),
                            "witnesses": _HOLE}
        lists.append(_container([
            witness_record(certs[entry.index, kind, r], representative, generator_lines(kind, grid, i0, j0))
            for r, i0, j0 in rset.witnesses
        ], _WITNESSES, "[]"))
    head, *tails = indented(item, "\n    ").split(_HOLE_TEXT)
    return head + "".join(text + tail for text, tail in zip(lists, tails))


def search_pieces(report, kinds: list[Orientation], certs: dict, k_verify: int) -> Iterator[str]:
    """The search's JSON, indented(payload) + "\\n", one class at a time.  The
    payload holds p, each class's index, representative and, per kind, its
    remainder count, remainders and witness records (each certificate's
    to_json_dict and generator fields), then with k_verify > 0 the number of
    certificates and k_verify.  certs maps (class index, kind, remainder) to
    each witness's certificate."""
    payload = {"p": report.p, "classes": [_HOLE] * len(report.classes)}
    if k_verify:
        payload.update(verified_certificates=len(certs), k_verify=k_verify)
    head, *tails = indented(payload).split(_HOLE_TEXT)
    yield head
    for entry, tail in zip(report.classes, tails):
        yield _class_text(entry, kinds, certs) + tail
    yield "\n"
