"""The CLI's one JSON writer: the text of json.dumps(value, indent=2), built
one string per container.  With an indent, json.dumps runs its pure-Python
encoder, which makes every token a piece of its own."""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii


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
        if not value:
            return "[]"
        if all(type(v) is int for v in value):
            items = map(str, value)
        else:
            items = [indented(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        items = [encode_basestring_ascii(k) + ": " + indented(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    return json.dumps(value)  # floats and any other scalar, with json's own repr
