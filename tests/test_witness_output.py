"""The witness output path: generator fields formatted from packed grid lines,
and the indented JSON writer, each checked against the reference it replaces."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinhaus import Orientation, ResidueTuple, cli, full_search, jsonout
from steinhaus.core import build_steinhaus
from steinhaus.search import generator_tuple, pascal_generator_tuples


@pytest.mark.parametrize("p", [24, 72])
def test_generator_fields_match_the_generator_tuples(p):
    """On every witness of both kinds, the formatted fields are the str of
    generator_tuple and of each side of pascal_generator_tuples."""
    report = full_search(p)
    witnesses = 0
    for entry in report.classes:
        x = entry.class_rep
        for _, i0, j0 in entry.steinhaus.witnesses:
            fields = cli._generator_fields(Orientation.STEINHAUS, x, i0, j0)
            assert fields == {"z": str(generator_tuple(x, i0, j0))}
        for _, i0, j0 in entry.pascal.witnesses:
            left, right = pascal_generator_tuples(x, i0, j0)
            fields = cli._generator_fields(Orientation.PASCAL, x, i0, j0)
            assert fields == {"z_left": str(left), "z_right": str(right)}
        witnesses += len(entry.steinhaus) + len(entry.pascal)
    assert witnesses == {24: 654, 72: 1962}[p]


# the JSON output of each command, with the empty triangle's payload built
# directly: the CLI refuses an empty seed
JSON_COMMANDS = [
    ["census", "--kind", "pascal"],
    ["census", "--kind", "steinhaus"],
    ["modm", "--scan", "interlaced", "--modulus", "3"],
    ["modm", "--scan", "ap", "--modulus", "5"],
    ["kernel"],
    ["classes", "--p", "24"],
    ["classes", "--p-max", "24"],
    ["balanced-classes", "--p", "24"],
    ["triangle", "--seed-tuple", "0110100"],
    ["triangle", "--left", "012153", "--right", "065624", "--modulus", "7"],
    ["search", "--p", "36"],
    ["search", "--p", "24", "--kind", "pascal"],
    ["search", "--p", "72", "--k-verify", "1"],
]


@pytest.mark.parametrize("command", JSON_COMMANDS, ids=" ".join)
def test_cli_json_equals_json_dumps(command, tmp_path, monkeypatch):
    payloads = []
    emit = cli._emit_json

    def recording(payload, args):
        payloads.append(payload)
        emit(payload, args)

    monkeypatch.setattr(cli, "_emit_json", recording)
    out = tmp_path / "out.json"
    assert cli.main(command + ["--format", "json", "--out", str(out)]) == 0
    [payload] = payloads
    assert out.read_bytes() == (json.dumps(payload, indent=2) + "\n").encode()


def test_empty_triangle_payload_equals_json_dumps():
    payload = {"triangle": build_steinhaus(ResidueTuple(2, ())).to_json_dict(), "counts": {}}
    assert jsonout.indented(payload) == json.dumps(payload, indent=2)


# strings with quotes, backslashes, control characters and non-ASCII
TEXT = st.text(st.one_of(st.sampled_from('"\\\n\t\x00\x1f\x7fé€\U0001d11e'), st.characters()), max_size=8)
SCALARS = st.one_of(
    TEXT,
    st.integers(),
    st.integers(-10 ** 100, 10 ** 100),
    st.booleans(),
    st.none(),
    st.sampled_from([0.1, 1e300, -0.0]),
    st.floats(),
)
INT_LISTS = st.lists(st.one_of(st.integers(), st.booleans()), max_size=6)
PAYLOADS = st.recursive(
    st.one_of(SCALARS, INT_LISTS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
    ),
    max_leaves=10,
)


@given(PAYLOADS)
@settings(max_examples=50)
def test_indented_equals_json_dumps(payload):
    assert jsonout.indented(payload) == json.dumps(payload, indent=2)


@pytest.mark.parametrize("payload", [{1: 2}, {"a": [{"b": 0, None: 1}]}, [{(1, 2): 3}]], ids=str)
def test_indented_refuses_keys_that_are_not_str(payload):
    with pytest.raises(TypeError, match="keys must be str"):
        jsonout.indented(payload)
