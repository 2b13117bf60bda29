"""The witness output path: generator fields formatted from packed grid lines,
and the search's streamed records and class texts, each checked against the
reference it replaces: the generator tuples, and json.dumps of the payload
built as one tree."""

import json
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinhaus import Orientation, build_period_grid, check_family, cli, full_search, jsonout
from steinhaus.search import generator_tuple, pascal_generator_tuples


def generator_fields(kind, x, i0, j0):
    """A witness's generator fields as the reference writes them: the str of
    generator_tuple (Steinhaus) or of each side of pascal_generator_tuples
    (Pascal)."""
    if kind is Orientation.STEINHAUS:
        return {"z": str(generator_tuple(x, i0, j0))}
    left, right = pascal_generator_tuples(x, i0, j0)
    return {"z_left": str(left), "z_right": str(right)}


@pytest.mark.parametrize("p", [24, 72])
def test_generator_fields_match_the_generator_tuples(p):
    """On every witness of both kinds, the formatted lines under the keys
    GENERATOR_KEYS names are the str of generator_tuple and of each side of
    pascal_generator_tuples."""
    report = full_search(p)
    witnesses = 0
    for entry in report.classes:
        x, grid = entry.class_rep, build_period_grid(entry.class_rep)
        for kind in Orientation:
            for _, i0, j0 in entry.remainders(kind).witnesses:
                lines = jsonout.generator_lines(kind, grid, i0, j0)
                assert dict(zip(jsonout.GENERATOR_KEYS[kind], lines)) == generator_fields(kind, x, i0, j0)
                witnesses += 1
    assert witnesses == {24: 654, 72: 1962}[p]


# the JSON output of each command
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


def search_payload(report, kinds, certs, k_verify):
    """The search payload as one tree, built as the CLI built it before it
    streamed: each witness's certificate record (to_json_dict) and its
    generator fields."""
    payload = {"p": report.p, "classes": []}
    for entry in report.classes:
        item = {"index": entry.index, "representative": str(entry.class_rep)}
        for kind in kinds:
            rset = entry.remainders(kind)
            witnesses = []
            for r, i0, j0 in rset.witnesses:
                record = certs[entry.index, kind, r].to_json_dict()
                record.update(generator_fields(kind, entry.class_rep, i0, j0))
                witnesses.append(record)
            item[kind.value] = {
                "remainder_count": len(rset),
                "remainders": list(rset.remainders),
                "witnesses": witnesses,
            }
        payload["classes"].append(item)
    if k_verify:
        payload["verified_certificates"] = len(certs)
        payload["k_verify"] = k_verify
    return payload


@pytest.mark.parametrize("command", JSON_COMMANDS, ids=" ".join)
def test_cli_json_equals_json_dumps(command, tmp_path, monkeypatch):
    """Each command's JSON is json.dumps of its payload: the payload that
    _emit_json is handed, or for search, which streams its records, the
    payload search_payload builds."""
    payloads = []
    if command[0] == "search":
        args = cli.build_parser().parse_args(command)
        report, kinds = full_search(args.p), cli._search_kinds(args)
        certs = cli._certificates(report, kinds, args.k_verify)
        payloads.append(search_payload(report, kinds, certs, args.k_verify))
    else:
        emit = cli._emit_json

        def recording(payload, args):
            payloads.append(payload)
            emit(payload, args)

        monkeypatch.setattr(cli, "_emit_json", recording)
    out = tmp_path / "out.json"
    assert cli.main(command + ["--format", "json", "--out", str(out)]) == 0
    [payload] = payloads
    assert out.read_bytes() == (json.dumps(payload, indent=2) + "\n").encode()


@lru_cache(maxsize=None)
def _witnesses(p, kind):
    """(x, r, i0, j0) of every witness of the kind at period p."""
    return [
        (entry.class_rep, r, i0, j0)
        for entry in full_search(p).classes
        for r, i0, j0 in entry.remainders(kind).witnesses
    ]


@given(st.sampled_from([24, 72]), st.sampled_from(list(Orientation)), st.data())
@settings(max_examples=60, deadline=None)
def test_witness_record_equals_json_dumps(p, kind, data):
    """One %-format of the kind's template writes a witness's record as
    json.dumps writes its dict, re-indented at the depth the search writes
    it, on anchors moved by whole periods."""
    x, r, i0, j0 = data.draw(st.sampled_from(_witnesses(p, kind)))
    i0 += p * data.draw(st.integers(-3, 3))
    j0 += p * data.draw(st.integers(-3, 3))
    cert = check_family(x, i0, j0, r, kind)
    record = {**cert.to_json_dict(), **generator_fields(kind, x, i0, j0)}
    lines = jsonout.generator_lines(kind, build_period_grid(x), i0, j0)
    assert jsonout.witness_record(cert, str(x), lines) == json.dumps(record, indent=2).replace(
        "\n", jsonout.RECORD_NEWLINE)


@pytest.mark.parametrize("p,kind,k_verify", [
    (24, "both", 0), (24, "both", 4), (24, "steinhaus", 4), (72, "pascal", 0), (8, "both", 0), (8, "both", 3),
], ids=str)
def test_search_pieces_equal_json_dumps(p, kind, k_verify):
    """The streamed search text is json.dumps(payload, indent=2) + newline,
    also for a report with no classes."""
    report = full_search(p)
    kinds = list(Orientation) if kind == "both" else [Orientation(kind)]
    certs = cli._certificates(report, kinds, k_verify)
    pieces = list(jsonout.search_pieces(report, kinds, certs, k_verify))
    text = "".join(pieces)
    assert text == json.dumps(search_payload(report, kinds, certs, k_verify), indent=2) + "\n"
    assert len(pieces) == len(report.classes) + 2  # head, one per class, the final line break
    if p == 8:
        assert not report.classes and '"classes": []' in text
