"""Fast tests of the benchmark's own logic.

    python3 -m pytest -q perfbench/tests
"""

import importlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from run import tail_percentile  # noqa: E402
from speed import PROBE_REF_S, SpeedProbe  # noqa: E402
from tracer import Tracer, self_time_by_name, self_times  # noqa: E402
from workloads import (  # noqa: E402
    HOOKS,
    KINDS,
    SEARCH_CERTIFICATES,
    Checks,
    check_census_rows,
    check_family_item,
    check_search_payload,
    load_golden_classes,
    scanned_positions,
)

from steinhaus import Orientation, ResidueTuple, remainder_set, search  # noqa: E402


def test_self_time_of_nested_spans():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["a", 5.0, 9.0, 0],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert self_time_by_name(spans) == {"root": 3.0, "a": 6.0, "b": 1.0}
    assert sum(self_times(spans)) == spans[0][2] - spans[0][1]


def test_self_time_counts_overlapping_children_once():
    spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 5.0, 0], ["b", 3.0, 7.0, 0]]
    assert self_times(spans)[0] == 4.0


def test_tracer_records_parents_and_counts():
    tracer = Tracer("test")

    def inner(n):
        return list(range(n))

    inner_traced = tracer.wrap(inner, "inner", lambda counts, args, result: counts.update(items=len(result)))
    outer = tracer.wrap(lambda: inner_traced(3) + inner_traced(2), "outer")
    with tracer.span("root"):
        outer()
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [
        ("root", -1), ("outer", 0), ("inner", 1), ("inner", 1)
    ]
    assert all(end >= start for _, start, end, _ in tracer.spans)
    assert tracer.counts["items"] == 5


def test_hooks_install_and_uninstall_cleanly():
    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in HOOKS}
    tracer = Tracer("test")
    tracer.install(HOOKS)
    try:
        for (module, attr), original in originals.items():
            assert getattr(importlib.import_module(module), attr).__wrapped__ is original
    finally:
        tracer.uninstall()
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original


def test_p90_needs_ten_samples_beyond_it():
    assert tail_percentile([float(v) for v in range(1, 101)]) == 90.1
    assert tail_percentile([float(v) for v in range(1, 100)]) == 89.2  # 90..99 lie beyond
    assert tail_percentile([float(v) for v in range(1, 91)]) is None   # only 82..90 do
    assert tail_percentile([5.0] * 500) is None  # nothing lies beyond a constant
    assert tail_percentile([]) is None


def _golden_search_payload():
    golden = load_golden_classes()
    classes = [
        {"representative": rep, "steinhaus": {"remainder_count": st}, "pascal": {"remainder_count": pa}}
        for rep, st, pa in golden
    ]
    return golden, {"p": 24, "classes": classes, "verified_certificates": SEARCH_CERTIFICATES}


def test_search_checks_pass_on_golden_payload():
    golden, payload = _golden_search_payload()
    checks = Checks()
    check_search_payload(payload, golden, checks)
    assert checks.attempted == 1 + 3 * len(golden) + 1
    assert checks.failures == []


def test_corrupted_remainder_count_is_counted_as_failed():
    golden, payload = _golden_search_payload()
    payload["classes"][8]["pascal"]["remainder_count"] -= 1
    checks = Checks()
    check_search_payload(payload, golden, checks)
    assert len(checks.failures) == 1
    assert "class 9 pascal" in checks.failures[0]


def test_truncated_search_payload_fails_without_raising():
    golden, payload = _golden_search_payload()
    del payload["classes"][3:]
    payload.pop("verified_certificates")
    checks = Checks()
    check_search_payload(payload, golden, checks)
    assert checks.attempted == 1 + 3 * len(golden) + 1
    assert len(checks.failures) == 1 + 3 * (len(golden) - 3) + 1


def test_census_rows_check_closed_forms():
    rows = [
        {"n": "3", "triangles": "8", "total_ones": "24", "max_ones": "4", "formula_max": "4"},
        {"n": "4", "triangles": "16", "total_ones": "81", "max_ones": "7", "formula_max": "7"},
    ]
    checks = Checks()
    check_census_rows(rows, "census", checks)
    assert checks.attempted == 5
    assert checks.failures == ["census n=4: total_ones"]


def test_family_item_with_wrong_golden_count_is_counted():
    rep, st, pa = load_golden_classes()[0]
    x = ResidueTuple.from_string(rep)
    checks = Checks()
    check_family_item(x, {KINDS[0]: st, KINDS[1]: pa + 1}, checks)
    assert checks.attempted == 2 + st + pa
    assert len(checks.failures) == 1


def test_scanned_positions_match_the_profiles_the_scan_builds(monkeypatch):
    built = []
    original = search._GridCounter.steinhaus_ones_profile

    def counting(self, i0, j0, n_max):
        built.append((i0, j0))
        return original(self, i0, j0, n_max)

    monkeypatch.setattr(search._GridCounter, "steinhaus_ones_profile", counting)
    golden = load_golden_classes()
    for index in (0, 8):  # class 1 never completes its set; class 9 does
        built.clear()
        rset = remainder_set(ResidueTuple.from_string(golden[index][0]), Orientation.STEINHAUS)
        assert scanned_positions(rset) == len(built)
    assert len(built) < 24 * 24


def test_speed_window_rescales_to_reference():
    probe = SpeedProbe()
    probe.samples = [(1.0, PROBE_REF_S), (2.0, 2 * PROBE_REF_S), (9.0, PROBE_REF_S)]
    probe_s, speed = probe.window(0.5, 2.5)
    assert probe_s == 3 * PROBE_REF_S
    assert speed == 0.75
