"""The three benchmark workloads, their output checks and their trace hooks.

A workload is a pair of functions: ``setup(seed)`` builds the inputs and
``run(inputs, out_dir, checks)`` drives the program on them, records every
output check in ``checks`` and returns per-item latencies plus the counts
derived from outputs.  Both are called in a fresh interpreter by
``worker.py``.  The program is reached only through module attributes
(``search.remainder_set``, ``cli.main``, ...), so the tracer's wrappers see
the benchmark's calls as well as the program's own.
"""

from __future__ import annotations

import csv
import json
import random
from pathlib import Path
from time import perf_counter

from steinhaus import cli, search, symmetry
from steinhaus.census import triangle_count
from steinhaus.core import Orientation, ResidueTuple

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_REMAINDERS = ROOT / "tests" / "golden" / "remainder_counts_p24.csv"

P = 24
SEARCH_K_VERIFY = 4
SEARCH_CERTIFICATES = 654  # certificates `search --p 24` emits over both kinds
FAMILY_PER_CLASS = 6       # tuples per balanced-period class: 6 x 17 = 102 items
FAMILY_K_VERIFY = 1
KINDS = (Orientation.STEINHAUS, Orientation.PASCAL)
CENSUS_MODM_COMMANDS = (
    ("census-pascal", ["census", "--kind", "pascal"]),
    ("census-steinhaus", ["census", "--kind", "steinhaus"]),
    ("modm-interlaced-3", ["modm", "--scan", "interlaced", "--modulus", "3"]),
    ("modm-interlaced-5", ["modm", "--scan", "interlaced", "--modulus", "5"]),
    ("modm-interlaced-7", ["modm", "--scan", "interlaced", "--modulus", "7"]),
    ("modm-ap-5", ["modm", "--scan", "ap", "--modulus", "5"]),
    ("modm-ap-7", ["modm", "--scan", "ap", "--modulus", "7"]),
)


class Checks:
    """Output checks attempted and failed; a failure is recorded, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok


def load_golden_classes() -> list[tuple[str, int, int]]:
    """(representative, steinhaus count, pascal count) per class, in index order."""
    with open(GOLDEN_REMAINDERS, newline="", encoding="utf-8") as handle:
        return [
            (row["representative"], int(row["steinhaus_remainders"]), int(row["pascal_remainders"]))
            for row in csv.DictReader(handle)
        ]


def _run_cli(argv: list[str], out_path: Path, checks: Checks, label: str) -> int:
    """Run one CLI command with its output in the scratch directory; an
    exception or a nonzero exit code is a failed check.  Returns the bytes written."""
    try:
        code = cli.main(argv + ["--out", str(out_path)])
    except Exception as exc:  # the run goes on; the failure is counted
        code = f"{type(exc).__name__}: {exc}"
    checks.expect(code == 0, f"{label}: exit {code}")
    return out_path.stat().st_size if code == 0 else 0


# --- search-p24 -------------------------------------------------------------


def setup_search(seed: int):
    return load_golden_classes()


def check_search_payload(payload: dict, golden, checks: Checks) -> None:
    classes = payload.get("classes", [])
    checks.expect(len(classes) == len(golden), f"search: {len(classes)} classes, expected {len(golden)}")
    for k, (rep, st_count, pa_count) in enumerate(golden):
        entry = classes[k] if k < len(classes) else {}
        checks.expect(entry.get("representative") == rep, f"search class {k + 1}: representative")
        for kind, count in (("steinhaus", st_count), ("pascal", pa_count)):
            got = entry.get(kind, {}).get("remainder_count")
            checks.expect(got == count, f"search class {k + 1} {kind}: {got} remainders, golden {count}")
    got = payload.get("verified_certificates")
    checks.expect(got == SEARCH_CERTIFICATES, f"search: {got} verified certificates, expected {SEARCH_CERTIFICATES}")


def run_search(golden, out_dir: Path, checks: Checks):
    out_path = out_dir / "search-p24.json"
    argv = ["search", "--p", str(P), "--k-verify", str(SEARCH_K_VERIFY),
            "--format", "json", "--jobs", "1"]
    start = perf_counter()
    written = _run_cli(argv, out_path, checks, "search")
    if written:
        with open(out_path, encoding="utf-8") as handle:
            check_search_payload(json.load(handle), golden, checks)
    return [perf_counter() - start], {"cli.output_bytes": written}


# --- family-scan ------------------------------------------------------------


def setup_family(seed: int):
    """FAMILY_PER_CLASS images of every golden representative under random
    group elements t(u,v) r^a i^b, shuffled; the seed fixes the stream."""
    rng = random.Random(seed)
    items = []
    for rep, st_count, pa_count in load_golden_classes():
        x = ResidueTuple.from_string(rep)
        for _ in range(FAMILY_PER_CLASS):
            g = symmetry.GroupElement(P, rng.randrange(P), rng.randrange(P), rng.randrange(3), rng.randrange(2))
            items.append((symmetry.apply(g, x), {KINDS[0]: st_count, KINDS[1]: pa_count}))
    rng.shuffle(items)
    return items


def check_family_item(x: ResidueTuple, golden_counts: dict, checks: Checks) -> None:
    """Remainder count against the class's golden count (the count is
    invariant under the group), then every witness's certificate through
    the oracle."""
    for kind in KINDS:
        rset = search.remainder_set(x, kind)
        checks.expect(len(rset) == golden_counts[kind],
                      f"family {x} {kind.value}: {len(rset)} remainders, golden {golden_counts[kind]}")
        for r, i0, j0 in rset.witnesses:
            cert = search.check_family(x, i0, j0, r, kind)
            ok = cert is not None and search.oracle_verify_family(cert, FAMILY_K_VERIFY)
            checks.expect(ok, f"family {x} {kind.value}: witness ({i0},{j0},{r}) failed")


def run_family(items, out_dir: Path, checks: Checks):
    latencies = []
    for x, golden_counts in items:
        start = perf_counter()
        try:
            check_family_item(x, golden_counts, checks)
        except Exception as exc:  # the run goes on; the failure is counted
            checks.expect(False, f"family {x}: {type(exc).__name__}: {exc}")
        latencies.append(perf_counter() - start)
    return latencies, {}


# --- census-modm ------------------------------------------------------------


def setup_census_modm(seed: int):
    return CENSUS_MODM_COMMANDS


def check_census_rows(rows: list[dict], label: str, checks: Checks) -> None:
    """Closed forms per row: the average is half the cells, and the
    maximum matches the formula."""
    checks.expect(bool(rows), f"{label}: no rows")
    for row in rows:
        n, triangles = int(row["n"]), int(row["triangles"])
        cells = n * (n + 1) // 2
        checks.expect(2 * int(row["total_ones"]) == triangles * cells, f"{label} n={n}: total_ones")
        checks.expect(row["max_ones"] == row["formula_max"], f"{label} n={n}: max_ones")


def run_census_modm(commands, out_dir: Path, checks: Checks):
    latencies = []
    written = 0
    for label, argv in commands:
        out_path = out_dir / f"{label}.csv"
        start = perf_counter()
        size = _run_cli(argv + ["--format", "csv"], out_path, checks, label)
        written += size
        if size and argv[0] == "census":
            with open(out_path, newline="", encoding="utf-8") as handle:
                check_census_rows(list(csv.DictReader(handle)), label, checks)
        latencies.append(perf_counter() - start)
    return latencies, {"cli.output_bytes": written}


WORKLOADS = {
    "search-p24": (setup_search, run_search),
    "family-scan": (setup_family, run_family),
    "census-modm": (setup_census_modm, run_census_modm),
}


# --- trace hooks ------------------------------------------------------------


def scanned_positions(rset) -> int:
    """Positions remainder_set visits: it scans i0, then j0, and stops after
    the position that completes the set, which is the last first-witness
    position in scan order; a set that never completes scans all p^2."""
    p = rset.p
    if not rset.full:
        return p * p
    i0, j0 = max((i0, j0) for _, i0, j0 in rset.witnesses)
    return i0 * p + j0 + 1


def _count_remainder_scan(counts, args, rset) -> None:
    counts["search.remainder_scan.calls"] += 1
    counts["search.remainder_scan.positions"] += scanned_positions(rset)
    counts["search.witnesses"] += len(rset)


def _count_oracle(counts, args, accepted) -> None:
    cert, k_max = args
    p, r = cert.p, cert.remainder
    counts["search.oracle.calls"] += 1
    counts["search.oracle.cells"] += sum((k * p + r) * (k * p + r + 1) // 2 for k in range(k_max + 1))
    counts["search.oracle.rejects"] += not accepted


def _add(key, amount):
    def count(counts, args, result):
        counts[key] += amount(args, result)
    return count


def _calls(key):
    return _add(key, lambda args, result: 1)


def _length(key):
    return _add(key, lambda args, result: len(result))


def _count_partition(counts, args, classes) -> None:
    counts["symmetry.classes"] += len(classes)
    counts["symmetry.partition.p"] = args[0]  # read by the worker's memory probe


def _census_span(args) -> str:
    return "census." + args[1].value


# (module, attribute, span name, count); every place a layer is looked up
HOOKS = [
    ("steinhaus.cli", "main", "cli", None),
    ("steinhaus.cli", "gf2_kernel_basis", "orbits.kernel_basis", None),
    ("steinhaus.orbits", "gf2_kernel_basis", "orbits.kernel_basis", None),
    ("steinhaus.orbits", "periodic_tuple_bits", "orbits.span", _length("orbits.span.tuples")),
    ("steinhaus.symmetry", "periodic_tuple_bits", "orbits.span", _length("orbits.span.tuples")),
    ("steinhaus.search", "build_period_grid", "orbits.period_grid", None),
    ("steinhaus.symmetry", "build_period_grid", "orbits.period_grid", None),
    ("steinhaus.search", "partition_classes", "symmetry.partition", _count_partition),
    ("steinhaus.cli", "partition_classes", "symmetry.partition", _count_partition),
    ("steinhaus.symmetry", "apply", "symmetry.apply", None),
    ("steinhaus.search", "full_search", "search.full_search", None),
    ("steinhaus.cli", "full_search", "search.full_search", None),
    ("steinhaus.search", "balanced_period_classes", "search.balance_filter", _length("search.balanced_classes")),
    ("steinhaus.cli", "balanced_period_classes", "search.balance_filter", _length("search.balanced_classes")),
    ("steinhaus.search", "remainder_set", "search.remainder_scan", _count_remainder_scan),
    ("steinhaus.search", "check_family", "search.certificates", _calls("search.certificates.calls")),
    ("steinhaus.cli", "check_family", "search.certificates", _calls("search.certificates.calls")),
    ("steinhaus.cli", "generator_tuple", "search.generators", None),
    ("steinhaus.cli", "pascal_generator_tuples", "search.generators", None),
    ("steinhaus.search", "oracle_verify_family", "search.oracle", _count_oracle),
    ("steinhaus.cli", "oracle_verify_family", "search.oracle", _count_oracle),
    ("steinhaus.search", "is_balanced", "core.balance", _calls("core.balance.calls")),
    ("steinhaus.search", "multiplicity", "core.balance", _calls("core.balance.calls")),
    ("steinhaus.modm", "is_balanced", "core.balance", _calls("core.balance.calls")),
    ("steinhaus.cli", "average_census", _census_span,
     _add("census.triangles", lambda args, result: triangle_count(*args))),
    ("steinhaus.cli", "extremal_ones_scan", _census_span, None),
    ("steinhaus.cli", "interlaced_scan", "modm.interlaced",
     _add("modm.interlaced.positions", lambda args, result: (6 * args[0]) ** 2)),
    ("steinhaus.cli", "ap_balanced_scan", "modm.ap", None),
]
