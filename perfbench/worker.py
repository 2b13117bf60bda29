"""One measured repetition of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --out-dir DIR [--setup-only] [--trace]

Prints one JSON line: the monotonic time at which set-up ended, wall time,
per-item latencies, the checks attempted and failed, peak RSS, and the
speed probe's readings over set-up and over the run (see ``speed.py``).
With ``--trace`` it runs no speed probe, wraps every layer (see ``workloads.HOOKS``), writes the
spans to ``DIR/spans-NAME-N.jsonl`` and reports per-layer self times and
counts.  Without it no wrapper is installed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _layer_metrics(tracer, run_root: int, counts: dict, grid_info) -> dict:
    """Self time per layer over set-up and run, the counts, and the cache
    and memory figures.  The self times of the spans under ``run_root`` sum
    to ``trace.wall_s``."""
    from tracer import self_time_by_name

    layers = {f"{name}.self_s": seconds for name, seconds in self_time_by_name(tracer.spans).items()}
    layers["bench.self_s"] = layers.pop("bench.run.self_s")
    layers.pop("bench.setup.self_s")
    _, start, end, _ = tracer.spans[run_root]
    layers["trace.wall_s"] = end - start
    partition_p = counts.pop("symmetry.partition.p", None)
    layers.update(counts)
    layers["orbits.period_grid.calls"] = sum(1 for span in tracer.spans if span[0] == "orbits.period_grid")
    lookups = grid_info.hits + grid_info.misses
    layers["orbits.period_grid.misses"] = grid_info.misses
    layers["orbits.period_grid.hit_ratio"] = grid_info.hits / lookups if lookups else 0.0
    positions = counts.get("search.remainder_scan.positions", 0)
    layers["search.witness_yield"] = counts.get("search.witnesses", 0) / positions if positions else 0.0
    if partition_p is not None:
        layers["symmetry.partition.peak_mb"] = _partition_peak_mb(partition_p)
    return layers


def _partition_peak_mb(p: int) -> float:
    """Peak traced allocation of a cold partition_classes(p), measured after
    the timed run so tracemalloc does not inflate any span."""
    from steinhaus import orbits, symmetry

    orbits.periodic_tuple_bits.cache_clear()
    symmetry.partition_classes.cache_clear()
    tracemalloc.start()
    try:
        symmetry.partition_classes(p)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main() -> int:
    from speed import SpeedProbe

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    speed = None if args.trace else SpeedProbe()
    if speed is not None:
        speed.start()
        speed.sample()
    sys.path.insert(0, str(ROOT / "src"))
    import steinhaus
    from steinhaus import orbits

    if Path(steinhaus.__file__).resolve().parent != ROOT / "src" / "steinhaus":
        print(f"steinhaus imported from {steinhaus.__file__}, not from this checkout", file=sys.stderr)
        return 2
    from workloads import HOOKS, WORKLOADS, Checks

    setup, run = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(f"{args.workload}-seed{args.seed}-traced")
        tracer.install(HOOKS)
        with tracer.span("bench.setup"):
            inputs = setup(args.seed)
    else:
        inputs = setup(args.seed)
        speed.sample()
    t_ready = time.monotonic()
    result = {"t_ready": t_ready}
    if speed is not None:
        result["setup_probe_s"], result["setup_speed"] = speed.window(0.0, time.perf_counter())
    if not args.setup_only:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        checks = Checks()
        start = time.perf_counter()
        if tracer is None:
            speed.sample()
            latencies, counts = run(inputs, out_dir, checks)
            speed.sample()
        else:
            with tracer.span("bench.run") as run_root:
                latencies, counts = run(inputs, out_dir, checks)
        end = time.perf_counter()
        result.update(
            wall_s=end - start,
            item_s=latencies,
            attempted=checks.attempted,
            failed=len(checks.failures),
            failures=checks.failures[:10],
        )
        if speed is not None:
            result["run_probe_s"], result["run_speed"] = speed.window(start, end)
        if tracer is not None:
            tracer.uninstall()
            tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
            result["layers"] = _layer_metrics(
                tracer, run_root, {**tracer.counts, **counts}, orbits.build_period_grid.cache_info()
            )
    if speed is not None:
        speed.stop()
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
