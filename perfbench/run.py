"""Benchmark entry point: cold-start runs of one workload, or of all three.

    python3 perfbench/run.py --workload search-p24|family-scan|census-modm|all
                             [--seed N] [--seconds S] [--trace 0|1] [--out FILE]

Every repetition is a fresh interpreter (``worker.py``), run one after
another with no worker pool, because each CLI user pays the cold module
caches again.  Repetitions continue until ``--seconds`` have passed (at
least MIN_REPS of them), and extra set-up-only processes give ``setup_s``
more samples.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json, or with ``--trace 1`` its per-layer metrics from
one extra traced repetition.  ``--workload all`` runs every workload both
ways, prints a table and names each metric ``<workload>/<metric>``.  The
exit code is nonzero when any output check failed or the program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("search-p24", "family-scan", "census-modm")
DEFAULT_SEED = 1     # seed 2 is held out for confirming a claimed gain (README.md)
MIN_REPS = 3
SETUP_PROBES = 6     # set-up-only processes per run, on top of one per repetition
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def tail_percentile(samples: list[float], percent: int = 90) -> float | None:
    """The given percentile, or None when fewer than ten samples lie beyond it."""
    if len(samples) < 2:
        return None
    value = statistics.quantiles(samples, n=100, method="inclusive")[percent - 1]
    return value if sum(1 for s in samples if s > value) >= 10 else None


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu,
        "processes": "one fresh interpreter per repetition, run sequentially; no worker pool (--jobs 1)",
    }


def run_worker(workload: str, seed: int, *flags: str) -> dict:
    """One repetition: the worker's record plus ``setup_raw_s``, from just
    before the spawn to the end of the worker's set-up (both read the
    system-wide monotonic clock), and the set-up and run times rescaled to
    reference speed, ``setup_s`` and ``wall_ref_s`` (see speed.py)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out-dir", str(OUT_DIR), *flags]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.splitlines()[-1])
    record["setup_raw_s"] = record["t_ready"] - t_spawn
    if "setup_speed" in record:
        record["setup_s"] = (record["setup_raw_s"] - record["setup_probe_s"]) * record["setup_speed"]
    if "run_speed" in record:
        record["wall_ref_s"] = (record["wall_s"] - record["run_probe_s"]) * record["run_speed"]
    return record


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    reps = []
    start = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - start < seconds:
        reps.append(run_worker(workload, seed))
    setups = reps + [run_worker(workload, seed, "--setup-only") for _ in range(SETUP_PROBES)]
    items_ms = [1000 * s for rep in reps for s in rep["item_s"]]
    wall = statistics.median(rep["wall_s"] for rep in reps)
    result = {
        "reps": len(reps),
        "attempted": sum(rep["attempted"] for rep in reps),
        "failures": [f for rep in reps for f in rep["failures"]],
        "failed": sum(rep["failed"] for rep in reps),
        "end_to_end": {
            "setup_s": statistics.median(rep["setup_s"] for rep in setups),
            "wall_s": statistics.median(rep["wall_ref_s"] for rep in reps),
            "peak_rss_mb": statistics.median(rep["peak_rss_kb"] for rep in reps) / 1024,
        },
        "raw": {
            "setup_raw_s": statistics.median(rep["setup_raw_s"] for rep in setups),
            "wall_raw_s": wall,
            "speed": statistics.median(rep["run_speed"] for rep in reps),
        },
    }
    if trace:
        traced = run_worker(workload, seed, "--trace")
        layers = {**traced["layers"], **result["raw"]}
        layers["trace.overhead_s"] = layers["trace.wall_s"] - wall
        layers["items"] = len(items_ms)
        layers["item_ms.p50"] = statistics.median(items_ms)
        layers["item_ms.p90"] = tail_percentile(items_ms) or 0.0
        result["per_layer"] = layers
        result["attempted"] += traced["attempted"]
        result["failed"] += traced["failed"]
        result["failures"] += traced["failures"]
    return result


def metric_block(specs: list[dict], values: dict, prefix: str = "") -> dict:
    return {
        prefix + spec["name"]: {"value": values.get(spec["name"], 0), "unit": spec["unit"]}
        for spec in specs
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the results and environment as JSON here")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "steinhaus" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from a checkout holding src/steinhaus and BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    env = environment()
    print("environment " + json.dumps(env), flush=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {
            name: measure(name, args.seed, seconds, args.trace == 1 or args.workload == "all")
            for name in names
        }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics: dict = {}
    for name, result in results.items():
        prefix = f"{name}/" if args.workload == "all" else ""
        for failure in result["failures"]:
            print(f"check failed: {name}: {failure}", file=sys.stderr)
        if args.workload == "all" or args.trace == 0:
            metrics.update(metric_block(spec["end_to_end"], result["end_to_end"], prefix))
        if args.workload == "all" or args.trace == 1:
            metrics.update(metric_block(spec["per_layer"], result["per_layer"], prefix))
    if args.workload == "all":
        for name, entry in metrics.items():
            print(f"{name:48s} {entry['value']:>16.6g} {entry['unit']}")
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.out:
        record = {"seed": args.seed, "seconds": seconds, "environment": env,
                  "reps": {name: r["reps"] for name, r in results.items()},
                  "attempted": attempted, "failed": failed, "metrics": metrics}
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
