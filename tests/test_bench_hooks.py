"""The benchmark reaches the program by attribute name: perfbench/workloads.py
HOOKS wraps (module, attribute) pairs, and perfbench/worker.py clears and reads
lru caches.  A refactor that deletes or renames one of those names fails here
instead of breaking the traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

from steinhaus import orbits, symmetry

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.HOOKS


def test_benchmark_hooks_resolve():
    hooks = _hooks()
    assert hooks
    missing = [
        f"{module}.{name}"
        for module, name, *_ in hooks
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []


def test_benchmark_worker_cache_calls_resolve():
    assert callable(orbits.periodic_tuple_bits.cache_clear)
    assert callable(symmetry.partition_classes.cache_clear)
    assert callable(orbits.build_period_grid.cache_info)
