"""In-memory span tracer that wraps the program's functions from outside.

Each hook replaces one module attribute (``steinhaus.search.partition_classes``,
``steinhaus.cli.full_search``, ...) with a wrapper that records a span.  The
program looks its collaborators up as module globals at call time, so its own
internal calls pass through the wrappers too and nest as parent/child spans;
nothing under ``src/`` is edited.  Untraced runs never call ``install``.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Spans are rows ``[name, start, end, parent]``; ``parent`` is the index
    of the enclosing span or -1.  One tracer serves one process and one run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = perf_counter()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def wrap(self, fn, name, count=None):
        """``name`` is a span name or a function of the call's arguments;
        ``count(counts, args, result)`` runs after the span has closed."""

        def traced(*args, **kwargs):
            index = self._open(name if isinstance(name, str) else name(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                count(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, hooks) -> None:
        """Wrap every ``(module, attribute, name, count)`` hook in place."""
        for module_name, attr, name, count in hooks:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._undo.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, count))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for k, (name, start, end, parent) in enumerate(self.spans):
                record = {"id": k, "name": name, "start": start, "end": end,
                          "parent": parent, "run": self.run_id}
                handle.write(json.dumps(record) + "\n")


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of its interval that its
    direct children cover (children of one thread never overlap, but the
    union is taken anyway so the rule holds for any span set)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for k, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(k, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def self_time_by_name(spans) -> dict[str, float]:
    """Sum of self times per span name."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] = totals.get(span[0], 0.0) + own
    return totals
