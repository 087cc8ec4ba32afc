"""Spans around the benchmark's calls into the library, and their statistics.

A span records name, start, end, parent span and query id. Spans stay in
memory while the workload runs and are written out once at the end. A
span's self time is its duration minus the time covered by its children;
the code is single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

NO_PARENT = -1


class Untraced:
    """Stand-in for :class:`Tracer` that records nothing."""

    query: int | None = None

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        return fn(*args, **kwargs)


class Tracer:
    """Records one span per call made through :meth:`call`."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, query]
        self._stack: list[int] = []
        self.query: int | None = None

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else NO_PARENT, self.query]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def by_name(self) -> dict[str, tuple[list[float], list[float]]]:
        """name -> (durations, self times), in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent != NO_PARENT:
                child[parent] += end - start
        out: dict[str, tuple[list[float], list[float]]] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            durations, selfs = out.setdefault(name, ([], []))
            durations.append(end - start)
            selfs.append(end - start - covered)
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, query) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": i, "name": name, "start": start, "end": end,
                     "parent": parent, "query": query}
                ) + "\n")


def tail(values: list[float]) -> tuple[str, float]:
    """The highest percentile, at most p99, that has 10 samples beyond it.

    With 20 samples or fewer no percentile qualifies, and the maximum is
    reported instead.
    """
    n = len(values)
    if n == 0:
        return "p99", 0.0
    if n <= 20:
        return "max", float(max(values))
    q = min(99.0, math.floor(1000.0 * (1.0 - 10.0 / n)) / 10.0)
    return f"p{q:g}", float(np.percentile(values, q))


def median(values: list[float]) -> float:
    return float(np.median(values)) if values else 0.0
