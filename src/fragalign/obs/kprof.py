"""Kernel profiling: per-call timing of engine dispatch, by family.

The engine facade calls :meth:`KernelProfiler.record` around every
backend kernel invocation (when profiling is enabled) with the kernel
family (``score``/``align``/``score_many``/``align_many``), backend
name, resolved mode, batch shape, and DP cell count.  Everything is
stored as labeled counters/gauges in the shared
:class:`~fragalign.obs.metrics.MetricsRegistry`, so the data rides the
same ``metrics`` exposition as the service counters and aggregates
across shards for free; :func:`top_rows` turns either a live registry
or a scraped exposition into the per-family throughput table behind
``fragalign top``.

Recording runs on the batcher's worker thread while the event-loop
thread scrapes the same registry (the ``metrics`` op, ``fragalign
top``, the SLO sampler).  That cross-thread read is why there are
locks: each instrument's own lock keeps its values exact under a
concurrent scrape, and :meth:`record` also holds one profiler-level
lock around its cross-instrument update so that recorders on more
than one thread (a library engine shared across threads) never
interleave their per-dispatch updates.
"""

from __future__ import annotations

import threading
from typing import Sequence

from fragalign.obs.metrics import MetricsRegistry, parse_exposition

__all__ = ["KernelProfiler", "top_rows", "top_rows_from_exposition", "format_top"]

_LABELS = ("family", "backend", "mode")


class KernelProfiler:
    """Feeds kernel-dispatch timings into a metrics registry."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._lock = threading.Lock()
        self._calls = registry.counter(
            "fragalign_kernel_calls_total",
            "Engine kernel dispatches by family/backend/mode.",
            labels=_LABELS,
        )
        self._pairs = registry.counter(
            "fragalign_kernel_pairs_total",
            "Sequence pairs computed by kernel dispatches.",
            labels=_LABELS,
        )
        self._cells = registry.counter(
            "fragalign_kernel_cells_total",
            "DP cells computed by kernel dispatches.",
            labels=_LABELS,
        )
        self._seconds = registry.counter(
            "fragalign_kernel_seconds_total",
            "Wall seconds spent inside kernel dispatches.",
            labels=_LABELS,
        )
        self._max_batch = registry.gauge(
            "fragalign_kernel_max_batch",
            "Largest batch (pairs) seen per kernel family.",
            labels=_LABELS,
        )

    def record(
        self,
        family: str,
        backend: str,
        mode: str,
        shapes: Sequence[tuple[int, int]],
        seconds: float,
    ) -> None:
        """One kernel dispatch: ``shapes`` is the batch's (len(a), len(b))
        list; cells is the summed DP area (band-agnostic upper bound —
        honest enough for throughput trends, and identical to how the
        engine benchmarks count)."""
        labels = {"family": family, "backend": backend, "mode": mode}
        cells = sum(n * m for n, m in shapes)
        with self._lock:
            self._calls.inc(**labels)
            self._pairs.inc(len(shapes), **labels)
            self._cells.inc(cells, **labels)
            self._seconds.inc(seconds, **labels)
            self._max_batch.set_max(len(shapes), **labels)


def _rows_from_samples(samples: dict) -> list[dict]:
    per_key: dict[tuple[str, str, str], dict] = {}

    def slot(labels: tuple[tuple[str, str], ...]) -> dict | None:
        d = dict(labels)
        if set(d) != set(_LABELS):
            return None
        key = (d["family"], d["backend"], d["mode"])
        return per_key.setdefault(
            key,
            {
                "family": d["family"], "backend": d["backend"], "mode": d["mode"],
                "calls": 0.0, "pairs": 0.0, "cells": 0.0, "seconds": 0.0,
                "max_batch": 0.0,
            },
        )

    field_by_metric = {
        "fragalign_kernel_calls_total": "calls",
        "fragalign_kernel_pairs_total": "pairs",
        "fragalign_kernel_cells_total": "cells",
        "fragalign_kernel_seconds_total": "seconds",
    }
    for (name, labels), value in samples.items():
        field = field_by_metric.get(name)
        if field is not None:
            row = slot(labels)
            if row is not None:
                row[field] += value
        elif name == "fragalign_kernel_max_batch":
            row = slot(labels)
            if row is not None:
                row["max_batch"] = max(row["max_batch"], value)
    rows = []
    for row in per_key.values():
        row["mcells_per_s"] = (
            row["cells"] / row["seconds"] / 1e6 if row["seconds"] > 0 else 0.0
        )
        rows.append(row)
    rows.sort(key=lambda r: r["seconds"], reverse=True)
    return rows


def top_rows(registry: MetricsRegistry) -> list[dict]:
    """The ``fragalign top`` table from a live registry."""
    return top_rows_from_exposition(registry.render())


def top_rows_from_exposition(text: str) -> list[dict]:
    """The ``fragalign top`` table from scraped Prometheus text
    (single shard or a merged cluster exposition)."""
    return _rows_from_samples(parse_exposition(text)["samples"])


def format_top(rows: list[dict]) -> str:
    """Fixed-width human rendering of the kernel-profile table."""
    if not rows:
        return "no kernel-profile samples (is profiling enabled?)\n"
    header = (
        f"{'FAMILY':<12} {'BACKEND':<10} {'MODE':<8} {'CALLS':>7} "
        f"{'PAIRS':>9} {'MAXB':>5} {'CELLS':>12} {'SECONDS':>9} {'MCELLS/S':>9}"
    )
    lines = [header]
    for r in rows:
        lines.append(
            f"{r['family']:<12} {r['backend']:<10} {r['mode']:<8} "
            f"{int(r['calls']):>7} {int(r['pairs']):>9} {int(r['max_batch']):>5} "
            f"{int(r['cells']):>12} {r['seconds']:>9.3f} {r['mcells_per_s']:>9.1f}"
        )
    return "\n".join(lines) + "\n"
