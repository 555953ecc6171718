"""``fragalign.obs`` — telemetry for the serving stack.

Three legs, all wired through every layer:

* :mod:`fragalign.obs.trace` — request tracing.  A ``trace_id`` /
  ``span_id`` pair rides the JSON-lines wire as *non-semantic* fields
  (registered in ``fragalign/job.py`` with every participation flag
  off, which the knob-propagation analyzer enforces — tracing can
  never split a batch or enter a cache key).  Per-stage spans land in
  a bounded ring buffer, drained via the ``trace`` op.
* :mod:`fragalign.obs.metrics` — a counters/gauges/histograms registry
  with Prometheus text exposition (the ``metrics`` op), fixed
  log-spaced histogram buckets (mergeable across shards, no recency
  bias), and scrape-side parse/merge for ``fragalign metrics``.
* :mod:`fragalign.obs.kprof` — kernel profiling: the engine facade
  times every backend dispatch into the registry, and ``fragalign
  top`` renders Mcells/s by kernel family / backend / mode.

:mod:`fragalign.obs.logs` adds structured (optionally JSON) logging
for lifecycle events that metrics can't narrate: shard eviction,
failover retries, server start/stop.

The v2 layer turns the telemetry into operations:

* :mod:`fragalign.obs.slo` — declarative SLO targets evaluated as
  multi-window burn rates (the ``slo`` op, ``fragalign slo``, and the
  ``fragalign_slo_*`` gauges).
* :mod:`fragalign.obs.sampling` — tail-based trace sampling: head-
  sample boring traces, always retain slow and errored ones, and pin
  retained trace ids to histogram buckets as exemplars.
* :mod:`fragalign.obs.journal` — the workload flight recorder and
  ``fragalign replay``.
* :mod:`fragalign.obs.dash` — the ``fragalign dash`` terminal
  dashboard's pure state/render halves.
"""

from fragalign.obs.dash import build_state, render_frame
from fragalign.obs.journal import (
    JournalWriter,
    diff_report,
    format_diff_report,
    read_journal,
    replay_journal,
    synth_sequence,
)
from fragalign.obs.kprof import KernelProfiler, format_top, top_rows
from fragalign.obs.sampling import TailSampler
from fragalign.obs.slo import (
    DEFAULT_SLOS,
    SLOEngine,
    SLOTarget,
    format_slo_report,
    parse_slo,
)
from fragalign.obs.logs import JsonFormatter, configure_logging, get_logger
from fragalign.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_latency_buckets,
    exemplar_for_quantile,
    histogram_quantile_from_samples,
    merge_expositions,
    parse_exposition,
)
from fragalign.obs.trace import (
    Span,
    TraceBuffer,
    TraceContext,
    Tracer,
    child_context,
    new_trace_context,
)

__all__ = [
    "Counter",
    "DEFAULT_SLOS",
    "Gauge",
    "Histogram",
    "JournalWriter",
    "JsonFormatter",
    "KernelProfiler",
    "MetricsRegistry",
    "SLOEngine",
    "SLOTarget",
    "Span",
    "TailSampler",
    "TraceBuffer",
    "TraceContext",
    "Tracer",
    "build_state",
    "child_context",
    "configure_logging",
    "default_latency_buckets",
    "diff_report",
    "exemplar_for_quantile",
    "format_diff_report",
    "format_slo_report",
    "format_top",
    "get_logger",
    "histogram_quantile_from_samples",
    "merge_expositions",
    "new_trace_context",
    "parse_exposition",
    "parse_slo",
    "read_journal",
    "render_frame",
    "replay_journal",
    "synth_sequence",
    "top_rows",
]
