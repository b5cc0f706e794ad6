"""Run telemetry: metrics registry and pass-level trace stream.

Zero-dependency observability for partitioning runs, the third leg next
to the perf-regression harness and the run-guard subsystem:

* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges, timers and fixed-bucket histograms with an O(1) record path,
  threaded through the FPART driver, both improvement engines and the
  cost evaluator;
* :mod:`repro.obs.trace` — a :class:`TraceWriter` emitting a versioned
  JSONL event stream (``run_start`` … ``run_end``) stamped with the run
  id, the run-guard budget state and epoch-seconds ``t``, plus schema
  validation helpers.  It is the only event writer: CLI traces, serve
  job traces and the daemon's ``spans.jsonl`` all go through it;
* :mod:`repro.obs.spans` — the span model (trace/span ids, span tree
  reconstruction and rendering) over ``span_start``/``span_end``
  events;
* :mod:`repro.obs.runstore` — an append-only on-disk registry of
  finished runs (``fpart partition --runs-dir``, sweep records), the
  substrate of cross-run analysis;
* :mod:`repro.obs.compare` — run-vs-run / run-vs-baseline regression
  analysis over store records (``fpart history`` / ``fpart compare``);
* :mod:`repro.obs.export` — OpenMetrics text export of metrics
  snapshots and the trace → Chrome-tracing (catapult JSON) converter;
* :mod:`repro.obs.progress` — the :class:`HeartbeatEmitter` riding the
  run-guard tick for live ``progress`` events and ``--progress`` lines;
* :mod:`repro.obs.prof` — a zero-dependency sampling profiler (folded
  stacks, flamegraph SVG) and the per-run algorithm-phase attribution
  table (``fpart partition --prof`` / ``fpart flame`` /
  ``fpart report --phases``), plus the serve-path profile-on-slow
  capture.

Metrics and traces come with shared null implementations
(:data:`NULL_METRICS`, :data:`NULL_TRACE`) so uninstrumented runs pay
nothing: every solve-path component accepts the real object or the null
one through the same code path, mirroring the
:data:`~repro.core.runguard.NULL_GUARD` pattern.
"""

from .compare import (
    RunComparison,
    compare_records,
    compare_runs,
    quality_key,
    render_history,
)
from .export import (
    parse_openmetrics,
    to_openmetrics,
    trace_to_chrome,
    validate_openmetrics,
    write_chrome_trace,
    write_openmetrics,
)
from .metrics import (
    METRICS_SCHEMA,
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    Timer,
    labelled_key,
    merge_snapshots,
)
from .prof import (
    PROF_DEFAULT_HZ,
    PhaseRow,
    SamplingProfiler,
    attributed_fraction,
    fold_stacks,
    parse_folded,
    phase_table,
    render_flamegraph,
    render_phase_table,
)
from .progress import HeartbeatEmitter
from .spans import (
    SpanNode,
    build_span_tree,
    new_span_id,
    new_trace_id,
    render_span_tree,
)
from .runstore import (
    RUNSTORE_SCHEMA,
    RunRecord,
    RunStore,
    RunStoreError,
    atomic_write_text,
    run_metrics,
)
from .trace import (
    EVENT_TYPES,
    NULL_TRACE,
    TRACE_SCHEMA,
    NullTraceWriter,
    TraceWriter,
    cost_fields,
    read_trace,
    validate_event,
    validate_trace,
)

__all__ = [
    "METRICS_SCHEMA",
    "Counter",
    "Gauge",
    "Timer",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "merge_snapshots",
    "TRACE_SCHEMA",
    "EVENT_TYPES",
    "TraceWriter",
    "NullTraceWriter",
    "NULL_TRACE",
    "cost_fields",
    "read_trace",
    "validate_event",
    "validate_trace",
    "RUNSTORE_SCHEMA",
    "RunRecord",
    "RunStore",
    "RunStoreError",
    "atomic_write_text",
    "run_metrics",
    "RunComparison",
    "compare_records",
    "compare_runs",
    "quality_key",
    "render_history",
    "to_openmetrics",
    "validate_openmetrics",
    "parse_openmetrics",
    "write_openmetrics",
    "trace_to_chrome",
    "write_chrome_trace",
    "HeartbeatEmitter",
    "PROF_DEFAULT_HZ",
    "SamplingProfiler",
    "PhaseRow",
    "fold_stacks",
    "parse_folded",
    "render_flamegraph",
    "phase_table",
    "render_phase_table",
    "attributed_fraction",
    "labelled_key",
    "SpanNode",
    "build_span_tree",
    "render_span_tree",
    "new_trace_id",
    "new_span_id",
]
