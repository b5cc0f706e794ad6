"""Run metrics: counters, gauges, timers and fixed-bucket histograms.

One :class:`MetricsRegistry` lives for the duration of a run (or a whole
experiment sweep) and hands out named instruments.  Design constraints,
in order:

1. **Cheap when off.**  The shared :data:`NULL_METRICS` registry returns
   no-op instruments, so library code holds one reference and calls it
   unconditionally — no ``if metrics is not None`` branches on the solve
   path.
2. **Cheap when on.**  Every instrument uses ``__slots__`` and its
   record path is O(1): a counter increment, a gauge store, a clamped
   list-index increment for histograms.  The engines additionally batch
   per-move observations in local variables and flush once per pass (see
   ``sanchis/engine.py``), which is what keeps metrics-on runs within
   the 2% instrumentation budget that the ``instrumentation_overhead``
   case of ``benchmarks/bench_perf_regression.py`` measures.
3. **Deterministic output.**  :meth:`MetricsRegistry.snapshot` sorts
   every instrument by name so dumps diff cleanly across runs.

Instrument names are dotted paths (``sanchis.moves_tried``); the full
catalogue recorded by the partitioner is documented in DESIGN.md
(section "Observability").
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

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
    "labelled_key",
]

#: Version of the JSON dump layout written by :meth:`MetricsRegistry.dump_json`.
METRICS_SCHEMA = 1

#: Shared clamp range of the move-gain histograms recorded by the FM and
#: Sanchis engines: buckets cover ``[GAIN_HIST_LO, GAIN_HIST_HI)`` and
#: out-of-range gains are clamped into the edge buckets at accumulation
#: time (the engines bucket into a local list during the pass and fold
#: it in once at the pass boundary via :meth:`Histogram.add_buckets`).
GAIN_HIST_LO = -8
GAIN_HIST_HI = 9


def labelled_key(name: str, labels: Optional[Dict[str, str]] = None) -> str:
    """Registry key of a (possibly labelled) instrument.

    Labels are rendered in OpenMetrics label syntax, sorted by label
    name and value-escaped, e.g. ``serve.active{tenant="acme"}`` — so
    the exporter (``repro.obs.export``) can split the key on the first
    ``{`` and reuse the label string verbatim.  Unlabelled instruments
    keep their plain dotted name, which is why this is fully backward
    compatible with every existing snapshot consumer.
    """
    if not labels:
        return name
    inner = ",".join(
        "{}=\"{}\"".format(
            key,
            str(value)
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n"),
        )
        for key, value in sorted(labels.items())
    )
    return name + "{" + inner + "}"


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A last-value (or running-max) numeric instrument."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def set_max(self, value: float) -> None:
        if value > self.value:
            self.value = value


class Timer:
    """Accumulated wall-clock time over any number of timed sections.

    Usable as a context manager::

        with registry.timer("fpart.phase.improve"):
            ...

    Uses :func:`time.perf_counter`; nesting the same timer is not
    supported (the inner section would overwrite the start stamp).
    """

    __slots__ = ("name", "total_seconds", "count", "_t0")

    def __init__(self, name: str) -> None:
        self.name = name
        self.total_seconds = 0.0
        self.count = 0
        self._t0: Optional[float] = None

    def __enter__(self) -> "Timer":
        from time import perf_counter

        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        from time import perf_counter

        if self._t0 is not None:
            self.total_seconds += perf_counter() - self._t0
            self.count += 1
            self._t0 = None


class Histogram:
    """Fixed-bucket integer-edge histogram with an O(1) record path.

    Buckets are ``width``-wide, covering ``[lo, hi)``; values outside
    the range land in the under/overflow buckets instead of raising, so
    the record path never branches on data-dependent errors.
    """

    __slots__ = ("name", "lo", "hi", "width", "counts", "underflow",
                 "overflow", "total", "sum")

    def __init__(self, name: str, lo: int, hi: int, width: int = 1) -> None:
        if hi <= lo:
            raise ValueError("histogram range must be non-empty")
        if width < 1:
            raise ValueError("bucket width must be positive")
        self.name = name
        self.lo = lo
        self.hi = hi
        self.width = width
        self.counts: List[int] = [0] * ((hi - lo + width - 1) // width)
        self.underflow = 0
        self.overflow = 0
        self.total = 0
        self.sum = 0

    def record(self, value: int) -> None:
        self.total += 1
        self.sum += value
        if value < self.lo:
            self.underflow += 1
        elif value >= self.hi:
            self.overflow += 1
        else:
            self.counts[(value - self.lo) // self.width] += 1

    def record_many(self, values: Iterable[int]) -> None:
        for value in values:
            self.record(value)

    def add_buckets(self, counts: Sequence[int]) -> None:
        """Merge a pre-bucketed local accumulation array (pass flush).

        ``counts`` must have the histogram's exact bucket count; the
        engines accumulate into a plain local list during a pass and
        fold it in here once, keeping per-move work off the registry.
        """
        if len(counts) != len(self.counts):
            raise ValueError(
                f"bucket count mismatch: {len(counts)} != {len(self.counts)}"
            )
        own = self.counts
        lo = self.lo
        width = self.width
        for i, n in enumerate(counts):
            if n:
                own[i] += n
                self.total += n
                self.sum += n * (lo + i * width)

    def to_dict(self) -> Dict[str, object]:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "width": self.width,
            "counts": list(self.counts),
            "underflow": self.underflow,
            "overflow": self.overflow,
            "total": self.total,
            "sum": self.sum,
        }


class MetricsRegistry:
    """Named instruments of one run (or one aggregated sweep).

    Instruments are created on first use and shared thereafter;
    re-requesting a histogram with different bounds keeps the original
    bounds (the first caller wins — bounds are code constants, not
    data).
    """

    __slots__ = ("_counters", "_gauges", "_timers", "_histograms")

    #: False only on the null registry; engines check this once per pass
    #: to skip local accumulation entirely.
    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._timers: Dict[str, Timer] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> Counter:
        name = labelled_key(name, labels)
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> Gauge:
        name = labelled_key(name, labels)
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def timer(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> Timer:
        name = labelled_key(name, labels)
        instrument = self._timers.get(name)
        if instrument is None:
            instrument = self._timers[name] = Timer(name)
        return instrument

    def histogram(
        self,
        name: str,
        lo: int = 0,
        hi: int = 16,
        width: int = 1,
        labels: Optional[Dict[str, str]] = None,
    ) -> Histogram:
        name = labelled_key(name, labels)
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(
                name, lo, hi, width
            )
        return instrument

    # -- aggregation -----------------------------------------------------

    def merge(self, snapshot: Dict[str, Dict[str, object]]) -> "MetricsRegistry":
        """Fold one :meth:`snapshot` dict into this live registry.

        The cross-process aggregation primitive: sharded sweeps and
        restart portfolios run each worker under its own registry, ship
        the snapshot back (pickled dict), and the parent folds every
        snapshot in here.  Semantics match :func:`merge_snapshots` —
        counters/timers/histograms sum, gauges keep the maximum — so
        ``jobs=N`` aggregates equal the serial single-registry totals.
        Returns self for chaining.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set_max(value)
        for name, value in snapshot.get("timers", {}).items():
            timer = self.timer(name)
            timer.total_seconds += value["total_seconds"]
            timer.count += value["count"]
        for name, value in snapshot.get("histograms", {}).items():
            histogram = self.histogram(
                name, lo=value["lo"], hi=value["hi"], width=value["width"]
            )
            if (
                histogram.lo != value["lo"]
                or histogram.hi != value["hi"]
                or histogram.width != value["width"]
            ):
                raise ValueError(
                    f"histogram {name!r}: incompatible bucket layouts"
                )
            histogram.counts = [
                a + b for a, b in zip(histogram.counts, value["counts"])
            ]
            histogram.underflow += value["underflow"]
            histogram.overflow += value["overflow"]
            histogram.total += value["total"]
            histogram.sum += value["sum"]
        return self

    # -- output ----------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Deterministic nested dict of every instrument (sorted names)."""
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value
                for name in sorted(self._gauges)
            },
            "timers": {
                name: {
                    "total_seconds": self._timers[name].total_seconds,
                    "count": self._timers[name].count,
                }
                for name in sorted(self._timers)
            },
            "histograms": {
                name: self._histograms[name].to_dict()
                for name in sorted(self._histograms)
            },
        }

    def dump_json(
        self,
        path: Union[str, Path],
        run_id: str = "",
        extra: Optional[Dict[str, object]] = None,
    ) -> Path:
        """Write the snapshot as a JSON document; returns the path.

        The write is atomic (:func:`~repro.obs.runstore.atomic_write_text`),
        so a run killed mid-dump never leaves a truncated metrics file
        behind.
        """
        payload: Dict[str, object] = {
            "schema": METRICS_SCHEMA,
            "run_id": run_id,
            "metrics": self.snapshot(),
        }
        if extra:
            payload.update(extra)
        # Deferred: the run store imports this module.
        from .runstore import atomic_write_text

        return atomic_write_text(
            path, json.dumps(payload, indent=1, sort_keys=True) + "\n"
        )


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def set_max(self, value: float) -> None:
        pass


class _NullTimer(Timer):
    __slots__ = ()

    def __enter__(self) -> "Timer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def __init__(self, name: str) -> None:
        super().__init__(name, 0, 1)

    def record(self, value: int) -> None:
        pass

    def record_many(self, values: Iterable[int]) -> None:
        pass

    def add_buckets(self, counts: Sequence[int]) -> None:
        pass


class NullMetricsRegistry(MetricsRegistry):
    """The do-nothing registry behind :data:`NULL_METRICS`.

    Hands out shared null instruments, so uninstrumented runs pay one
    no-op method call at flush points and nothing per move (engines gate
    per-move accumulation on :attr:`enabled`).
    """

    __slots__ = ("_null_counter", "_null_gauge", "_null_timer", "_null_hist")

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = _NullCounter("null")
        self._null_gauge = _NullGauge("null")
        self._null_timer = _NullTimer("null")
        self._null_hist = _NullHistogram("null")

    def counter(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> Counter:
        return self._null_counter

    def gauge(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> Gauge:
        return self._null_gauge

    def timer(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> Timer:
        return self._null_timer

    def histogram(
        self,
        name: str,
        lo: int = 0,
        hi: int = 16,
        width: int = 1,
        labels: Optional[Dict[str, str]] = None,
    ) -> Histogram:
        return self._null_hist

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        return {"counters": {}, "gauges": {}, "timers": {}, "histograms": {}}

    def merge(
        self, snapshot: Dict[str, Dict[str, object]]
    ) -> "MetricsRegistry":
        return self


#: Shared no-op registry used when a caller does not supply one.
NULL_METRICS = NullMetricsRegistry()


def merge_snapshots(
    snapshots: Sequence[Dict[str, Dict[str, object]]]
) -> Dict[str, Dict[str, object]]:
    """Aggregate snapshots across runs (an experiment sweep).

    Counters, timers and histograms are summed; gauges keep the maximum
    (every gauge the partitioner records is a peak/size, for which max
    is the meaningful aggregate).  Histograms with mismatched bucket
    layouts cannot be merged and raise ``ValueError`` — layouts are code
    constants, so a mismatch means two incompatible code versions.
    """
    merged: Dict[str, Dict[str, object]] = {
        "counters": {},
        "gauges": {},
        "timers": {},
        "histograms": {},
    }
    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        for name, value in snap.get("gauges", {}).items():
            if name not in merged["gauges"] or value > merged["gauges"][name]:
                merged["gauges"][name] = value
        for name, value in snap.get("timers", {}).items():
            slot = merged["timers"].setdefault(
                name, {"total_seconds": 0.0, "count": 0}
            )
            slot["total_seconds"] += value["total_seconds"]
            slot["count"] += value["count"]
        for name, value in snap.get("histograms", {}).items():
            slot = merged["histograms"].get(name)
            if slot is None:
                merged["histograms"][name] = {
                    "lo": value["lo"],
                    "hi": value["hi"],
                    "width": value["width"],
                    "counts": list(value["counts"]),
                    "underflow": value["underflow"],
                    "overflow": value["overflow"],
                    "total": value["total"],
                    "sum": value["sum"],
                }
                continue
            if (
                slot["lo"] != value["lo"]
                or slot["hi"] != value["hi"]
                or slot["width"] != value["width"]
            ):
                raise ValueError(
                    f"histogram {name!r}: incompatible bucket layouts"
                )
            slot["counts"] = [
                a + b for a, b in zip(slot["counts"], value["counts"])
            ]
            slot["underflow"] += value["underflow"]
            slot["overflow"] += value["overflow"]
            slot["total"] += value["total"]
            slot["sum"] += value["sum"]
    return {
        section: dict(sorted(values.items()))
        for section, values in merged.items()
    }
