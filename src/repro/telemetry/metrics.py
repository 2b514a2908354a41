"""Always-on aggregated metrics: counters, gauges, log-scale histograms.

PR 7's span tracing is an *event log*: rich, but off by default and
unbounded at service timescales.  This module is the complementary
*metrics plane* every long-lived service is actually run on — a
process-local, thread-safe registry of *aggregates* that is always on:

* **counters** — monotonic tallies (jobs completed, leases expired);
* **gauges** — instantaneous levels (queue depth, worker uptime);
* **histograms** — fixed-bucket log-scale distributions (job latency).

Cost model: one dict update under one lock per sample, no per-event
allocation beyond the first observation of a series, and **no event
log** — a counter incremented a billion times occupies one float.  That
is what makes it safe to leave on unconditionally, unlike the span
layer.

Aggregation happens in place at the existing hot seams two ways:

* *push* — instrumented modules record facts and levels through
  :func:`repro.telemetry.event` / :func:`~repro.telemetry.sample`
  (worker job outcomes, queue transitions, DAG layer progress);
* *pull* — **collectors** run at snapshot time and export state the
  codebase already aggregates in place (the pair-kernel counter frame
  of :mod:`repro.geometry.pairindex`, the store read-cache stats of
  :func:`repro.engine.store.read_cache_stats`), so the hottest paths
  pay nothing extra at all.

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain JSON-able dicts;
:mod:`repro.telemetry.export` renders them as Prometheus text or JSON,
serves them over HTTP, and writes atomic file snapshots under
``<store>/telemetry/metrics/``.  Like every telemetry surface, metrics
never touch a content hash: nothing here flows into a spec payload or a
store artifact.

Metric and label names are validated against the Prometheus data model
on first use, so the text exposition is valid by construction.
"""

from __future__ import annotations

import logging
import math
import os
import re
import socket
import threading
import time
from typing import Callable, Iterable

__all__ = [
    "DEFAULT_BUCKETS",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "metrics_registry",
    "reset_metrics",
]

logger = logging.getLogger("repro.telemetry.metrics")

#: Version stamp of the snapshot document schema.
METRICS_SCHEMA = 1

#: Default histogram bounds: log-scale (powers of two) from 1 ms to
#: ~65 s — covering everything from a store cache hit to an ultra-scale
#: metric step.  Observations above the last bound land in the implicit
#: ``+Inf`` bucket, so the tail is never lost, only coarsened.
DEFAULT_BUCKETS = tuple(0.001 * 2.0**i for i in range(17))

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: A series key: the metric name plus its sorted ``(label, value)`` pairs.
SeriesKey = tuple[str, tuple[tuple[str, str], ...]]


def _series_key(name: str, labels: dict) -> SeriesKey:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"invalid metric name {name!r} (want [a-zA-Z_:][a-zA-Z0-9_:]*)"
        )
    if not labels:
        return (name, ())
    pairs = []
    for label, value in sorted(labels.items()):
        if not _LABEL_RE.match(label):
            raise ValueError(
                f"invalid label name {label!r} on metric {name!r}"
            )
        pairs.append((label, str(value)))
    return (name, tuple(pairs))


class MetricsRegistry:
    """Thread-safe process-local metric aggregation.

    ``clock`` is any zero-argument callable returning wall-clock seconds
    (defaults to :func:`time.time`); snapshots stamp it so consumers can
    compute rates between two snapshots of the same process.
    """

    def __init__(self, clock: Callable[[], float] | None = None):
        self._clock = clock if clock is not None else time.time
        self._lock = threading.Lock()
        self._counters: dict[SeriesKey, float] = {}
        self._gauges: dict[SeriesKey, float] = {}
        # histogram series: key -> [bucket counts (len(bounds)+1), sum, n]
        self._hists: dict[SeriesKey, list] = {}
        self._hist_bounds: dict[str, tuple[float, ...]] = {}
        self._collectors: dict[str, Callable[["MetricsRegistry"], None]] = {}
        self.started_at = self._clock()

    # -- write paths --------------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        """Add ``value`` to a counter series (monotonic tally)."""
        key = _series_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + float(value)

    def set_total(self, name: str, value: float, **labels) -> None:
        """Set a counter series to an absolute cumulative total.

        The pull path for state the codebase already accumulates in
        place (collectors): the source owns the monotonic total, the
        registry just mirrors it.
        """
        key = _series_key(name, labels)
        with self._lock:
            self._counters[key] = float(value)

    def set(self, name: str, value: float, **labels) -> None:
        """Set a gauge series to an instantaneous level."""
        key = _series_key(name, labels)
        with self._lock:
            self._gauges[key] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        buckets: Iterable[float] | None = None,
        **labels,
    ) -> None:
        """Record one observation into a fixed-bucket histogram.

        The bucket bounds of a histogram name are pinned by its first
        observation (``buckets`` or :data:`DEFAULT_BUCKETS`); later
        calls may omit them.  Bounds must be strictly increasing.
        """
        key = _series_key(name, labels)
        value = float(value)
        with self._lock:
            bounds = self._hist_bounds.get(name)
            if bounds is None:
                bounds = tuple(
                    float(b) for b in (buckets or DEFAULT_BUCKETS)
                )
                if not bounds or any(
                    b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
                ):
                    raise ValueError(
                        f"histogram bounds of {name!r} must be strictly "
                        f"increasing and non-empty, got {bounds}"
                    )
                self._hist_bounds[name] = bounds
            state = self._hists.get(key)
            if state is None:
                state = self._hists[key] = [[0] * (len(bounds) + 1), 0.0, 0]
            counts, _, _ = state
            # First bound >= value; the +Inf bucket is the last slot.
            lo, hi = 0, len(bounds)
            while lo < hi:
                mid = (lo + hi) // 2
                if value <= bounds[mid]:
                    hi = mid
                else:
                    lo = mid + 1
            counts[lo] += 1
            state[1] += value
            state[2] += 1

    # -- collectors ---------------------------------------------------------

    def add_collector(
        self, name: str, fn: Callable[["MetricsRegistry"], None]
    ) -> None:
        """Register a pull-time exporter run by every :meth:`snapshot`.

        A collector receives the registry and mirrors externally
        aggregated state via :meth:`set_total` / :meth:`set`.  A raising
        collector is skipped (logged at debug), never fatal — the
        metrics plane must not take the worker down with it.
        """
        self._collectors[name] = fn

    def remove_collector(self, name: str) -> None:
        """Drop a collector by name (no-op when absent)."""
        self._collectors.pop(name, None)

    # -- read path ----------------------------------------------------------

    def snapshot(self, run_collectors: bool = True) -> dict:
        """One JSON-able snapshot of every series (stable ordering)."""
        if run_collectors:
            for name, fn in list(self._collectors.items()):
                try:
                    fn(self)
                except Exception:
                    logger.debug("collector %s failed", name, exc_info=True)
        with self._lock:
            counters = [
                {"name": name, "labels": dict(pairs), "value": value}
                for (name, pairs), value in sorted(self._counters.items())
            ]
            gauges = [
                {"name": name, "labels": dict(pairs), "value": value}
                for (name, pairs), value in sorted(self._gauges.items())
            ]
            histograms = [
                {
                    "name": name,
                    "labels": dict(pairs),
                    "bounds": list(self._hist_bounds[name]),
                    "counts": list(counts),
                    "sum": total,
                    "count": n,
                }
                for (name, pairs), (counts, total, n) in sorted(
                    self._hists.items()
                )
            ]
        return {
            "schema": METRICS_SCHEMA,
            "host": socket.gethostname(),
            "pid": os.getpid(),
            "started_at": self.started_at,
            "written_at": self._clock(),
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def counter_value(self, name: str, **labels) -> float:
        """Current value of one counter series (0.0 when unseen)."""
        with self._lock:
            return self._counters.get(_series_key(name, labels), 0.0)

    def reset(self) -> None:
        """Zero every series (test isolation; collectors are kept)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._hists.clear()
            self._hist_bounds.clear()
        self.started_at = self._clock()


# ---------------------------------------------------------------------------
# built-in collectors: state the codebase already aggregates in place
# ---------------------------------------------------------------------------

def _collect_pair_counters(registry: MetricsRegistry) -> None:
    """Mirror the process-global pair-kernel counter frame.

    ``index_builds`` / ``delta_updates`` / ``index_reuses`` and the
    candidate/exact pruning tallies accumulate in place inside the
    kernels (PR 6/9); exporting them is a pull, not extra hot-path work.
    """
    from ..geometry.pairindex import pair_index_counters

    for field, value in pair_index_counters().as_dict().items():
        registry.set_total(f"repro_pair_{field}_total", value)


def _collect_store_read_cache(registry: MetricsRegistry) -> None:
    """Mirror the store read-cache stats (hits/misses/evictions/mmap)."""
    from ..engine.store import read_cache_stats

    for field, value in read_cache_stats().items():
        registry.set_total(f"repro_store_read_cache_{field}_total", value)


def _collect_process(registry: MetricsRegistry) -> None:
    """Process-level vitals cheap enough to pull every snapshot."""
    registry.set(
        "repro_process_uptime_seconds",
        max(0.0, registry._clock() - registry.started_at),
    )
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF)
        # ru_maxrss is KiB on Linux, bytes on macOS; normalize to bytes.
        scale = 1 if os.uname().sysname == "Darwin" else 1024
        registry.set("repro_process_max_rss_bytes", usage.ru_maxrss * scale)
    except (ImportError, AttributeError, OSError):  # pragma: no cover
        pass


# ---------------------------------------------------------------------------
# the process-global registry and its always-on front door
# ---------------------------------------------------------------------------

_GLOBAL: MetricsRegistry | None = None
_GLOBAL_LOCK = threading.Lock()


def metrics_registry() -> MetricsRegistry:
    """The process-global registry (created on first use)."""
    global _GLOBAL
    if _GLOBAL is None:
        with _GLOBAL_LOCK:
            if _GLOBAL is None:
                registry = MetricsRegistry()
                registry.add_collector("pair_kernels", _collect_pair_counters)
                registry.add_collector(
                    "store_read_cache", _collect_store_read_cache
                )
                registry.add_collector("process", _collect_process)
                _GLOBAL = registry
    return _GLOBAL


def reset_metrics() -> None:
    """Zero the global registry's series (test isolation)."""
    metrics_registry().reset()


def _fmt_value(value: float) -> str:
    """Prometheus-friendly number formatting (ints stay integral)."""
    if value != value:  # NaN
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
