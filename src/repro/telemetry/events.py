"""One call per fact: :func:`event` for facts, :func:`sample` for levels.

Each call reaches every sink: the span log (a ``counter``/``gauge``
sample, when a recorder is active), the always-on metrics registry
(under :func:`series_name`), the flight ring (events only: every crash
dump already carries the latest levels in its metrics snapshot) and the
logger ``repro.<first name segment>`` at ``level`` — DEBUG by default,
so routine facts stay off stderr.  ``labels`` become Prometheus labels
and must stay low-cardinality; other keywords (keys, owners, timings)
reach the span log, the ring and the log line only.  A mapping
``value`` records several quantities of one fact:
``event("plan", {"layers_done": 1, "jobs_done": 4})``.
"""

from __future__ import annotations

import logging
from typing import Mapping

from .core import active_recorder
from .flight import flight_recorder
from .metrics import metrics_registry

__all__ = ["event", "sample", "series_name"]

Value = float | Mapping[str, float]


def series_name(name: str, kind: str = "counter") -> str:
    """``queue.lease_expired`` -> ``repro_queue_lease_expired_total``.

    A gauge drops ``_total``; a timed fact's histogram is named for one
    occurrence: ``worker.jobs`` -> ``repro_worker_job_seconds``.
    """
    base = "repro_" + name.replace(".", "_")
    if kind == "counter":
        return base + "_total"
    if kind == "histogram":
        return base.removesuffix("s") + "_seconds"
    return base


def _parts(name: str, value: Value) -> dict[str, float]:
    if isinstance(value, Mapping):
        return {f"{name}.{sub}": v for sub, v in value.items()}
    return {name: value}


def _emit(kind: str, name: str, value: Value, labels: Mapping | None,
          level: int, message: str | None, fields: dict) -> str | None:
    labels = dict(labels or {})
    attrs = {**labels, **fields}
    registry = metrics_registry()
    write = registry.inc if kind == "counter" else registry.set
    recorder = active_recorder()
    for part, v in _parts(name, value).items():
        write(series_name(part, kind), v, **labels)
        if recorder is not None:
            recorder._sample(kind, part, v, attrs)
    values = dict(value) if isinstance(value, Mapping) else {"value": value}
    if kind == "counter":
        ring = {**values, **fields}
        if labels:  # nested: a ``kind`` label must not clobber the ring's
            ring["labels"] = labels
        flight_recorder().record("event", name, **ring)
    logger = logging.getLogger("repro." + name.partition(".")[0])
    if logger.isEnabledFor(level):
        logger.log(level, "%s", message or " ".join(
            [name] + [f"{k}={v}" for k, v in {**values, **attrs}.items()]
        ))
    return message


def event(
    name: str,
    value: Value = 1,
    *,
    labels: Mapping | None = None,
    level: int = logging.DEBUG,
    message: str | None = None,
    seconds: float | None = None,
    seconds_labels: Mapping | None = None,
    **fields,
) -> str | None:
    """Record one fact in every sink; returns ``message`` for the terminal.

    ``seconds`` also times the fact in the histogram
    ``series_name(name, "histogram")``, labelled by ``seconds_labels``
    when given, else by ``labels``.
    """
    if seconds is not None:
        metrics_registry().observe(
            series_name(name, "histogram"), seconds,
            **(labels or {} if seconds_labels is None else seconds_labels),
        )
        fields["seconds"] = round(seconds, 4)
    return _emit("counter", name, value, labels, level, message, fields)


def sample(
    name: str,
    value: Value,
    *,
    labels: Mapping | None = None,
    message: str | None = None,
    **fields,
) -> str | None:
    """Record one level in the span log, registry and (DEBUG) logger."""
    return _emit("gauge", name, value, labels, logging.DEBUG, message, fields)
