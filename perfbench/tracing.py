"""Per-layer spans recorded from outside the program.

The traced run installs thin wrappers around the public calls that
mark each layer boundary (listed in :data:`LAYER_TARGETS` and the
per-class hooks below), records one span per call (name, parent,
start, end) in memory, and restores the originals afterwards.  Nothing
under ``src/`` knows about it; the in-program ``REPRO_TELEMETRY`` spans
stay off.

Only calls made at most thousands of times per workload are wrapped:
``Box.intersect`` (over a million calls at deep scale) is deliberately
not, so the tracing overhead stays a small share of the wall time.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

#: ``(module, attribute-path, span name)`` of every wrapped function.
#: An attribute path with a dot wraps a method on a class.
LAYER_TARGETS = (
    ("repro.apps.base", "build_hierarchy", "apps.build_hierarchy"),
    ("repro.apps.base", "gradient_indicator", "apps.indicator"),
    ("repro.apps.base", "cluster_flags", "clustering.cluster_flags"),
    ("repro.apps.base", "buffer_flags", "clustering.buffer_flags"),
    ("repro.geometry.boxlist", "BoxList.disjointified", "geometry.disjointify"),
    ("repro.geometry.boxlist", "BoxList.coalesced", "geometry.coalesce"),
    ("repro.simulator.simulator", "TraceSimulator.measure_step",
     "simulator.measure_step"),
    ("repro.simulator.simulator", "ghost_face_stats", "simulator.ghost_faces"),
    ("repro.simulator.simulator", "interlevel_transfer_cells",
     "simulator.interlevel"),
    ("repro.simulator.simulator", "migration_cells", "simulator.migration"),
    ("repro.model.sampler", "StateSampler.sample_trace", "model.sample_trace"),
    ("repro.engine.executor", "build_plan", "engine.plan"),
    ("repro.engine.store", "ResultStore.put_trace", "engine.store.put"),
    ("repro.engine.store", "ResultStore.put_result", "engine.store.put"),
    ("repro.engine.store", "ResultStore.get_trace", "engine.store.get"),
    ("repro.engine.store", "ResultStore.get_result", "engine.store.get"),
    ("repro.experiments.figures", "figure1", "experiments.render"),
    ("repro.experiments.figures", "figure_app", "experiments.render"),
    ("repro.experiments.report", "render_figure1", "experiments.render"),
    ("repro.experiments.report", "render_figure_app", "experiments.render"),
)


def metric_name(partitioner: str) -> str:
    """Registry name as it appears in metric names (``+`` becomes ``-``)."""
    return partitioner.replace("+", "-")


def _defining_class(cls: type, attr: str) -> type:
    for klass in cls.__mro__:
        if attr in vars(klass):
            return klass
    raise AttributeError(f"{cls.__name__} has no attribute {attr!r}")


class SpanRecorder:
    """In-memory span log plus the structural counts taken at the spans.

    ``spans`` rows are ``[name, parent index or -1, start, end]`` in
    ``time.perf_counter`` seconds.  Single-threaded by design: the
    workloads run on the serial backend.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._partitioner: str | None = None
        self._in_partition = False
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------
    def _call(self, name, fn, args, kwargs):
        index = len(self.spans)
        row = [name, self._stack[-1] if self._stack else -1,
               time.perf_counter(), None]
        self.spans.append(row)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            row[3] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    # -- hooks with extra accounting -----------------------------------------
    def _hierarchy_hook(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hierarchy = self._call("apps.build_hierarchy", fn, args, kwargs)
            self.counts["hierarchy.snapshots"] += 1
            self.counts["hierarchy.patches"] += hierarchy.npatches
            self.counts["hierarchy.cells"] += hierarchy.ncells
            return hierarchy

        return wrapper

    def _advance_hook(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts["apps.advance_calls"] += 1
            return self._call("apps.advance", fn, args, kwargs)

        return wrapper

    def _execute_hook(self, fn):
        # Context only, no span: tells the partition hook which
        # registered partitioner the running spec asked for.
        @functools.wraps(fn)
        def wrapper(spec, *args, **kwargs):
            outer = self._partitioner
            self._partitioner = spec.partitioner if spec.kind == "sim" else None
            try:
                return fn(spec, *args, **kwargs)
            finally:
                self._partitioner = outer

        return wrapper

    def _partition_hook(self, fn):
        @functools.wraps(fn)
        def wrapper(partitioner, hierarchy, *args, **kwargs):
            if self._in_partition:  # a wrapper partitioner's inner call
                return fn(partitioner, hierarchy, *args, **kwargs)
            name = metric_name(self._partitioner or type(partitioner).__name__)
            self._in_partition = True
            try:
                result = self._call(
                    f"partition.{name}", fn,
                    (partitioner, hierarchy) + args, kwargs,
                )
            finally:
                self._in_partition = False
            self.counts[f"partition.{name}.owner_boxes"] += sum(
                owner_map.nboxes for owner_map in result.maps
            )
            self.counts[f"partition.{name}.patches"] += hierarchy.npatches
            return result

        return wrapper

    # -- install / remove -----------------------------------------------------
    def install(self) -> None:
        """Wrap every layer boundary; :meth:`remove` undoes it."""
        from repro.apps import APPLICATIONS
        from repro.engine import create, registry

        hooks = {"apps.build_hierarchy": self._hierarchy_hook}
        for module_name, path, name in LAYER_TARGETS:
            owner = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for cls_name in classes:
                owner = getattr(owner, cls_name)
            hook = hooks.get(name, functools.partial(self._wrap, name))
            self._patch(owner, attr, hook(vars(owner)[attr]))
        executor = importlib.import_module("repro.engine.executor")
        self._patch(executor, "execute", self._execute_hook(executor.execute))
        wrapped: set[tuple[type, str]] = set()
        for app in APPLICATIONS.values():
            for attr, hook in (
                ("advance", self._advance_hook),
                ("indicator_field", functools.partial(self._wrap,
                                                      "apps.indicator")),
            ):
                owner = _defining_class(app, attr)
                if (owner, attr) not in wrapped:
                    wrapped.add((owner, attr))
                    self._patch(owner, attr, hook(vars(owner)[attr]))
        for name in registry("partitioner"):
            owner = _defining_class(type(create("partitioner", name)),
                                    "partition")
            if (owner, "partition") not in wrapped:
                wrapped.add((owner, "partition"))
                self._patch(owner, "partition",
                            self._partition_hook(vars(owner)["partition"]))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reduction -------------------------------------------------------------
    def summary(self) -> dict:
        """What a traced pass hands back: spans, layer table, counts."""
        return {"spans": self.spans, "layers": self.layer_table(),
                "counts": structural_counts(self.counts),
                "advance_calls": self.counts["apps.advance_calls"]}

    def layer_table(self) -> dict[str, dict]:
        """Per span name: calls, total (outermost spans) and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, dict] = {}
        for index, (name, parent, start, end) in enumerate(self.spans):
            row = table.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[index]
            ancestor, nested = parent, False
            while ancestor >= 0:
                if self.spans[ancestor][0] == name:
                    nested = True
                    break
                ancestor = self.spans[ancestor][1]
            if not nested:
                row["total_s"] += end - start
        return table


# -- the per-layer metrics -------------------------------------------------------

#: Time metrics: ``metric -> (span name, "total" or "self")``.
TIME_METRICS = {
    "apps.advance_s": ("apps.advance", "total"),
    "apps.indicator_s": ("apps.indicator", "total"),
    "apps.build_hierarchy_s": ("apps.build_hierarchy", "total"),
    "apps.build_hierarchy.self_s": ("apps.build_hierarchy", "self"),
    "clustering.cluster_flags_s": ("clustering.cluster_flags", "total"),
    "clustering.buffer_flags_s": ("clustering.buffer_flags", "total"),
    "geometry.disjointify_s": ("geometry.disjointify", "total"),
    "geometry.coalesce_s": ("geometry.coalesce", "total"),
    "simulator.measure_step_s": ("simulator.measure_step", "total"),
    "simulator.ghost_faces_s": ("simulator.ghost_faces", "total"),
    "simulator.interlevel_s": ("simulator.interlevel", "total"),
    "simulator.migration_s": ("simulator.migration", "total"),
    "model.sample_trace_s": ("model.sample_trace", "total"),
    "engine.plan_s": ("engine.plan", "total"),
    "engine.store.put_s": ("engine.store.put", "total"),
    "engine.store.get_s": ("engine.store.get", "total"),
    "experiments.render_s": ("experiments.render", "total"),
}


def _static_partitioners() -> tuple[str, ...]:
    from repro.engine import registry

    return registry("partitioner").names(tag="static")


def structural_counts(raw) -> dict[str, float]:
    """Counts that must repeat bit for bit for one seed."""
    counts = {name: raw.get(name, 0) for name in
              ("hierarchy.snapshots", "hierarchy.patches", "hierarchy.cells")}
    for partitioner in _static_partitioners():
        prefix = f"partition.{metric_name(partitioner)}"
        boxes = raw.get(f"{prefix}.owner_boxes", 0)
        patches = raw.get(f"{prefix}.patches", 0)
        counts[f"{prefix}.owner_boxes"] = boxes
        counts[f"{prefix}.boxes_per_patch"] = boxes / patches if patches else 0.0
    return counts


def layer_metrics(trace: dict, traced: dict,
                  untraced_wall_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced pass, as ``(value, unit)``.

    ``trace`` is :meth:`SpanRecorder.summary`; ``traced`` the pass record.
    """
    table = trace["layers"]
    metrics: dict[str, tuple[float, str]] = {}
    for metric, (span, kind) in TIME_METRICS.items():
        row = table.get(span)
        metrics[metric] = (row[f"{kind}_s"] if row else 0.0, "s")
    metrics["apps.advance_calls"] = (trace["advance_calls"], "count")
    for partitioner in _static_partitioners():
        name = f"partition.{metric_name(partitioner)}"
        row = table.get(name)
        metrics[f"{name}.s"] = (row["total_s"] if row else 0.0, "s")
    for name, value in trace["counts"].items():
        unit = "boxes/patch" if name.endswith("boxes_per_patch") else "count"
        metrics[name] = (value, unit)
    pairs = traced["pair_counters"]
    for name in ("candidate_pairs", "exact_pairs", "index_builds",
                 "index_reuses", "delta_updates"):
        metrics[f"geometry.{name}"] = (pairs[name], "count")
    metrics["geometry.pair_yield"] = (
        pairs["exact_pairs"] / pairs["candidate_pairs"]
        if pairs["candidate_pairs"] else 0.0, "fraction")
    metrics["engine.store.bytes_written"] = (traced["bytes_written"], "bytes")
    metrics["engine.read_cache_hits"] = (traced["read_cache"]["hits"], "count")
    metrics["engine.read_cache_misses"] = (traced["read_cache"]["misses"],
                                           "count")
    wall = traced["wall_s"]
    covered = sum(row["self_s"] for row in table.values())
    metrics["bench.traced_wall_s"] = (wall, "s")
    metrics["bench.untraced_wall_s"] = (untraced_wall_s, "s")
    metrics["bench.trace_overhead_s"] = (wall - untraced_wall_s, "s")
    metrics["bench.unattributed_share"] = (max(0.0, wall - covered) / wall,
                                           "fraction")
    return metrics
