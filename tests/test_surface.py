"""Guards on the configuration surface of the package.

Every environment switch multiplies the configurations the suite has to
cover, and a deprecation shim is a second code path with an expiry
date.  New ones must be added here deliberately, not slip in.
"""

from __future__ import annotations

import ast
import re
import threading
import time
from pathlib import Path

import pytest

import repro
from repro import telemetry
from repro.engine import (
    ClusterBackend,
    ClusterJobError,
    JobQueue,
    ResultStore,
    Worker,
    run_specs,
    sim_spec,
)
from repro.engine.backends.worker import FAIL_KEYS_ENV

SRC = Path(repro.__file__).resolve().parent

#: The only ``REPRO_*`` environment variables the package reads.
ENVIRONMENT = {
    "REPRO_CACHE_DIR",
    "REPRO_FLIGHT_EVENTS",
    "REPRO_PAIR_INDEX",
    "REPRO_STORE_CACHE",
    "REPRO_TELEMETRY",
    "REPRO_WORKER_FAIL_KEYS",
}


def _sources() -> dict[Path, str]:
    return {p: p.read_text(encoding="utf-8") for p in sorted(SRC.rglob("*.py"))}


def test_environment_variables_are_the_known_set():
    found = {
        name
        for text in _sources().values()
        for name in re.findall(r"\bREPRO_[A-Z0-9_]+", text)
    }
    assert found == ENVIRONMENT


def test_no_module_emits_deprecation_warnings():
    offenders = [
        str(path.relative_to(SRC))
        for path, text in _sources().items()
        if "DeprecationWarning" in text
    ]
    assert offenders == []


# ---------------------------------------------------------------------------
# telemetry: one front door, one module per fact, pinned series

#: The per-sink emitters ``repro.telemetry.event`` / ``sample`` replaced.
PER_SINK_EMITTERS = {
    "counter", "gauge", "metric_inc", "metric_gauge", "flight_record",
}


def _instrumented_modules() -> dict[Path, ast.Module]:
    return {
        path: ast.parse(text)
        for path, text in _sources().items()
        if "telemetry" not in path.relative_to(SRC).parts
    }


def test_only_telemetry_uses_per_sink_emitters():
    assert not PER_SINK_EMITTERS & set(telemetry.__all__)
    offenders = sorted(
        f"{path.relative_to(SRC)}: {alias.name}"
        for path, tree in _instrumented_modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and "telemetry" in (node.module or "")
        for alias in node.names
        if alias.name in PER_SINK_EMITTERS
    )
    assert offenders == []


def test_each_fact_has_one_emitting_call():
    owners: dict[str, list[str]] = {}
    for path, tree in _instrumented_modules().items():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("event", "sample")
            ):
                first = node.args[0]
                assert isinstance(first, ast.Constant), (
                    f"{path.relative_to(SRC)}:{node.lineno}: fact names "
                    "must be literals"
                )
                owners.setdefault(first.value, []).append(
                    f"{path.relative_to(SRC)}:{node.lineno}"
                )
    assert owners, "no instrumented module found"
    shared = {name: calls for name, calls in owners.items() if len(calls) > 1}
    assert shared == {}


#: (series, label keys) a small serial sweep plus a cluster drain (one
#: stale lease, one job failing until its retries run out) exports.
#: Every entry but the two ``worker.started`` / ``worker.exited`` facts
#: is exported by the per-sink emitters the front door replaced, so a
#: rename shows up here.
EXPORTED_SERIES = {
    ("repro_pair_brute_queries_total", ()),
    ("repro_pair_bruteforce_pairs_total", ()),
    ("repro_pair_candidate_pairs_total", ()),
    ("repro_pair_delta_updates_total", ()),
    ("repro_pair_exact_pairs_total", ()),
    ("repro_pair_grid_queries_total", ()),
    ("repro_pair_index_builds_total", ()),
    ("repro_pair_index_reuses_total", ()),
    ("repro_pair_pair_product_total", ()),
    ("repro_pair_queries_total", ()),
    ("repro_pair_sweep_queries_total", ()),
    ("repro_plan_jobs_done_total", ("backend",)),
    ("repro_plan_layer_current", ()),
    ("repro_plan_layers", ()),
    ("repro_plan_layers_done_total", ("backend",)),
    ("repro_process_max_rss_bytes", ()),
    ("repro_process_uptime_seconds", ()),
    ("repro_queue_claims_total", ("outcome",)),
    ("repro_queue_depth", ("depth",)),
    ("repro_queue_done", ("depth",)),
    ("repro_queue_enqueued_total", ()),
    ("repro_queue_failures_total", ()),
    ("repro_queue_jobs_done_total", ()),
    ("repro_queue_lease_expired_total", ()),
    ("repro_queue_leased", ("depth",)),
    ("repro_queue_retry_exhausted_total", ()),
    ("repro_run_seconds", ("kind",)),
    ("repro_runs_total", ("kind", "outcome")),
    ("repro_store_publishes_total", ("kind",)),
    ("repro_store_read_cache_evictions_total", ()),
    ("repro_store_read_cache_hits_total", ()),
    ("repro_store_read_cache_misses_total", ()),
    ("repro_store_read_cache_mmap_loads_total", ()),
    ("repro_worker_claims_total", ()),
    ("repro_worker_exited_total", ()),
    ("repro_worker_job_seconds", ("outcome",)),
    ("repro_worker_jobs_done", ()),
    ("repro_worker_jobs_failed", ()),
    ("repro_worker_jobs_total", ("outcome",)),
    ("repro_worker_started_total", ()),
}


def test_exported_series_are_pinned(tmp_path, monkeypatch):
    specs = [
        sim_spec("tp2d", "small", nprocs=4, partitioner=part)
        for part in ("nature+fable", "patch-lpt")
    ]
    telemetry.reset_metrics()
    run_specs(specs, store=ResultStore(tmp_path / "serial"))
    store = ResultStore(tmp_path / "cluster")
    queue = JobQueue.for_store(store)
    assert queue.claim(specs[0].inputs()[0].key(), "ghost", attempt=0,
                       now=time.time() - 3600.0)
    monkeypatch.setenv(FAIL_KEYS_ENV, specs[1].key())
    # No heartbeat lands during a job this short, so the set is exact.
    worker = Worker(store, queue, poll_interval=0.02, heartbeat_interval=60.0)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    while not queue.workers():
        time.sleep(0.01)
    backend = ClusterBackend(lease_timeout=30.0, poll_interval=0.05,
                             max_attempts=2, stall_timeout=60.0)
    try:
        with pytest.raises(ClusterJobError):
            run_specs(specs, store=store, backend=backend)
    finally:
        worker.stop()
        thread.join(timeout=10.0)
    snap = telemetry.metrics_registry().snapshot()
    exported = {
        (entry["name"], tuple(sorted(entry["labels"])))
        for kind in ("counters", "gauges", "histograms")
        for entry in snap[kind]
    }
    assert exported == EXPORTED_SERIES
