"""Tests for the always-on metrics plane and the crash flight recorder.

Covers the registry contract (labels, histograms, collectors, thread
safety under concurrent increments), the Prometheus text exposition
(render -> parse round-trip, label escaping), the HTTP endpoints and
atomic file snapshots, the flight recorder's bounded ring and crash
dumps (including a real SIGKILLed worker via ``--die-after-claims``),
the ``repro health`` threshold checks and exit codes, the clamped
cluster-status ages, and the ``repro top --json`` / ``repro report
--timings`` surfaces.
"""

from __future__ import annotations

import json
import logging
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.engine import ClusterBackend, JobQueue, ResultStore, cli, trace_spec
from repro.telemetry import (
    FlightRecorder,
    MetricsRegistry,
    MetricsServer,
    cluster_status_doc,
    evaluate_health,
    event,
    find_crash_dumps,
    flight_recorder,
    load_crash_dump,
    load_metrics_snapshots,
    metrics_registry,
    parse_prometheus,
    recording,
    render_blackbox,
    render_cluster_status,
    render_prometheus,
    render_timings,
    reset_flight,
    reset_metrics,
    sample,
    series_name,
    telemetry_active,
    write_metrics_files,
)
from repro.telemetry.profile import aggregate_timings

from test_backends import _spawn_worker


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_counter_gauge_and_labels():
    reg = MetricsRegistry()
    reg.inc("repro_jobs_total", outcome="completed")
    reg.inc("repro_jobs_total", 2, outcome="completed")
    reg.inc("repro_jobs_total", outcome="failed")
    reg.set("repro_depth", 7, layer=0)
    assert reg.counter_value("repro_jobs_total", outcome="completed") == 3
    assert reg.counter_value("repro_jobs_total", outcome="failed") == 1
    assert reg.counter_value("repro_jobs_total", outcome="missing") == 0
    snap = reg.snapshot(run_collectors=False)
    names = {(c["name"], tuple(sorted(c["labels"].items())))
             for c in snap["counters"]}
    assert ("repro_jobs_total", (("outcome", "completed"),)) in names
    assert snap["gauges"] == [
        {"name": "repro_depth", "labels": {"layer": "0"}, "value": 7.0}
    ]


def test_set_total_is_absolute():
    reg = MetricsRegistry()
    reg.set_total("repro_pair_index_builds_total", 5)
    reg.set_total("repro_pair_index_builds_total", 9)
    assert reg.counter_value("repro_pair_index_builds_total") == 9


def test_invalid_names_rejected():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.inc("bad-name")
    with pytest.raises(ValueError):
        reg.inc("ok_name", **{"bad-label": 1})


def test_histogram_bucketing():
    reg = MetricsRegistry()
    bounds = (0.1, 1.0, 10.0)
    for value in (0.05, 0.5, 0.5, 5.0, 50.0):
        reg.observe("repro_lat_seconds", value, buckets=bounds)
    [hist] = reg.snapshot(run_collectors=False)["histograms"]
    assert hist["bounds"] == [0.1, 1.0, 10.0]
    assert hist["counts"] == [1, 2, 1, 1]  # last slot is +Inf overflow
    assert hist["count"] == 5
    assert hist["sum"] == pytest.approx(56.05)


def test_histogram_bounds_pinned_by_first_observation():
    reg = MetricsRegistry()
    reg.observe("repro_x_seconds", 1.0, buckets=(1.0, 2.0))
    reg.observe("repro_x_seconds", 1.5)  # later calls may omit bounds
    [hist] = reg.snapshot(run_collectors=False)["histograms"]
    assert hist["counts"] == [1, 1, 0]
    with pytest.raises(ValueError):
        reg.observe("repro_bad_seconds", 1.0, buckets=(2.0, 1.0))


def test_registry_thread_safety_under_concurrent_increments():
    reg = MetricsRegistry()
    threads = 8
    per_thread = 1000

    def worker():
        for _ in range(per_thread):
            reg.inc("repro_contended_total")
            reg.observe("repro_contended_seconds", 0.01, buckets=(1.0,))

    pool = [threading.Thread(target=worker) for _ in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    assert reg.counter_value("repro_contended_total") == threads * per_thread
    [hist] = reg.snapshot(run_collectors=False)["histograms"]
    assert hist["count"] == threads * per_thread
    assert hist["counts"][0] == threads * per_thread


def test_collectors_run_at_snapshot_and_never_raise():
    reg = MetricsRegistry()
    reg.add_collector("ok", lambda r: r.set_total("repro_ok_total", 4))
    reg.add_collector("boom", lambda r: 1 / 0)
    snap = reg.snapshot()
    assert any(c["name"] == "repro_ok_total" for c in snap["counters"])


def test_global_registry_exports_pair_and_store_cache_counters():
    snap = metrics_registry().snapshot()
    names = {c["name"] for c in snap["counters"]}
    # Collector-sourced series: the pair-kernel frame and the store
    # read cache are always visible, even at zero.
    assert "repro_pair_index_builds_total" in names
    assert "repro_pair_index_reuses_total" in names
    assert "repro_store_read_cache_hits_total" in names
    assert "repro_store_read_cache_misses_total" in names


# ---------------------------------------------------------------------------
# the front door: one event() / sample() call reaches every sink
# ---------------------------------------------------------------------------

@pytest.fixture
def sinks(monkeypatch, caplog):
    """Fresh registry and flight ring; ``repro.*`` records reach caplog."""
    reset_metrics()
    reset_flight()
    # The CLI detaches the ``repro`` logger tree from the root logger.
    monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
    caplog.set_level(logging.DEBUG, logger="repro")
    yield caplog
    reset_metrics()
    reset_flight()


def _series(name: str) -> list[dict]:
    snap = metrics_registry().snapshot(run_collectors=False)
    return [
        entry for kind in ("counters", "gauges", "histograms")
        for entry in snap[kind] if entry["name"] == name
    ]


def test_series_name_rule():
    assert series_name("queue.lease_expired") == (
        "repro_queue_lease_expired_total"
    )
    assert series_name("queue.depth", "gauge") == "repro_queue_depth"
    assert series_name("worker.jobs", "histogram") == (
        "repro_worker_job_seconds"
    )
    assert series_name("runs", "histogram") == "repro_run_seconds"


def test_event_reaches_all_four_sinks(sinks):
    with recording() as rec:
        message = event(
            "unit.jobs", 2, labels={"outcome": "completed"},
            level=logging.WARNING, message="two jobs done",
            key="abcdef123456", owner="w-1",
        )
    assert message == "two jobs done"
    [sample_] = [e for e in rec.events if e["type"] == "counter"]
    assert sample_["name"] == "unit.jobs" and sample_["value"] == 2.0
    assert sample_["attrs"] == {
        "outcome": "completed", "key": "abcdef123456", "owner": "w-1",
    }
    # High-cardinality fields never become labels.
    [series] = _series("repro_unit_jobs_total")
    assert series["labels"] == {"outcome": "completed"}
    assert series["value"] == 2.0
    [ring] = flight_recorder().events()
    assert ring["name"] == "unit.jobs" and ring["key"] == "abcdef123456"
    assert ring["labels"] == {"outcome": "completed"}
    [record] = [r for r in sinks.records if r.name == "repro.unit"]
    assert record.levelno == logging.WARNING
    assert record.getMessage() == "two jobs done"


def test_event_without_telemetry_still_reaches_registry_ring_and_log(sinks):
    assert not telemetry_active()
    assert event("unit.leases", owner="w-2") is None
    [series] = _series("repro_unit_leases_total")
    assert series["labels"] == {} and series["value"] == 1.0
    [ring] = flight_recorder().events()
    assert ring["owner"] == "w-2"
    [record] = [r for r in sinks.records if r.name == "repro.unit"]
    assert record.levelno == logging.DEBUG  # routine facts stay quiet
    assert "unit.leases" in record.getMessage()


def test_event_mapping_value_and_timing(sinks):
    with recording() as rec:
        event("unit.plan", {"layers_done": 1, "jobs_done": 4},
              labels={"backend": "serial"})
        event("unit.runs", labels={"kind": "sim", "outcome": "completed"},
              seconds=0.5, seconds_labels={"kind": "sim"})
    counters = {e["name"]: e["value"] for e in rec.events
                if e["type"] == "counter"}
    assert counters == {
        "unit.plan.layers_done": 1.0, "unit.plan.jobs_done": 4.0,
        "unit.runs": 1.0,
    }
    [jobs] = _series("repro_unit_plan_jobs_done_total")
    assert jobs["labels"] == {"backend": "serial"} and jobs["value"] == 4.0
    [hist] = _series("repro_unit_run_seconds")
    assert hist["labels"] == {"kind": "sim"} and hist["count"] == 1
    # One fact, one ring record, whatever the number of quantities.
    assert [e["name"] for e in flight_recorder().events()] == [
        "unit.plan", "unit.runs",
    ]


def test_sample_sets_gauges_but_skips_the_ring(sinks):
    with recording() as rec:
        sample("unit.queue", {"depth": 3, "leased": 1}, labels={"depth": 0},
               message="layer 0: 2 queued, 1 leased")
    gauges = {e["name"]: e["value"] for e in rec.events
              if e["type"] == "gauge"}
    assert gauges == {"unit.queue.depth": 3.0, "unit.queue.leased": 1.0}
    [depth] = _series("repro_unit_queue_depth")
    assert depth["labels"] == {"depth": "0"} and depth["value"] == 3.0
    assert flight_recorder().events() == []
    assert [r.getMessage() for r in sinks.records] == [
        "layer 0: 2 queued, 1 leased"
    ]


def test_broker_drain_reports_an_expired_lease_once(sinks, tmp_path):
    class _DoneStore:
        root = tmp_path

        @staticmethod
        def has(key):
            return True

    queue = JobQueue(tmp_path / "queue")
    spec = trace_spec("tp2d", "small")
    queue.enqueue(spec)
    assert queue.claim(spec.key(), "ghost", 0, now=0.0)  # ancient lease
    reset_metrics()
    reset_flight()
    lines: list[str] = []
    ClusterBackend(lease_timeout=1.0)._drain_layer(
        0, {spec.key(): spec}, queue, _DoneStore(), lines.append, False
    )
    registry = metrics_registry()
    assert registry.counter_value("repro_queue_lease_expired_total") == 1
    expired = [e for e in flight_recorder().events()
               if e["name"] == "queue.lease_expired"]
    assert len(expired) == 1 and expired[0]["owner"] == "ghost"
    [line] = [ln for ln in lines if "lease expired" in ln]
    [record] = [r for r in sinks.records
                if r.levelno == logging.WARNING]
    assert record.getMessage() == line


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------

def test_prometheus_render_parse_round_trip():
    reg = MetricsRegistry()
    reg.inc("repro_jobs_total", 3, outcome="completed")
    reg.set("repro_queue_depth", 5, depth=0)
    for value in (0.05, 0.5, 5.0):
        reg.observe("repro_job_seconds", value, buckets=(0.1, 1.0))
    text = render_prometheus(reg.snapshot(run_collectors=False))
    doc = parse_prometheus(text)
    assert doc["types"]["repro_jobs_total"] == "counter"
    assert doc["types"]["repro_queue_depth"] == "gauge"
    assert doc["types"]["repro_job_seconds"] == "histogram"
    by_name = {}
    for sample in doc["samples"]:
        by_name.setdefault(sample["name"], []).append(sample)
    [jobs] = by_name["repro_jobs_total"]
    assert jobs["labels"] == {"outcome": "completed"} and jobs["value"] == 3
    buckets = {
        s["labels"]["le"]: s["value"]
        for s in by_name["repro_job_seconds_bucket"]
    }
    # Cumulative buckets, +Inf last.
    assert buckets["0.1"] == 1 and buckets["1"] == 2 and buckets["+Inf"] == 3
    assert by_name["repro_job_seconds_count"][0]["value"] == 3
    assert by_name["repro_job_seconds_sum"][0]["value"] == pytest.approx(5.55)


def test_prometheus_label_escaping_round_trip():
    reg = MetricsRegistry()
    tricky = 'quote " backslash \\ newline \n end'
    reg.inc("repro_esc_total", path=tricky)
    text = render_prometheus(reg.snapshot(run_collectors=False))
    [sample] = parse_prometheus(text)["samples"]
    assert sample["labels"]["path"] == tricky


def test_parse_prometheus_rejects_garbage():
    with pytest.raises(ValueError):
        parse_prometheus("orphan_sample 1\n")  # no # TYPE
    with pytest.raises(ValueError):
        parse_prometheus("# TYPE x counter\nx notanumber\n")


# ---------------------------------------------------------------------------
# HTTP endpoints + file snapshots
# ---------------------------------------------------------------------------

def _get(url: str):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.read().decode()


def test_metrics_server_endpoints():
    reg = MetricsRegistry()
    reg.inc("repro_http_total", 2)
    health_doc = {"status": "ok", "worker_id": "w-test"}
    with MetricsServer(registry=reg, health=lambda: health_doc) as server:
        base = f"http://127.0.0.1:{server.port}"
        status, text = _get(f"{base}/metrics")
        assert status == 200
        parsed = parse_prometheus(text)
        assert any(
            s["name"] == "repro_http_total" and s["value"] == 2
            for s in parsed["samples"]
        )
        status, body = _get(f"{base}/metrics.json")
        assert status == 200
        assert json.loads(body)["schema"] == 1
        status, body = _get(f"{base}/healthz")
        assert status == 200 and json.loads(body)["worker_id"] == "w-test"
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(f"{base}/nope")
        assert err.value.code == 404


def test_metrics_server_unhealthy_is_503():
    with MetricsServer(
        registry=MetricsRegistry(),
        health=lambda: {"status": "unhealthy", "reason": "stalled"},
    ) as server:
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(f"http://127.0.0.1:{server.port}/healthz")
        assert err.value.code == 503
        assert json.loads(err.value.read().decode())["reason"] == "stalled"


def test_write_and_load_metrics_snapshots(tmp_path):
    reg = MetricsRegistry()
    reg.inc("repro_snap_total", 7)
    prom = write_metrics_files(tmp_path, registry=reg)
    assert prom.is_file() and prom.suffix == ".prom"
    parse_prometheus(prom.read_text(encoding="utf-8"))  # valid by parse
    [snap] = load_metrics_snapshots(tmp_path)
    assert any(
        c["name"] == "repro_snap_total" and c["value"] == 7
        for c in snap["counters"]
    )
    # Re-writing replaces (stable per-process names), never accumulates.
    write_metrics_files(tmp_path, registry=reg)
    assert len(load_metrics_snapshots(tmp_path)) == 1


# ---------------------------------------------------------------------------
# flight recorder
# ---------------------------------------------------------------------------

def test_flight_ring_is_bounded():
    rec = FlightRecorder(capacity=4)
    for i in range(10):
        rec.record("job", "start", seq=i)
    events = rec.events()
    assert len(events) == 4
    assert [e["seq"] for e in events] == [6, 7, 8, 9]


def test_flight_capacity_zero_disables(monkeypatch):
    rec = FlightRecorder(capacity=0)
    rec.record("job", "start")
    assert rec.events() == []


def test_flight_dump_and_render(tmp_path):
    rec = FlightRecorder(capacity=8)
    rec.record("claim", "abcdef123456", worker="w-1")
    rec.record("job", "start", key="abcdef123456")
    path = rec.dump(
        tmp_path, "unit-test", error="boom",
        extra={"worker_id": "w-1", "job": "abcdef123456"},
    )
    assert path.parent == tmp_path / "telemetry" / "crash"
    [found] = find_crash_dumps(tmp_path)
    assert found == path
    doc = load_crash_dump(path)
    assert doc["reason"] == "unit-test" and doc["error"] == "boom"
    assert len(doc["events"]) == 2
    assert doc["metrics"]["schema"] == 1  # metrics ride along in the dump
    text = render_blackbox(doc)
    assert "unit-test" in text and "abcdef123456"[:12] in text
    assert "w-1" in text


def test_worker_die_after_claims_leaves_crash_dump(tmp_path):
    """The acceptance path: a SIGKILLed worker leaves a renderable dump."""
    store = ResultStore(tmp_path / "store")
    queue = JobQueue.for_store(store)
    spec = trace_spec("tp2d", "small")
    queue.enqueue(spec)
    proc = _spawn_worker(store.root, "--die-after-claims", "1")
    try:
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:  # pragma: no cover - hung worker
            proc.kill()
            proc.wait()
    assert proc.returncode == -9  # SIGKILLed itself while holding the lease
    dumps = find_crash_dumps(store.root)
    assert dumps, "fault-injection SIGKILL must dump the flight recorder"
    doc = load_crash_dump(dumps[-1])
    assert doc["reason"] == "fault-injection-sigkill"
    assert doc["job"] == spec.key()
    claims = [e for e in doc["events"] if e["name"] == "worker.claims"]
    assert [e["key"] for e in claims] == [spec.key()[:12]]
    render_blackbox(doc)  # renders without raising
    # The lease the dead worker held is still on disk: `repro health`
    # must flag it (and the dump) and exit nonzero.
    assert queue.leases(), "SIGKILL must leave the lease behind"
    time.sleep(0.3)  # let the orphaned lease's heartbeat go stale
    verdict = evaluate_health(store, queue, lease_timeout=0.1)
    assert verdict["status"] == "unhealthy"
    failed = {c["name"] for c in verdict["checks"] if not c["ok"]}
    assert "crash_dumps" in failed
    assert "stale_leases" in failed or "stale_workers" in failed
    # blackbox CLI renders it; health CLI exits nonzero.
    assert cli.main(["blackbox", "--cache-dir", str(store.root)]) == 0
    assert cli.main(
        ["health", "--cache-dir", str(store.root), "--lease-timeout", "0.1"]
    ) == 1
    # After triage, --clear makes health's crash check green again.
    assert cli.main(
        ["blackbox", "--cache-dir", str(store.root), "--clear"]
    ) == 0
    assert not find_crash_dumps(store.root)


# ---------------------------------------------------------------------------
# cluster status / health
# ---------------------------------------------------------------------------

class _FakeStore:
    def __init__(self, root):
        self.root = root


def _queue_with_worker(tmp_path, heartbeat_at: float) -> JobQueue:
    queue = JobQueue(tmp_path / "queue")
    queue.register_worker("w-test", now=heartbeat_at)
    return queue


def test_cluster_status_clamps_negative_beat_age(tmp_path):
    """Cross-host clock skew must render as 'just now', not negative."""
    now = time.time()
    queue = _queue_with_worker(tmp_path, heartbeat_at=now + 120.0)
    store = _FakeStore(tmp_path)
    doc = cluster_status_doc(store, queue, now=now)
    [row] = doc["workers"]
    assert row["beat_age_s"] == 0.0
    rendered = render_cluster_status(store, queue, now=now)
    assert "0.0s" in rendered and "-120.0s" not in rendered


def test_cluster_status_clamps_negative_lease_ages(tmp_path):
    now = time.time()
    queue = JobQueue(tmp_path / "queue")
    queue.claim("k" * 64, "w-skew", 0, now=now + 60.0)
    doc = cluster_status_doc(_FakeStore(tmp_path), queue, now=now)
    [lease] = doc["leases"]
    assert lease["age_s"] == 0.0 and lease["beat_age_s"] == 0.0


def test_evaluate_health_ok_on_quiet_cluster(tmp_path):
    queue = _queue_with_worker(tmp_path, heartbeat_at=time.time())
    verdict = evaluate_health(_FakeStore(tmp_path), queue)
    assert verdict["status"] == "ok"
    assert all(c["ok"] for c in verdict["checks"])


def test_evaluate_health_flags_stale_worker_and_stall(tmp_path):
    queue = _queue_with_worker(tmp_path, heartbeat_at=time.time() - 3600.0)
    queue.enqueue(trace_spec("tp2d", "small"))
    verdict = evaluate_health(_FakeStore(tmp_path), queue)
    assert verdict["status"] == "unhealthy"
    failed = {c["name"] for c in verdict["checks"] if not c["ok"]}
    assert failed == {"stale_workers", "queue_stall"}


def test_evaluate_health_flags_retry_spike(tmp_path):
    queue = JobQueue(tmp_path / "queue")
    queue.register_worker("w-live")
    for attempt in range(3):
        queue.fail("a" * 64, "w-live", attempt, "traceback")
    verdict = evaluate_health(
        _FakeStore(tmp_path), queue, max_failures=3
    )
    failed = {c["name"] for c in verdict["checks"] if not c["ok"]}
    assert "retry_spikes" in failed
    # A looser threshold passes.
    assert evaluate_health(
        _FakeStore(tmp_path), queue, max_failures=10
    )["status"] == "ok"


def test_top_json_snapshot(tmp_path, capsys):
    queue = _queue_with_worker(tmp_path / "store", heartbeat_at=time.time())
    queue.enqueue(trace_spec("tp2d", "small"))
    assert cli.main([
        "top", "--json", "--cache-dir", str(tmp_path / "store"),
        "--queue-dir", str(queue.root),
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tickets_open"] == 1
    assert doc["workers"][0]["worker_id"] == "w-test"
    assert doc["workers"][0]["state"] == "alive"
    with pytest.raises(SystemExit):
        cli.main([
            "top", "--json", "--watch", "1",
            "--cache-dir", str(tmp_path / "store"),
        ])


def test_worker_rates_join_status_by_host_pid(tmp_path):
    reg = MetricsRegistry()
    reg.started_at -= 30.0  # 30s of uptime
    reg.inc("repro_worker_jobs_total", 10, outcome="completed")
    write_metrics_files(tmp_path, registry=reg)
    [snap] = load_metrics_snapshots(tmp_path)
    queue = JobQueue(tmp_path / "queue")
    queue.register_worker("w-rate")
    # The registry entry carries this process's host/pid — the same
    # identity the snapshot stamps, so the join lands.
    doc = cluster_status_doc(_FakeStore(tmp_path), queue)
    [row] = doc["workers"]
    assert row["jobs_per_min"] == pytest.approx(
        10.0 / (snap["written_at"] - snap["started_at"]) * 60.0
    )
    assert "j/min" in render_cluster_status(_FakeStore(tmp_path), queue)


# ---------------------------------------------------------------------------
# report --timings surfacing
# ---------------------------------------------------------------------------

def test_timings_surface_fleet_metrics(tmp_path):
    # One hand-crafted run profile (the spans side)...
    profile_dir = tmp_path / "telemetry" / "runs" / "ab"
    profile_dir.mkdir(parents=True)
    (profile_dir / ("ab" + "0" * 62 + ".json")).write_text(json.dumps({
        "schema": 1, "key": "ab" + "0" * 62, "kind": "sim",
        "label": "tp2d small", "wall_s": 1.0,
        "pair_counters": {}, "spans": [],
    }), encoding="utf-8")
    # ...plus one metrics snapshot (the fleet side).
    reg = MetricsRegistry()
    reg.set_total("repro_store_read_cache_hits_total", 30)
    reg.set_total("repro_store_read_cache_misses_total", 10)
    reg.set_total("repro_pair_index_builds_total", 2)
    reg.set_total("repro_pair_index_reuses_total", 6)
    reg.inc("repro_worker_jobs_total", 5, outcome="completed")
    write_metrics_files(tmp_path, registry=reg)
    doc = aggregate_timings(tmp_path)
    assert doc["metrics"]["repro_store_read_cache_hits_total"] == 30
    assert doc["metrics_snapshots"] == 1
    text = render_timings(doc)
    assert "store read cache: 30 hits / 10 misses (75% hit rate)" in text
    assert "pair-index reuse: 2 builds" in text and "6 reuses" in text
    assert "(75% served warm)" in text
    assert "worker jobs completed: 5" in text
