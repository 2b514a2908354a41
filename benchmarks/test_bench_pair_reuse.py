"""End-to-end replay cost of the temporal-coherence reuse layer.

Replays one full partitioner run (every regrid step, all metrics) on
the reuse path — persistent per-map pair indexes, delta-updated between
consecutive steps, plus the batched overlay engine.  At small scale the
step metrics must equal a replay under the ``bruteforce`` pair oracle,
which never builds an index; at deep scale the build/reuse/delta
counters must show the indexes living across steps.  Wall-clock and
counters are the reproduction record, published to
``BENCH_pair_reuse.json`` for the CI baseline diff.
"""

from __future__ import annotations

import time

from repro.engine.components import create
from repro.experiments import paper_trace
from repro.geometry import (
    pair_index_counters,
    pair_index_forced,
    reset_pair_index_counters,
)
from repro.simulator import TraceSimulator

from conftest import BENCH_NPROCS, bench_scale, record_bench


def _replay(mode: str, app: str, scale: str):
    trace = paper_trace(app, scale)
    part = create("partitioner", "nature+fable")
    sim = TraceSimulator()
    reset_pair_index_counters()
    t0 = time.perf_counter()
    with pair_index_forced(mode):
        result = sim.run(trace, part, BENCH_NPROCS)
    seconds = time.perf_counter() - t0
    return result, seconds, pair_index_counters().as_dict()


def _reuse_replay(app: str, scale: str) -> dict:
    result, seconds, counters = _replay("grid", app, scale)
    assert counters["index_reuses"] > 0, "reuse never engaged"
    assert counters["delta_updates"] > 0, "no step-to-step delta updates"
    if scale == "small":
        brute, _, _ = _replay("bruteforce", app, scale)
        assert result == brute, "reuse layer changed a replay step metric"
    row = {"workload": f"{app}:{scale}", "steps": len(result.steps), **counters}
    print(
        f"\n  {row['workload']:<12} {row['steps']:>3} steps | "
        f"{seconds:7.3f} s ({row['index_builds']} builds, "
        f"{row['delta_updates']} deltas, {row['index_reuses']} reuses)"
    )
    record_bench(
        "pair_reuse", f"replay-on:{row['workload']}", seconds,
        counters=counters, steps=row["steps"],
    )
    return row


def test_full_replay_reuse_2d(benchmark):
    """2-D paper scale: reuse engaged (bit-identical to brute force at small)."""
    scale = bench_scale()
    _reuse_replay("tp2d", scale)
    trace = paper_trace("tp2d", scale)
    part = create("partitioner", "nature+fable")
    sim = TraceSimulator()
    with pair_index_forced("grid"):
        result = benchmark.pedantic(
            sim.run, args=(trace, part, BENCH_NPROCS), rounds=1, iterations=1
        )
    assert len(result.steps) == len(trace)


def test_full_replay_reuse_3d_deep(benchmark):
    """3-D deep: indexes are reused more often than they are built."""
    scale = "deep" if bench_scale() == "paper" else "small"
    row = _reuse_replay("tp3d", scale)
    trace = paper_trace("tp3d", scale)
    part = create("partitioner", "nature+fable")
    sim = TraceSimulator()
    with pair_index_forced("grid"):
        result = benchmark.pedantic(
            sim.run, args=(trace, part, BENCH_NPROCS), rounds=1, iterations=1
        )
    assert len(result.steps) == len(trace)
    if scale == "deep":
        assert row["index_reuses"] > row["index_builds"], (
            f"{row['index_reuses']} reuses for {row['index_builds']} builds"
        )
        assert row["delta_updates"] > 0
