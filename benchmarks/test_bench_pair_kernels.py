"""Quadratic vs grid-bucket-indexed cost of the pair-kernel metric set.

Times — and measures the peak allocation of — one full per-step metric
evaluation (ghost exchange, message pairs, inter-level transfer,
migration) under both candidate-generation paths:

* **indexed**: grid-bucket pair pruning (``REPRO_PAIR_INDEX=grid``, the
  production path) — candidates near-linear in the box count;
* **bruteforce**: the historical O(boxes^2) broadcast sweeps, kept as
  the cross-check path.

Three workloads are exercised: the paper's 2-D scale, the 3-D ``deep``
scale (512^3 finest index space) and the 3-D ``ultra`` scale (64^3
base, 5 levels — a 1024^3 finest index space) that the index unlocks;
at ``REPRO_BENCH_SCALE=small`` all three shrink to the CI-sized
variant.  At ``ultra`` the brute-force path is *not run* — its
candidate product (printed from the kernel counters) is the
infeasibility record.  The printed table, including candidate vs exact
vs brute-force pair counts, is this change's reproduction record.
"""

from __future__ import annotations

import time
import tracemalloc

from repro.experiments import paper_trace
from repro.geometry import (
    pair_index_counters,
    pair_index_forced,
    reset_pair_index_counters,
)
from repro.simulator import (
    ghost_exchange_cells,
    ghost_message_pairs,
    interlevel_transfer_cells,
    migration_cells,
)

from conftest import BENCH_NPROCS, bench_scale, record_bench
from test_bench_owner_sparse import _distributions


def _metric_set(hierarchy, prev, cur) -> tuple:
    ghost = sum(
        ghost_exchange_cells(cur.maps[level.index]) for level in hierarchy
    )
    pairs = sum(
        ghost_message_pairs(cur.maps[level.index]) for level in hierarchy
    )
    inter = sum(
        interlevel_transfer_cells(
            cur.maps[level.index - 1], cur.maps[level.index], level.ratio
        )
        for level in hierarchy.levels[1:]
    )
    return ghost, pairs, inter, migration_cells(prev, cur)


def _measure(mode: str, hierarchy, prev, cur):
    """(result, seconds, peak bytes, counter snapshot) under one mode."""
    reset_pair_index_counters()
    tracemalloc.start()
    t0 = time.perf_counter()
    with pair_index_forced(mode):
        result = _metric_set(hierarchy, prev, cur)
    seconds = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, seconds, peak, pair_index_counters().as_dict()


def _compare(app: str, scale: str, run_brute: bool = True) -> dict:
    hierarchy, prev, cur = _distributions(app, scale)
    indexed_out, indexed_s, indexed_peak, counters = _measure(
        "grid", hierarchy, prev, cur
    )
    row = {
        "workload": f"{app}:{scale}",
        "cells": hierarchy.ncells,
        "boxes": sum(m.nboxes for m in cur.maps),
        "indexed_s": indexed_s,
        "indexed_peak_mb": indexed_peak / 1e6,
        "pair_product": counters["pair_product"],
        "candidate_pairs": counters["candidate_pairs"],
        "exact_pairs": counters["exact_pairs"],
    }
    print(
        f"\n  {row['workload']:<12} cells={row['cells']:>13,} "
        f"boxes={row['boxes']:>6} | candidates {row['candidate_pairs']:>11,} "
        f"of {row['pair_product']:>14,} brute-force pairs "
        f"({row['exact_pairs']:,} exact) | "
        f"indexed {indexed_s * 1e3:8.1f} ms / {row['indexed_peak_mb']:7.1f} MB"
    )
    record_bench(
        "pair_kernels", f"indexed:{row['workload']}", indexed_s,
        peak_mb=row["indexed_peak_mb"], counters=counters,
        cells=row["cells"], boxes=row["boxes"],
    )
    if not run_brute:
        print(
            f"  {'':12} brute force NOT RUN: the quadratic sweep would "
            f"examine {row['pair_product']:,} candidate pairs "
            f"(x{row['pair_product'] / max(row['candidate_pairs'], 1):,.0f} "
            f"the indexed candidates) — infeasible at this scale"
        )
        return row
    brute_out, brute_s, brute_peak, _ = _measure(
        "bruteforce", hierarchy, prev, cur
    )
    assert indexed_out == brute_out, "indexed/bruteforce metric mismatch"
    row["brute_s"] = brute_s
    row["brute_peak_mb"] = brute_peak / 1e6
    record_bench(
        "pair_kernels", f"bruteforce:{row['workload']}", brute_s,
        peak_mb=row["brute_peak_mb"],
        cells=row["cells"], boxes=row["boxes"],
        speedup=brute_s / max(indexed_s, 1e-9),
    )
    print(
        f"  {'':12} brute force {brute_s * 1e3:8.1f} ms / "
        f"{row['brute_peak_mb']:7.1f} MB | "
        f"speedup x{brute_s / max(indexed_s, 1e-9):.1f}, "
        f"memory x{brute_peak / max(indexed_peak, 1):.1f}"
    )
    return row


def _measure_reuse(app: str, scale: str) -> dict:
    """One cold metric-set evaluation on persistent pair indexes.

    Distributions are rebuilt so the maps start with no cached index —
    the timing includes the cold index builds the probes amortise.
    """
    hierarchy, prev, cur = _distributions(app, scale)
    _, seconds, peak, counters = _measure("grid", hierarchy, prev, cur)
    row = {
        "workload": f"{app}:{scale}",
        "reuse_on_s": seconds,
        "index_builds": counters["index_builds"],
        "index_reuses": counters["index_reuses"],
    }
    print(
        f"\n  {row['workload']:<12} reuse on {seconds * 1e3:8.1f} ms "
        f"({row['index_builds']} builds amortised over "
        f"{row['index_reuses']} probes)"
    )
    record_bench(
        "pair_kernels", f"reuse-on:{row['workload']}", seconds,
        peak_mb=peak / 1e6, counters=counters,
    )
    return row


def test_pair_kernels_2d(benchmark):
    """2-D paper scale: the index must agree and not slow things down."""
    scale = bench_scale()
    row = _compare("tp2d", scale)
    hierarchy, prev, cur = _distributions("tp2d", scale)
    with pair_index_forced("grid"):
        benchmark(_metric_set, hierarchy, prev, cur)
    # Identical results asserted inside _compare; the 2-D workloads are
    # small enough that either path is fast — no ordering assertion.
    assert row["candidate_pairs"] <= row["pair_product"]


def test_pair_kernels_3d_deep(benchmark):
    """3-D deep: the indexed metric set must be >= 3x faster.

    At ``REPRO_BENCH_SCALE=paper`` this runs the true ``deep`` scale
    (512^3 finest index space); the CI-sized ``small`` fallback only
    asserts agreement (tiny inputs can't show the asymptotic win).
    """
    scale = "deep" if bench_scale() == "paper" else "small"
    row = _compare("tp3d", scale)
    hierarchy, prev, cur = _distributions("tp3d", scale)
    with pair_index_forced("grid"):
        benchmark(_metric_set, hierarchy, prev, cur)
    if scale == "deep":
        assert row["brute_s"] >= 3.0 * row["indexed_s"], (
            f"expected >= 3x speedup at deep scale, got "
            f"x{row['brute_s'] / max(row['indexed_s'], 1e-9):.2f}"
        )


def test_pair_kernels_reuse_deep(benchmark):
    """3-D deep: each persistent index serves several kernel queries.

    One persistent index per owner map answers all of a step's queries.
    At ``REPRO_BENCH_SCALE=paper`` this runs the true ``deep`` scale and
    gates on probes outnumbering builds; the CI-sized ``small`` fallback
    only records the counters.  Agreement with brute force is asserted
    by the other tests of this file.
    """
    scale = "deep" if bench_scale() == "paper" else "small"
    row = _measure_reuse("tp3d", scale)
    hierarchy, prev, cur = _distributions("tp3d", scale)
    with pair_index_forced("grid"):
        benchmark(_metric_set, hierarchy, prev, cur)
    if scale == "deep":
        assert row["index_reuses"] > row["index_builds"], (
            f"{row['index_reuses']} probes for {row['index_builds']} builds"
        )


def test_pair_kernels_3d_ultra(benchmark):
    """3-D ultra (1024^3 finest space): indexed only — brute infeasible.

    The brute-force candidate product is printed from the kernel
    counters as the infeasibility record; the quadratic path is not
    executed at this scale.
    """
    scale = "ultra" if bench_scale() == "paper" else "small"
    row = _compare("tp3d", scale, run_brute=(scale == "small"))
    hierarchy, prev, cur = _distributions("tp3d", scale)
    with pair_index_forced("grid"):
        benchmark(_metric_set, hierarchy, prev, cur)
    if scale == "ultra":
        # The pruning gap is the record: candidates must be orders of
        # magnitude below the quadratic product.
        assert row["candidate_pairs"] * 100 <= row["pair_product"]


def test_full_replay_indexed_ultra(benchmark):
    """Full indexed replay of one ultra-scale partitioner run."""
    from repro.engine.components import create
    from repro.simulator import TraceSimulator

    scale = "ultra" if bench_scale() == "paper" else "small"
    trace = paper_trace("tp3d", scale)
    sim = TraceSimulator()
    with pair_index_forced("grid"):
        result = benchmark.pedantic(
            sim.run,
            args=(trace, create("partitioner", "nature+fable"), BENCH_NPROCS),
            rounds=1,
            iterations=1,
        )
    assert len(result.steps) == len(trace)
