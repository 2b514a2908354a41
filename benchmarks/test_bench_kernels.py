"""Micro-benchmarks of the library's computational kernels.

These time the hot paths the repository's vectorization work targets:
box-intersection volume (the ``beta_m`` kernel), Hilbert/Morton key
generation, the hybrid partitioner, the execution simulator's per-step
metrics, full-model state sampling and the rm2d shadow kernel's step.
"""

from __future__ import annotations

import copy
import hashlib

import numpy as np
import pytest

from repro.apps import RichtmyerMeshkov2D
from repro.experiments import paper_trace, shadow_shape
from repro.geometry import intersection_volume
from repro.model import StateSampler, migration_penalty
from repro.partition import DomainSfcPartitioner, NaturePlusFable
from repro.sfc import hilbert_key, morton_key
from repro.simulator import TraceSimulator

from conftest import BENCH_NPROCS
from tests.oracles import rm2d_reference_advance


@pytest.fixture(scope="module")
def trace(scale):
    return paper_trace("sc2d", scale)


@pytest.fixture(scope="module")
def hierarchy_pair(trace):
    return trace[-2].hierarchy, trace[-1].hierarchy


def test_intersection_volume_kernel(benchmark, hierarchy_pair):
    prev, cur = hierarchy_pair
    a = prev.levels[-1].patches.boxes
    b = cur.levels[min(len(cur.levels), len(prev.levels)) - 1].patches.boxes
    result = benchmark(intersection_volume, a, b)
    assert result >= 0


def test_migration_penalty_full(benchmark, hierarchy_pair):
    prev, cur = hierarchy_pair
    value = benchmark(migration_penalty, prev, cur)
    assert 0.0 <= value <= 1.0


def test_hilbert_keys(benchmark):
    rng = np.random.default_rng(0)
    x = rng.integers(0, 1 << 12, size=100_000)
    y = rng.integers(0, 1 << 12, size=100_000)
    keys = benchmark(hilbert_key, x, y, 12)
    assert keys.shape == x.shape


def test_morton_keys(benchmark):
    rng = np.random.default_rng(0)
    x = rng.integers(0, 1 << 12, size=100_000)
    y = rng.integers(0, 1 << 12, size=100_000)
    keys = benchmark(morton_key, x, y, 12)
    assert keys.shape == x.shape


def test_nature_fable_partition(benchmark, hierarchy_pair):
    _, cur = hierarchy_pair
    part = NaturePlusFable()
    result = benchmark(part.partition, cur, BENCH_NPROCS)
    result.validate(cur)


def test_domain_sfc_partition(benchmark, hierarchy_pair):
    _, cur = hierarchy_pair
    part = DomainSfcPartitioner()
    result = benchmark(part.partition, cur, BENCH_NPROCS)
    result.validate(cur)


def test_simulator_step_metrics(benchmark, hierarchy_pair):
    prev, cur = hierarchy_pair
    part = NaturePlusFable()
    prev_res = part.partition(prev, BENCH_NPROCS)
    cur_res = part.partition(cur, BENCH_NPROCS, previous=prev_res)
    sim = TraceSimulator()
    metrics = benchmark(
        sim.measure_step, cur, cur_res, prev_res, prev
    )
    assert metrics.total_seconds > 0


def test_state_sampling_per_trace(benchmark, trace):
    sampler = StateSampler(nprocs=BENCH_NPROCS)
    series = benchmark(sampler.penalty_series, trace)
    assert series.beta_m.shape[0] == len(trace)


def test_rm2d_advance(benchmark, scale):
    """Coarse rm2d steps at the scale's shadow grid, checked against the
    padded-stack reference run for the same number of steps."""
    app = RichtmyerMeshkov2D(shape=shadow_shape(scale, 2))
    ref = copy.deepcopy(app)
    steps = 0

    def advance():
        nonlocal steps
        app.advance()
        steps += 1

    benchmark(advance)
    for _ in range(steps):
        rm2d_reference_advance(ref)
    digest = [hashlib.sha256(a._U.tobytes()).hexdigest() for a in (app, ref)]
    assert digest[0] == digest[1]
    assert app.time == ref.time
