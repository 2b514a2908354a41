"""The persistent pair-index reuse layer: delta updates and counters.

The temporal-coherence fast path rests on one invariant: a
:class:`~repro.geometry.PairIndex` that was *delta-updated* from a
previous step's index must answer every query with the same exact pair
set as an index built from scratch — and both must be supersets of the
true overlapping pairs, because downstream kernels do exact arithmetic
on whatever candidates come back.  The property suite drives random
add/remove sequences (1-D through 4-D, including full replacement and
no-op diffs) through :meth:`PairIndex.updated_to` and checks that
invariant against a brute-force reference.

The simulator-facing tests assert the layer actually engages on a paper
trace (``index_reuses``/``delta_updates`` counters move) and that every
step matches the ``bruteforce`` pair oracle, which never builds an
index, and the dense-raster oracles (``tests/oracles.py``).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.components import create
from repro.experiments import paper_trace
from repro.geometry import (
    PairIndex,
    box_corners,
    candidate_pairs,
    face_contacts,
    matched_volume,
    overlap_and_matched_volume,
    overlap_volume,
    overlay_corners,
    pair_counters_scope,
    pair_index_counters,
    pair_index_forced,
    pair_intersections,
    reset_pair_index_counters,
    subtract_corners,
)
from repro.geometry import pairindex
from repro.geometry.pairindex import _GRID_INCIDENCE_FACTOR
from repro.simulator import TraceSimulator

from tests.oracles import (
    canonical_candidate_pairs,
    check_step,
    sequential_overlay_corners,
    sequential_subtract_corners,
)
from tests.strategies import disjoint_boxlists

# ---------------------------------------------------------------------------
# strategies


@st.composite
def corner_arrays(draw, ndim: int, max_boxes: int = 14, max_coord: int = 24):
    """Unique ``(n, 2*ndim)`` corner rows with positive extent per axis."""
    n = draw(st.integers(min_value=0, max_value=max_boxes))
    rows: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for _ in range(n):
        lo = tuple(
            draw(st.integers(min_value=0, max_value=max_coord - 1))
            for _ in range(ndim)
        )
        hi = tuple(
            l + draw(st.integers(min_value=1, max_value=6)) for l in lo
        )
        row = lo + hi
        if row in seen:
            continue
        seen.add(row)
        rows.append(row)
    if not rows:
        return np.empty((0, 2 * ndim), dtype=np.int64)
    return np.asarray(rows, dtype=np.int64)


@st.composite
def update_sequences(draw, ndim: int):
    """``(old, new)`` corner arrays related by a random add/remove diff.

    Covers the adversarial corners: empty old, empty new, pure removal,
    pure addition, full replacement and the no-op diff (``new`` equal in
    content but a distinct array object).
    """
    old = draw(corner_arrays(ndim))
    keep_mask = draw(
        st.lists(
            st.booleans(), min_size=old.shape[0], max_size=old.shape[0]
        )
    )
    kept = old[np.asarray(keep_mask, dtype=bool)] if old.size else old
    added = draw(corner_arrays(ndim))
    if kept.size and added.size:
        kept_keys = {tuple(r) for r in kept.tolist()}
        fresh = [r for r in added.tolist() if tuple(r) not in kept_keys]
        added = (
            np.asarray(fresh, dtype=np.int64).reshape(-1, 2 * ndim)
            if fresh
            else np.empty((0, 2 * ndim), dtype=np.int64)
        )
    new = np.concatenate([kept, added], axis=0)
    if draw(st.booleans()):
        new = np.asarray(draw(st.permutations(new.tolist())), dtype=np.int64)
        new = new.reshape(-1, 2 * ndim)
    return old, new


def _exact_pairs(a: np.ndarray, b: np.ndarray, closed: bool) -> set:
    """Brute-force reference: all ``(ai, bj)`` whose boxes meet."""
    ndim = a.shape[1] // 2
    out = set()
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            lo = np.maximum(a[i, :ndim], b[j, :ndim])
            hi = np.minimum(a[i, ndim:], b[j, ndim:])
            meets = bool((lo <= hi).all()) if closed else bool((lo < hi).all())
            if meets:
                out.add((i, j))
    return out


def _drain(stream):
    """One ``(ai, bj)`` array pair from a candidate stream (None passes)."""
    if stream is None:
        return None
    chunks = list(stream)
    if not chunks:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return tuple(np.concatenate(side) for side in zip(*chunks))


def _query_pairs(index: PairIndex, q: np.ndarray, closed: bool) -> set | None:
    hit = _drain(index.query(q, closed))
    if hit is None:
        return None
    qi, xj = hit
    return set(zip(qi.tolist(), xj.tolist()))


def _filter_exact(
    pairs: set, q: np.ndarray, x: np.ndarray, closed: bool
) -> set:
    """Reduce a candidate superset to the exactly-meeting pairs."""
    ndim = q.shape[1] // 2
    out = set()
    for i, j in pairs:
        lo = np.maximum(q[i, :ndim], x[j, :ndim])
        hi = np.minimum(q[i, ndim:], x[j, ndim:])
        meets = bool((lo <= hi).all()) if closed else bool((lo < hi).all())
        if meets:
            out.add((i, j))
    return out


# ---------------------------------------------------------------------------
# the delta == rebuild property


@pytest.mark.parametrize("ndim", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["grid", "sweep"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_delta_update_matches_fresh_rebuild(ndim, kind, data):
    """A delta-updated index answers like a from-scratch rebuild."""
    old, new = data.draw(update_sequences(ndim))
    q = data.draw(corner_arrays(ndim, max_boxes=8))
    shape = tuple([32] * ndim)
    with pair_index_forced(kind):
        base = PairIndex(shape, old)
        delta = base.updated_to(new)
        fresh = PairIndex(shape, new)
    assert delta.nboxes == new.shape[0]
    assert delta.indexes(new)
    assert not delta.indexes(old) or new is old
    for closed in (False, True):
        want = _exact_pairs(q, new, closed)
        for index in (delta, fresh):
            got = _query_pairs(index, q, closed)
            if got is None:  # probe declined: callers fall back per-query
                continue
            assert got >= want, f"candidates miss exact pairs (closed={closed})"
            assert _filter_exact(got, q, new, closed) == want


@pytest.mark.parametrize("ndim", [1, 2, 3])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_full_replacement_rebuilds(ndim, data):
    """100% churn must fall back to a full rebuild, and still be right."""
    old = data.draw(corner_arrays(ndim, max_boxes=8))
    new = data.draw(corner_arrays(ndim, max_boxes=8))
    if old.size and new.size:
        old_keys = {tuple(r) for r in old.tolist()}
        fresh_rows = [r for r in new.tolist() if tuple(r) not in old_keys]
        new = (
            np.asarray(fresh_rows, dtype=np.int64).reshape(-1, 2 * ndim)
            if fresh_rows
            else np.empty((0, 2 * ndim), dtype=np.int64)
        )
    with pair_index_forced("grid"):
        base = PairIndex(tuple([32] * ndim), old)
        with pair_counters_scope() as counters:
            updated = base.updated_to(new)
    if old.shape[0] and new.shape[0]:
        # zero shared rows => churn above threshold => rebuild, no delta
        assert counters.delta_updates == 0
        assert counters.index_builds >= 1
    q = data.draw(corner_arrays(ndim, max_boxes=6))
    got = _query_pairs(updated, q, False)
    if got is not None:
        want = _exact_pairs(q, new, False)
        assert got >= want
        assert _filter_exact(got, q, new, False) == want


@pytest.mark.parametrize("kind", ["grid", "sweep"])
def test_noop_diff_is_a_delta(kind):
    """Identical content in a new array object takes the delta path."""
    corners = np.asarray(
        [[0, 0, 4, 4], [4, 0, 8, 3], [0, 4, 3, 8], [5, 5, 9, 9]],
        dtype=np.int64,
    )
    with pair_index_forced(kind):
        base = PairIndex((16, 16), corners)
        clone = corners.copy()
        with pair_counters_scope() as counters:
            updated = base.updated_to(clone)
    assert counters.delta_updates == 1
    assert counters.index_builds == 0
    assert updated.indexes(clone) and not updated.indexes(corners)
    q = np.asarray([[1, 1, 6, 6]], dtype=np.int64)
    assert _query_pairs(updated, q, False) == _query_pairs(base, q, False)


def test_chained_delta_updates_stay_correct():
    """Indexes surviving several steps of churn keep answering exactly."""
    rng = np.random.default_rng(7)
    shape = (64, 64)
    corners = np.asarray(
        [[x, y, x + 4, y + 4] for x in range(0, 32, 8) for y in range(0, 32, 8)],
        dtype=np.int64,
    )
    with pair_index_forced("grid"):
        index = PairIndex(shape, corners)
        for step in range(6):
            keep = rng.random(corners.shape[0]) > 0.3
            kept = corners[keep]
            n_add = int(rng.integers(0, 5))
            added = []
            seen = {tuple(r) for r in kept.tolist()}
            while len(added) < n_add:
                x, y = rng.integers(0, 58, size=2)
                row = (int(x), int(y), int(x) + 5, int(y) + 5)
                if row not in seen:
                    seen.add(row)
                    added.append(row)
            corners = np.concatenate(
                [kept, np.asarray(added, dtype=np.int64).reshape(-1, 4)]
            )
            index = index.updated_to(corners)
            assert index.indexes(corners)
            q = np.asarray([[0, 0, 40, 40], [20, 20, 26, 26]], dtype=np.int64)
            got = _query_pairs(index, q, False)
            want = _exact_pairs(q, corners, False)
            assert got is None or (
                got >= want and _filter_exact(got, q, corners, False) == want
            )


# ---------------------------------------------------------------------------
# the duplicate-free bucket join vs the sort-and-dedup formulation


def _bucket_cells(
    corners: np.ndarray, cell: np.ndarray, closed: bool, dims=None
) -> np.ndarray:
    """Inclusive bucket ranges ``[first..., last...]`` of corner rows."""
    ndim = corners.shape[1] // 2
    lo = corners[:, :ndim] // cell
    hi = (corners[:, ndim:] - (0 if closed else 1)) // cell
    if dims is not None:
        lo, hi = np.clip(lo, 0, dims - 1), np.clip(hi, 0, dims - 1)
    return np.concatenate((lo, hi), axis=1)


def _probe_cells(index: PairIndex, q: np.ndarray, x: np.ndarray, closed: bool):
    """Bucket ranges a probe of ``index`` (over ``x``) joins ``q`` on."""
    ndim = q.shape[1] // 2
    if index.kind == "sweep":
        # Unit buckets along the sweep axis: the sweep keeps exactly the
        # pairs whose extents meet there.
        axis = [index._axis, ndim + index._axis]
        one = np.ones(1, dtype=np.int64)
        return (
            _bucket_cells(q[:, axis], one, closed),
            _bucket_cells(x[:, axis], one, closed),
        )
    # The index stores closed incidences whatever the probe's semantics.
    return (
        _bucket_cells(q, index._cell, closed, index._dims),
        _bucket_cells(x, index._cell, True, index._dims),
    )


def _assert_same_stream(got, want) -> None:
    """``got`` holds each of ``want``'s pairs exactly once, in any order."""
    pairs = list(zip(got[0].tolist(), got[1].tolist()))
    assert len(pairs) == len(set(pairs)), "a candidate pair was repeated"
    assert set(pairs) == set(zip(want[0].tolist(), want[1].tolist()))


@pytest.mark.parametrize("ndim", [1, 2, 3, 4])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_candidates_are_the_deduplicated_bucket_join(ndim, data):
    """Each path emits the sort-and-dedup candidate set, each pair once.

    Covers fresh and delta-updated grid indexes and the sweep kind, each
    probed from either operand's side, and the two-sided grid join, for
    open and closed queries; the ``candidate_pairs`` counter is charged
    the oracle's count.
    """
    old, new = data.draw(update_sequences(ndim))
    q = data.draw(corner_arrays(ndim, max_boxes=10))
    shape = tuple([32] * ndim)
    with pair_index_forced("grid"):
        indexes = [PairIndex(shape, new), PairIndex(shape, old).updated_to(new)]
    with pair_index_forced("sweep"):
        indexes.append(PairIndex(shape, new))
    both_indexed = q.shape[0] > 1 and new.shape[0] > 1
    for closed in (False, True):
        for index in indexes:
            if index.kind == "empty":
                continue
            want = canonical_candidate_pairs(*_probe_cells(index, q, new, closed))
            hit = _drain(index.query(q, closed))
            if hit is None:  # probe declined: callers fall back per-query
                continue
            _assert_same_stream(hit, want)
            if not both_indexed:  # one-row operands skip the index
                continue
            with pair_index_forced(index.kind):
                with pair_counters_scope() as counters:
                    ai, bj = _drain(candidate_pairs(q, new, closed, b_index=index))
                _assert_same_stream((ai, bj), want)
                assert counters.candidate_pairs == want[0].size
                xi, qj = _drain(candidate_pairs(new, q, closed, a_index=index))
                _assert_same_stream((qj, xi), want)
        if not both_indexed:
            continue
        _assert_two_sided_grid_join(q, new, closed)


def _assert_two_sided_grid_join(q: np.ndarray, x: np.ndarray, closed: bool):
    """The two-sided ``grid`` join emits its path's oracle candidates.

    The join buckets both operands on one grid (cell = median extent)
    and falls back to the sorted sweep once their cell incidences pass
    ``_GRID_INCIDENCE_FACTOR`` times the box count; the expected path is
    derived from the same rule, and its counter and oracle asserted.
    """
    ndim = q.shape[1] // 2
    lo = np.concatenate((q[:, :ndim], x[:, :ndim]))
    hi = np.concatenate((q[:, ndim:], x[:, ndim:]))
    cell = np.maximum(1, np.median(hi - lo, axis=0).astype(np.int64))
    q_cells = _bucket_cells(q, cell, closed)
    x_cells = _bucket_cells(x, cell, closed)
    spans = np.concatenate((q_cells, x_cells))
    incidences = int(np.prod(spans[:, ndim:] - spans[:, :ndim] + 1, axis=1).sum())
    grid = incidences <= _GRID_INCIDENCE_FACTOR * spans.shape[0] + 1024
    if grid:
        want = canonical_candidate_pairs(q_cells, x_cells)
    else:
        # The sweep's axis: largest first-corner spread per median extent.
        spread = lo.max(axis=0) - lo.min(axis=0)
        axis = int(np.argmax(spread / np.maximum(1, np.median(hi - lo, axis=0))))
        cols = [axis, ndim + axis]
        one = np.ones(1, dtype=np.int64)
        want = canonical_candidate_pairs(
            _bucket_cells(q[:, cols], one, closed),
            _bucket_cells(x[:, cols], one, closed),
        )
    with pair_index_forced("grid"):
        with pair_counters_scope() as counters:
            got = _drain(candidate_pairs(q, x, closed))
    _assert_same_stream(got, want)
    assert (counters.grid_queries, counters.sweep_queries) == (
        (1, 0) if grid else (0, 1)
    )
    assert counters.candidate_pairs == want[0].size


@pytest.mark.parametrize("closed", [False, True])
def test_two_sided_grid_falls_back_to_the_sweep(closed):
    """A box spanning 8^4 unit cells sends forced ``grid`` to the sweep."""
    q = np.asarray([[0, 0, 0, 0, 8, 8, 8, 8], [1, 1, 1, 1, 2, 2, 2, 2]])
    x = np.asarray([[i] * 4 + [i + 1] * 4 for i in range(5)])
    with pair_index_forced("grid"):
        with pair_counters_scope() as counters:
            _drain(candidate_pairs(q, x, closed))
    assert (counters.grid_queries, counters.sweep_queries) == (0, 1)
    _assert_two_sided_grid_join(q, x, closed)


@pytest.mark.parametrize("ndim", [2, 3])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_survivor_order_matches_bruteforce(ndim, data):
    """Unordered candidates still yield the brute-force emission order.

    One rank per box makes the order of ``face_contacts``' rank columns
    show the pair order itself; both pair-emitting kernels are checked
    on every indexed path, including a persistent index.
    """
    boxes = data.draw(disjoint_boxlists(max_boxes=8, max_coord=24, ndim=ndim))
    corners = box_corners(boxes, ndim)
    other = data.draw(corner_arrays(ndim, max_boxes=10))
    ranks = np.arange(corners.shape[0], dtype=np.int32)
    with pair_index_forced("bruteforce"):
        want_faces = face_contacts(corners, ranks)
        want_pairs = pair_intersections(other, corners)
    for mode in ("grid", "sweep"):
        with pair_index_forced(mode):
            index = PairIndex(tuple([32] * ndim), corners)
            other_index = PairIndex(tuple([32] * ndim), other)
            for kwargs in ({}, {"index": index}):
                got = face_contacts(corners, ranks, **kwargs)
                for g, w in zip(got, want_faces):
                    np.testing.assert_array_equal(g, w)
            for kwargs in ({}, {"b_index": index}, {"a_index": other_index}):
                got = pair_intersections(other, corners, **kwargs)
                for g, w in zip(got, want_pairs):
                    np.testing.assert_array_equal(g, w)


# ---------------------------------------------------------------------------
# chunk boundaries of the candidate stream

#: The pair-kernel counters perfbench checks exactly.
_CHECKED_COUNTERS = (
    "candidate_pairs",
    "exact_pairs",
    "index_builds",
    "index_reuses",
    "delta_updates",
)


def _every_kernel(corners, ranks, other, other_ranks, shape):
    """Each pair kernel on each candidate path (fresh, delta, per-query)."""
    index = PairIndex(shape, corners[::2]).updated_to(corners)
    other_index = PairIndex(shape, other)
    return [
        face_contacts(corners, ranks),
        face_contacts(corners, ranks, index=index),
        pair_intersections(other, corners),
        pair_intersections(other, corners, b_index=index),
        pair_intersections(other, corners, a_index=other_index),
        overlap_volume(other, corners, b_index=index),
        matched_volume(other, other_ranks, corners, ranks),
        matched_volume(other, other_ranks, corners, ranks, b_index=index),
        overlap_and_matched_volume(
            other, other_ranks, corners, ranks, a_index=other_index
        ),
    ]


def _assert_same_outputs(got, want) -> None:
    for g, w in zip(got, want, strict=True):
        g, w = (g, w) if isinstance(w, tuple) else ((g,), (w,))
        for ga, wa in zip(g, w, strict=True):
            assert np.asarray(ga).dtype == np.asarray(wa).dtype
            np.testing.assert_array_equal(ga, wa)


@pytest.mark.parametrize("ndim", [1, 2, 3, 4])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_chunk_boundaries_change_nothing(ndim, data):
    """Any chunk budget gives the brute-force outputs and the same counters.

    Budgets of 1 and 7 raw pairs split the bucket join, the sweep and
    the brute-force broadcast mid-stream.  Every kernel's output —
    including ``face_contacts``' emission order — must equal the
    ``bruteforce`` oracle's, and the five checked counters must equal
    the default budget's on the same path.
    """
    boxes = data.draw(disjoint_boxlists(max_boxes=12, max_coord=24, ndim=ndim))
    corners = box_corners(boxes, ndim)
    other = data.draw(corner_arrays(ndim, max_boxes=12))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    ranks = rng.integers(0, 3, size=corners.shape[0]).astype(np.int32)
    other_ranks = rng.integers(0, 3, size=other.shape[0]).astype(np.int32)
    shape = tuple([32] * ndim)
    args = (corners, ranks, other, other_ranks, shape)
    with pair_index_forced("bruteforce"):
        want = _every_kernel(*args)
    counts = {}
    for budget in (pairindex._CHUNK_PAIRS, 7, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pairindex, "_CHUNK_PAIRS", budget)
            for mode in ("bruteforce", "grid", "sweep"):
                with pair_index_forced(mode), pair_counters_scope() as c:
                    got = _every_kernel(*args)
                _assert_same_outputs(got, want)
                seen = tuple(getattr(c, name) for name in _CHECKED_COUNTERS)
                assert counts.setdefault(mode, seen) == seen, (mode, budget)


def _fragmented_runs(side: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A ``side**3`` grid cut into unit columns of random-length z runs."""
    rng = np.random.default_rng(seed)
    starts = np.ones((side, side, side), dtype=bool)
    starts[:, :, 1:] = rng.random((side, side, side - 1)) < 0.25
    flat = np.flatnonzero(starts)
    column = flat // side
    end = np.minimum(np.append(flat[1:], side**3), (column + 1) * side)
    x, y = np.divmod(column, side)
    z = flat - column * side
    corners = np.stack((x, y, z, x + 1, y + 1, z + end - flat), axis=1)
    ranks = rng.integers(0, 16, size=corners.shape[0]).astype(np.int32)
    return corners.astype(np.int64), ranks


def test_kernel_memory_is_bounded_by_the_chunk_budget():
    """Millions of candidates, a working set of O(_CHUNK_PAIRS + boxes).

    ``face_contacts`` on a fragmented 3-D map and ``matched_volume``
    against a second map fragmented along another axis each stream over
    a million candidate pairs through a persistent index.  Their
    tracemalloc peak must stay under 48 bytes per budgeted pair plus
    512 bytes per box of the larger operand (the index's incidence
    arrays and the survivors) — far below what the materialized
    candidate stream would take.
    """
    side = 64
    a, a_ranks = _fragmented_runs(side, 0)
    b, b_ranks = _fragmented_runs(side, 1)
    b = b[:, [2, 1, 0, 5, 4, 3]].copy()
    shape = (side,) * 3
    with pair_index_forced("grid"):
        a_index, b_index = PairIndex(shape, a), PairIndex(shape, b)
        kernels = {
            "face_contacts": lambda: face_contacts(a, a_ranks, index=a_index),
            "matched_volume": lambda: matched_volume(
                a, a_ranks, b, b_ranks, b_index=b_index
            ),
        }
        bound = 48 * pairindex._CHUNK_PAIRS + 512 * max(a.shape[0], b.shape[0])
        for name, kernel in kernels.items():
            tracemalloc.start()
            try:
                with pair_counters_scope() as counters:
                    kernel()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert counters.candidate_pairs > 1_000_000, name
            assert peak < bound, f"{name}: peak {peak} B >= bound {bound} B"


# ---------------------------------------------------------------------------
# the batched overlay/subtract engine vs the sequential Box sweep


@pytest.mark.parametrize("ndim", [1, 2, 3, 4])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_batched_subtract_matches_sequential_sweep(ndim, data):
    """Batched overlay/subtract is bit-identical to the per-box loop.

    Not just the same region: the batched engine must emit the *same
    fragment rows in the same order*, because partitioners consume the
    overlay output structurally.
    """
    top_boxes = data.draw(disjoint_boxlists(max_boxes=6, ndim=ndim))
    bottom_boxes = data.draw(disjoint_boxlists(max_boxes=6, ndim=ndim))
    top = box_corners(top_boxes, ndim)
    bottom = box_corners(bottom_boxes, ndim)
    top_ranks = np.arange(top.shape[0], dtype=np.int32) % 3
    bottom_ranks = np.arange(bottom.shape[0], dtype=np.int32) % 3
    c_got, r_got = overlay_corners(top, top_ranks, bottom, bottom_ranks)
    c_want, r_want = sequential_overlay_corners(
        top, top_ranks, bottom, bottom_ranks
    )
    np.testing.assert_array_equal(c_got, c_want)
    np.testing.assert_array_equal(r_got, r_want)
    assert r_got.dtype == r_want.dtype
    np.testing.assert_array_equal(
        subtract_corners(bottom, top), sequential_subtract_corners(bottom, top)
    )


# ---------------------------------------------------------------------------
# plumbing


def test_owner_map_pair_index_is_cached():
    from repro.geometry import OwnerMap

    corners = np.asarray(
        [[0, 0, 8, 8], [8, 0, 16, 8], [0, 8, 16, 16]], dtype=np.int64
    )
    ranks = np.asarray([0, 1, 2], dtype=np.int32)
    m = OwnerMap((16, 16), corners, ranks)
    with pair_index_forced("bruteforce"):
        assert m.pair_index() is None
    with pair_index_forced("grid"):
        index = m.pair_index()
        assert index is not None and index.indexes(m.corners)
        assert m.pair_index() is index  # cached


def test_nested_empty_scopes_keep_the_global_frame():
    """Leaving a scope removes that frame, not an equal-valued one.

    All-zero frames compare equal as dataclasses, so a value-based
    removal used to evict the global frame and leave the inner scope's
    frame in its place.
    """
    global_frame = reset_pair_index_counters()
    with pair_counters_scope():
        with pair_counters_scope():
            pass
    assert pair_index_counters() is global_frame
    a = np.asarray([[0, 0, 2, 2]], dtype=np.int64)
    pair_intersections(a, a)
    assert global_frame.queries == 1


# ---------------------------------------------------------------------------
# the layer engages on a real trace, without changing a single number


@pytest.fixture(scope="module")
def _small_replay():
    trace = paper_trace("tp2d", "small")
    part = create("partitioner", "nature+fable")
    return trace, part


def test_reuse_engages_on_paper_trace(_small_replay):
    trace, part = _small_replay
    sim = TraceSimulator()
    with pair_index_forced("grid"):
        with pair_counters_scope() as counters:
            result_on = sim.run(trace, part, 8)
    assert counters.index_builds > 0
    assert counters.index_reuses > 0, "persistent indexes never reused"
    assert counters.delta_updates > 0, "no step-to-step delta updates"
    with pair_index_forced("bruteforce"):
        with pair_counters_scope() as brute_counters:
            result_brute = sim.run(trace, part, 8)
    assert brute_counters.index_builds == 0
    assert brute_counters.index_reuses == 0
    assert brute_counters.delta_updates == 0
    assert result_on == result_brute, "reuse layer changed a step metric"


def test_cross_check_passes_with_reuse(_small_replay):
    """Every step of a reuse-on replay matches both oracles."""
    trace, part = _small_replay
    sim = TraceSimulator()
    previous = prev_h = None
    with pair_index_forced("grid"), pair_counters_scope() as counters:
        for snap in trace:
            result = part.partition(snap.hierarchy, 8, previous)
            if previous is not None:
                for prev_map, cur_map in zip(previous.maps, result.maps):
                    cur_map.seed_pair_index_from(prev_map)
            check_step(sim, snap.hierarchy, result, previous, prev_h)
            previous, prev_h = result, snap.hierarchy
    assert counters.delta_updates > 0
