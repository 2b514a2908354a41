"""Grid-bucket pair pruning: sub-quadratic candidates for the pair kernels.

The owner-map kernels (:func:`~repro.geometry.ownermap.pair_intersections`,
:func:`~repro.geometry.ownermap.face_contacts`,
:func:`~repro.geometry.ownermap.overlap_volume`) are exact sweeps over
*candidate* box pairs.  Historically the candidate set was the full
O(n_a * n_b) cross product; at ``deep`` scale and beyond almost all of
those pairs are disjoint, and the broadcast dominates simulator
wall-clock.  This module prunes the candidate set to near-linear before
the exact arithmetic runs:

* **grid** — boxes are bucketed into a coarse integer grid whose cell
  size is the *median box extent* per axis (so a typical box touches
  O(2^ndim) cells).  Cell incidences are packed into int64 keys
  (mixed-radix over the grid extents) and the two inputs are joined on
  sorted unique keys: only pairs sharing at least one bucket are
  emitted.  Two boxes that intersect (or abut, for the *closed* face
  query) always share a cell, so the candidate set is a superset of the
  exact answer — pruning never changes results.
* **sweep** — the fallback for degenerate aspect ratios (long skinny
  boxes spanning many buckets blow up the incidence lists): a sorted
  1-D interval sweep along the most selective axis.  Automatically
  selected when the grid's cell incidences exceed
  ``_GRID_INCIDENCE_FACTOR`` times the box count.
* **bruteforce** — the original quadratic kernels, kept verbatim as the
  in-tree pair oracle (``None`` from :func:`candidate_pairs` tells the
  kernel to run its historical broadcast).

Candidates are **duplicate-free and unordered**.  The grid join emits a
pair only in its *reference bucket* — the componentwise max of the two
boxes' first cells, the one bucket both boxes are guaranteed to share
(the reference-point method of spatial joins) — so each distinct pair
comes out exactly once and no candidate stream is ever sorted or
deduplicated.  Kernels that emit pairs (``pair_intersections``,
``face_contacts``) rebuild the brute-force emission order (``ai``-major,
``bj``-minor) on their exact survivors only; kernels that only sum skip
ordering.  Every path therefore produces **bit-identical** outputs —
asserted by the property suite and by the whole-step oracle checks in
``tests/oracles.py``.

Candidates arrive as a **stream** of ``(ai, bj)`` chunks.  Every join
splits its raw pair enumeration (bucket products, sweep prefixes) at
:data:`_CHUNK_PAIRS`, so the exact kernels downstream never hold more
than one chunk of candidates: replay memory is set by the boxes and the
budget, not by how many pairs a fragmented distribution produces.  A
query whose raw pairs fit the budget is one chunk, computed exactly as
an unchunked join would.

The active path is selected by the ``REPRO_PAIR_INDEX`` environment
variable (``auto`` | ``grid`` | ``sweep`` | ``bruteforce``; default
``auto`` = grid with a small-product brute-force cutoff) or forced
in-process with :func:`pair_index_forced`.  :func:`pair_index_counters`
exposes pruning effectiveness (candidate pairs generated vs. exact
pairs surviving vs. the brute-force product) for the benchmark tables
and ``repro describe --kind pair-index``.

**Persistent indexes** (:class:`PairIndex`) exploit the temporal
coherence the paper's whole premise rests on: consecutive regrid steps
share most of their boxes, so the bucket structure of one step's
distribution is almost the next step's too.  A :class:`PairIndex` is
built *once* per corner array (grid buckets over the level's fixed
domain, or the sorted-sweep fallback for degenerate aspect ratios),
answers every kernel query against that array within a simulator step,
and is *delta-updated* to the next step's array from the box
add/remove diff — falling back to a full rebuild when churn exceeds
:data:`_DELTA_CHURN_FRACTION` of the boxes.  Candidates from a
persistent index are a superset of the two-sided candidates, equally
duplicate-free, so every downstream kernel stays **bit-identical** on
every path.  Reuse is not
switchable: ``bruteforce`` mode never builds an index, so the
grid-vs-bruteforce diff is the reuse layer's bit-identity check.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..registry import declare_kind, register

__all__ = [
    "PAIR_INDEX_MODES",
    "PairIndex",
    "PairKernelCounters",
    "candidate_pairs",
    "pair_counters_scope",
    "pair_index_counters",
    "pair_index_forced",
    "pair_index_mode",
    "reset_pair_index_counters",
]

#: A candidate stream: ``(ai, bj)`` int64 chunk arrays.
PairStream = Iterator[tuple[np.ndarray, np.ndarray]]

#: Recognized values of ``REPRO_PAIR_INDEX``.
PAIR_INDEX_MODES = ("auto", "grid", "sweep", "bruteforce")

#: ``auto`` runs the historical broadcast below this pair product — for
#: tiny inputs the quadratic kernel beats the index's setup cost.
_AUTO_BRUTE_CUTOFF = 16_384

#: The grid path falls back to the sorted sweep when its cell-incidence
#: lists exceed this factor times the box count (degenerate aspect
#: ratios: boxes spanning many buckets each).
_GRID_INCIDENCE_FACTOR = 32

#: Raw pairs per candidate chunk: the bucket join, the sweep's prefix
#: enumeration and the brute-force broadcast all split their work here,
#: so a kernel's working set is O(_CHUNK_PAIRS + boxes).
_CHUNK_PAIRS = 1 << 18

#: A delta update is abandoned for a full rebuild when
#: ``removed + added`` exceeds this fraction of the new box count —
#: past that point re-bucketing everything is cheaper than merging.
_DELTA_CHURN_FRACTION = 0.5

#: In-process override installed by :func:`pair_index_forced`.
_FORCED_MODE: str | None = None


def pair_index_mode() -> str:
    """The active candidate-generation mode.

    :func:`pair_index_forced` overrides take precedence over the
    ``REPRO_PAIR_INDEX`` environment variable (read per call, so tests
    and CI steps can flip it without re-importing).
    """
    mode = _FORCED_MODE or os.environ.get("REPRO_PAIR_INDEX", "auto")
    if mode not in PAIR_INDEX_MODES:
        raise ValueError(
            f"REPRO_PAIR_INDEX must be one of {PAIR_INDEX_MODES}, got {mode!r}"
        )
    return mode


@contextmanager
def pair_index_forced(mode: str):
    """Force one candidate mode for the dynamic extent of the block.

    The property suite and the test oracles use this to replay the same
    query on two paths and assert bit-identical output.
    """
    global _FORCED_MODE
    if mode not in PAIR_INDEX_MODES:
        raise ValueError(
            f"pair-index mode must be one of {PAIR_INDEX_MODES}, got {mode!r}"
        )
    previous = _FORCED_MODE
    _FORCED_MODE = mode
    try:
        yield
    finally:
        _FORCED_MODE = previous


@dataclass
class PairKernelCounters:
    """Pruning-effectiveness accounting of the pair kernels.

    ``pair_product`` is what a pure brute-force run would examine;
    ``candidate_pairs`` is what the index actually emitted to the exact
    arithmetic; ``exact_pairs`` is what survived it.  The gap between
    the first two is the pruning win, the gap between the last two the
    remaining slack of the index.
    """

    queries: int = 0
    grid_queries: int = 0
    sweep_queries: int = 0
    brute_queries: int = 0
    pair_product: int = 0
    bruteforce_pairs: int = 0
    candidate_pairs: int = 0
    exact_pairs: int = 0
    index_builds: int = 0
    index_reuses: int = 0
    delta_updates: int = 0

    def as_dict(self) -> dict:
        """JSON-able snapshot (benchmark tables, ``describe`` output)."""
        return {
            "queries": self.queries,
            "grid_queries": self.grid_queries,
            "sweep_queries": self.sweep_queries,
            "brute_queries": self.brute_queries,
            "pair_product": self.pair_product,
            "bruteforce_pairs": self.bruteforce_pairs,
            "candidate_pairs": self.candidate_pairs,
            "exact_pairs": self.exact_pairs,
            "index_builds": self.index_builds,
            "index_reuses": self.index_reuses,
            "delta_updates": self.delta_updates,
        }

    def pruning_ratio(self) -> float:
        """Brute-force pairs avoided per emitted candidate (>= 1)."""
        examined = self.candidate_pairs + self.bruteforce_pairs
        if examined == 0:
            return 1.0
        return self.pair_product / examined


# Counter frames: every kernel event is charged to *all* live frames.
# Frame 0 is the historical process-global accumulator (kept for the
# benchmark tables and ``repro describe``); :func:`pair_counters_scope`
# pushes scoped frames on top so the executor can attribute kernel work
# to a single run — the fix for counters silently accumulating across
# runs in one process (pool workers, daemons), which skewed per-run
# pruning ratios.
_COUNTER_STACK: list[PairKernelCounters] = [PairKernelCounters()]


def pair_index_counters() -> PairKernelCounters:
    """The process-global counter frame (mutated by every pair kernel).

    Accumulates since import (or the last explicit reset).  For per-run
    accounting use :func:`pair_counters_scope` instead.
    """
    return _COUNTER_STACK[0]


def reset_pair_index_counters() -> PairKernelCounters:
    """Zero the process-global frame; returns the struct for chaining.

    Scoped frames pushed by :func:`pair_counters_scope` are unaffected
    — a benchmark resetting the global cannot corrupt a concurrent
    run's attribution.
    """
    _COUNTER_STACK[0] = PairKernelCounters()
    return _COUNTER_STACK[0]


@contextmanager
def pair_counters_scope():
    """A fresh counter frame covering only this dynamic extent.

    Yields a :class:`PairKernelCounters` that sees exactly the kernel
    work performed inside the block (the global frame keeps
    accumulating in parallel).  Scopes nest: an inner scope's events
    are charged to every enclosing frame too.
    """
    frame = PairKernelCounters()
    _COUNTER_STACK.append(frame)
    try:
        yield frame
    finally:
        # By identity: ``list.remove`` compares dataclass *values*, so an
        # all-zero frame would match (and evict) the global frame 0.
        for i, live in enumerate(_COUNTER_STACK):
            if live is frame:
                del _COUNTER_STACK[i]
                break


def _record(**deltas: int) -> None:
    """Charge counter deltas to every live frame."""
    for frame in _COUNTER_STACK:
        for field, n in deltas.items():
            setattr(frame, field, getattr(frame, field) + n)


def _record_exact(n: int) -> None:
    """Called by the kernels with the surviving pair count."""
    _record(exact_pairs=int(n))


def _record_brute(n_pairs: int) -> None:
    """Called by the kernels when the historical broadcast runs."""
    _record(brute_queries=1, bruteforce_pairs=int(n_pairs))


# ---------------------------------------------------------------------------
# candidate generation
# ---------------------------------------------------------------------------

def candidate_pairs(
    a: np.ndarray,
    b: np.ndarray,
    closed: bool = False,
    *,
    a_index: "PairIndex | None" = None,
    b_index: "PairIndex | None" = None,
) -> PairStream | None:
    """Candidate ``(ai, bj)`` index pairs of two corner arrays, in chunks.

    Returns ``None`` when the caller should run its brute-force
    broadcast (``bruteforce`` mode, or ``auto`` below the small-product
    cutoff); otherwise an iterator of int64 ``(ai, bj)`` chunk arrays
    that together hold every intersecting pair plus some near misses,
    each pair **exactly once** and in no particular order.  Each chunk
    comes from at most :data:`_CHUNK_PAIRS` raw pairs.  Kernels that
    emit pairs order their exact survivors themselves.

    ``closed`` treats boxes as closed intervals ``[lo, hi]`` so *abutting*
    boxes also cohabit a bucket — the face-contact query needs touching
    pairs, not just overlapping ones.

    ``a_index`` / ``b_index`` are optional persistent :class:`PairIndex`
    objects over ``a`` / ``b``.  When an index actually covers its
    operand (identity-checked), candidates come from one one-sided probe
    instead of a fresh two-sided build; the exact survivors are the
    same either way.

    The path (and its ``*_queries`` counter) is chosen when this is
    called; ``candidate_pairs`` is charged per chunk as the stream is
    consumed.
    """
    n_a, n_b = a.shape[0], b.shape[0]
    _record(queries=1, pair_product=n_a * n_b)
    mode = pair_index_mode()
    if mode == "bruteforce":
        return None
    if mode == "auto" and n_a * n_b <= _AUTO_BRUTE_CUTOFF:
        return None
    if n_a == 0 or n_b == 0:
        return iter(())
    if n_a == 1 or n_b == 1:
        # One-row operand: the interval test along every axis *is* the
        # candidate filter — O(n), no index to build.  This keeps the
        # thousands of per-box subtraction queries the overlay kernels
        # issue cheap even when an indexed mode is forced.
        return iter((_single_candidates(a, b, closed),))
    if b_index is not None and b_index.indexes(b):
        hit = b_index.query(a, closed)
        if hit is not None:
            return hit
    if a_index is not None and a_index.indexes(a):
        hit = a_index.query(b, closed)
        if hit is not None:
            return ((ai, bj) for bj, ai in hit)
    if mode == "sweep":
        return _sweep_candidates(a, b, closed)
    return _grid_candidates(a, b, closed)


def _chunk_ranges(counts: np.ndarray) -> list[tuple[int, int]]:
    """Consecutive ``[start, end)`` row ranges of at most ``_CHUNK_PAIRS``.

    ``counts`` holds the raw pairs each row expands to; a range sums to
    the budget or less, except a single row above it, which is a range
    of its own.  One range covers everything when the total fits.
    """
    n = counts.size
    if int(counts.sum()) <= _CHUNK_PAIRS:
        return [(0, n)] if n else []
    csum = np.cumsum(counts)
    ranges = []
    start = 0
    while start < n:
        done = int(csum[start - 1]) if start else 0
        end = int(np.searchsorted(csum, done + _CHUNK_PAIRS, side="right"))
        end = max(start + 1, end)
        ranges.append((start, end))
        start = end
    return ranges


def _chunk_slices(n_a: int, n_b: int) -> Iterator[slice]:
    """Row slices of ``a`` keeping each ``(rows, n_b)`` broadcast in budget."""
    if n_a == 0 or n_b == 0:
        return
    step = max(1, _CHUNK_PAIRS // n_b)
    for start in range(0, n_a, step):
        yield slice(start, min(start + step, n_a))


def _single_candidates(
    a: np.ndarray, b: np.ndarray, closed: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Exact candidates when either operand is a single box."""
    ndim = a.shape[1] // 2
    if closed:
        hit = (a[:, None, :ndim] <= b[None, :, ndim:]).all(axis=2)
        hit &= (a[:, None, ndim:] >= b[None, :, :ndim]).all(axis=2)
    else:
        hit = (a[:, None, :ndim] < b[None, :, ndim:]).all(axis=2)
        hit &= (a[:, None, ndim:] > b[None, :, :ndim]).all(axis=2)
    ai, bj = np.nonzero(hit)
    _record(candidate_pairs=ai.size)
    return ai.astype(np.int64), bj.astype(np.int64)


def _grid_candidates(a: np.ndarray, b: np.ndarray, closed: bool) -> PairStream:
    """Bucket-join candidates (see module docstring for the scheme)."""
    ndim = a.shape[1] // 2
    lo = np.concatenate((a[:, :ndim], b[:, :ndim]))
    hi = np.concatenate((a[:, ndim:], b[:, ndim:]))
    extents = hi - lo
    # Cell size: the median box extent per axis — a typical box then
    # touches at most 2 cells per axis.  max(1, ...) guards thin boxes.
    cell = np.maximum(1, np.median(extents, axis=0).astype(np.int64))
    inclusive_hi = hi if closed else hi - 1
    while True:
        base = lo.min(axis=0) // cell
        dims = inclusive_hi.max(axis=0) // cell - base + 1
        # int64 key packing must not overflow: grow cells until the grid
        # extent product fits (2 bits of headroom).
        if int(np.prod([int(d) for d in dims])) < 2**62:
            break
        cell = cell * 2
    lo_cell = lo // cell - base
    hi_cell = inclusive_hi // cell - base
    spans = hi_cell - lo_cell + 1
    incidences = int(np.prod(spans, axis=1, dtype=np.int64).sum())
    if incidences > _GRID_INCIDENCE_FACTOR * (a.shape[0] + b.shape[0]) + 1024:
        # Degenerate aspect ratios: enumerating the buckets would cost
        # more than it prunes — fall back to the sorted sweep.
        return _sweep_candidates(a, b, closed)
    _record(grid_queries=1)
    strides = np.ones(ndim, dtype=np.int64)
    for d in range(ndim - 2, -1, -1):
        strides[d] = strides[d + 1] * dims[d + 1]
    n_a = a.shape[0]
    buckets = _Buckets(*_cell_keys(lo_cell[n_a:], spans[n_a:], strides))
    return buckets.join(*_cell_keys(lo_cell[:n_a], spans[:n_a], strides), ndim)


class _Buckets:
    """Grid incidences sorted by cell key and grouped per bucket."""

    __slots__ = ("keys", "rows", "first", "ukeys", "ustart", "ucount")

    def __init__(self, keys: np.ndarray, rows: np.ndarray, first: np.ndarray):
        order = np.argsort(keys, kind="stable")
        self.keys, self.rows, self.first = keys[order], rows[order], first[order]
        starts = np.ones(self.keys.size, dtype=bool)
        np.not_equal(self.keys[1:], self.keys[:-1], out=starts[1:])
        self.ustart = np.flatnonzero(starts)
        self.ucount = np.diff(np.append(self.ustart, self.keys.size))
        self.ukeys = self.keys[self.ustart]

    def join(
        self, qkeys: np.ndarray, qrows: np.ndarray, qfirst: np.ndarray, ndim: int
    ) -> PairStream:
        """Duplicate-free join of query incidences against the buckets.

        Every query incidence is paired with the incidences of its
        bucket, and a pair is kept only in its *reference bucket*: the
        componentwise max of the two boxes' first cells.  A shared
        bucket is that max on axis ``d`` exactly when it is the first
        cell of either box there, so the test is ``(qfirst | first) ==
        all axes``.  Both boxes touch the reference bucket whenever they
        share any bucket, so every pair the buckets join comes out once.
        Yields ``(query row, bucketed row)`` chunks, splitting the query
        incidences where their raw pairs pass :data:`_CHUNK_PAIRS`.
        """
        if self.ukeys.size == 0 or qkeys.size == 0:
            return
        pos = np.searchsorted(self.ukeys, qkeys)
        np.minimum(pos, self.ukeys.size - 1, out=pos)
        count = np.where(self.ukeys[pos] == qkeys, self.ucount[pos], 0)
        start = self.ustart[pos]
        del pos  # not needed while the stream is consumed
        full = (1 << ndim) - 1
        for lo, hi in _chunk_ranges(count):
            c = count[lo:hi]
            ends = np.cumsum(c)
            total = int(ends[-1])
            if total == 0:
                continue
            # Position of each raw (query incidence, bucketed incidence)
            # pair in the sorted incidences.
            x = np.arange(total, dtype=np.int64)
            x += np.repeat(start[lo:hi] - (ends - c), c)
            keep = (np.repeat(qfirst[lo:hi], c) | self.first[x]) == full
            xj = self.rows[x[keep]]
            _record(candidate_pairs=xj.size)
            yield np.repeat(qrows[lo:hi], c)[keep], xj


def _ramp(counts: np.ndarray) -> np.ndarray:
    """``0..c-1`` for every ``c`` in ``counts``, concatenated."""
    total = int(counts.sum())
    starts = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def _cell_keys(
    lo_cell: np.ndarray, spans: np.ndarray, strides: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(packed cell key, box id, first-cell mask)`` per (cell, box) incidence.

    Every box emits one row per grid cell it touches (box-major, then
    row-major over its cells), keys packed with the global grid strides.
    Bit ``d`` of the mask is set when the cell is the box's first cell
    (``lo_cell``) on axis ``d``.  The cells are enumerated one axis at a
    time by repeating the rows so far ``spans[:, d]`` times each — no
    integer division.
    """
    n, ndim = lo_cell.shape
    mask_dtype = np.min_scalar_type((1 << ndim) - 1)
    keys = lo_cell @ strides
    rows = np.arange(n, dtype=np.int64)
    first = np.zeros(n, dtype=mask_dtype)
    for d in range(ndim):
        radix = spans[rows, d]
        bit = mask_dtype.type(1 << d)
        if (radix == 1).all():
            first |= bit
            continue
        digit = _ramp(radix)
        keys = np.repeat(keys, radix) + digit * strides[d]
        rows = np.repeat(rows, radix)
        first = np.repeat(first, radix)
        first[digit == 0] |= bit
    return keys, rows, first


def _sweep_candidates(a: np.ndarray, b: np.ndarray, closed: bool) -> PairStream:
    """Sorted 1-D interval sweep along the most selective axis.

    Exact along the sweep axis (candidates = pairs whose extents overlap
    there); the remaining axes are filtered by the exact arithmetic
    downstream, like any other candidate.
    """
    _record(sweep_queries=1)
    ndim = a.shape[1] // 2
    # Most selective axis: largest corner spread relative to the median
    # extent — the axis along which intervals separate best.
    lo_all = np.concatenate((a[:, :ndim], b[:, :ndim]))
    hi_all = np.concatenate((a[:, ndim:], b[:, ndim:]))
    spread = lo_all.max(axis=0) - lo_all.min(axis=0)
    med = np.maximum(1, np.median(hi_all - lo_all, axis=0))
    axis = int(np.argmax(spread / med))
    a_lo, a_hi = a[:, axis], a[:, ndim + axis]
    b_lo, b_hi = b[:, axis], b[:, ndim + axis]
    order = np.argsort(b_lo, kind="stable")
    return _sweep_join(a_lo, a_hi, b_lo[order], b_hi[order], order, closed)


def _sweep_join(
    a_lo: np.ndarray,
    a_hi: np.ndarray,
    b_lo_s: np.ndarray,
    b_hi_s: np.ndarray,
    order: np.ndarray,
    closed: bool,
) -> PairStream:
    """Chunked interval join against pre-sorted ``b`` intervals.

    Yields ``(ai, bj)`` chunks, each pair once (``bj`` in original ``b``
    row numbers, unsorted within an ``ai``).  Shared by the one-shot
    sweep path and :class:`PairIndex`'s persistent sweep kind.
    """
    # Candidates of row i: sorted-prefix j with b_lo_j < a_hi_i (<= when
    # closed), filtered by b_hi_j > a_lo_i (>= when closed).
    side = "right" if closed else "left"
    upper = np.searchsorted(b_lo_s, a_hi, side=side)
    for start, end in _chunk_ranges(upper):
        counts = upper[start:end]
        if not counts.any():
            continue
        ii = np.repeat(np.arange(start, end, dtype=np.int64), counts)
        jj = _ramp(counts)
        keep = b_hi_s[jj] >= a_lo[ii] if closed else b_hi_s[jj] > a_lo[ii]
        ii = ii[keep]
        _record(candidate_pairs=ii.size)
        yield ii, order[jj[keep]]


# ---------------------------------------------------------------------------
# persistent indexes
# ---------------------------------------------------------------------------

def _row_keys(corners: np.ndarray) -> np.ndarray:
    """One opaque sortable key per corner row (for the add/remove diff).

    Box rows within an owner map are unique (patches are disjoint), so
    the raw row bytes identify a box across steps.
    """
    c = np.ascontiguousarray(corners, dtype=np.int64)
    if c.shape[0] == 0:
        return np.empty(0, dtype=np.dtype((np.void, 8)))
    return c.view(np.dtype((np.void, c.dtype.itemsize * c.shape[1]))).ravel()


class PairIndex:
    """A persistent one-sided candidate index over one corner array.

    Built once per box distribution (grid buckets anchored to the
    level's fixed ``shape`` domain, or the sorted-sweep fallback when
    bucket incidences explode), then probed by every kernel query that
    touches the array within a step, and carried to the *next* step via
    :meth:`updated_to` — a delta update from the box add/remove diff
    that reuses the surviving incidences instead of re-bucketing
    everything.

    A probe returns a duplicate-free, unordered candidate **superset**:
    the exact survivors equal those of the two-sided per-query path (the
    candidate sets may differ — the exact arithmetic downstream erases
    the difference).
    """

    __slots__ = (
        "shape",
        "_ext",
        "_n",
        "_kind",
        "_cell",
        "_dims",
        "_strides",
        "_buckets",
        "_axis",
        "_order",
        "_lo_s",
        "_hi_s",
    )

    def __init__(self, shape, corners: np.ndarray):
        self.shape = tuple(int(s) for s in shape)
        self._ext = corners
        self._n = int(corners.shape[0])
        self._cell = self._dims = self._strides = None
        self._buckets = None
        self._axis = None
        self._order = self._lo_s = self._hi_s = None
        if self._n == 0:
            self._kind = "empty"
            return
        _record(index_builds=1)
        if pair_index_mode() == "sweep" or not self._build_grid():
            self._build_sweep()

    # -- introspection ----------------------------------------------------

    @property
    def kind(self) -> str:
        """``grid`` | ``sweep`` | ``empty``."""
        return self._kind

    @property
    def nboxes(self) -> int:
        return self._n

    def indexes(self, corners: np.ndarray) -> bool:
        """Whether this index covers exactly that corner array (identity)."""
        return corners is self._ext

    # -- construction -----------------------------------------------------

    def _build_grid(self) -> bool:
        """Bucket the boxes over the domain grid; False on explosion."""
        corners = self._ext
        ndim = corners.shape[1] // 2
        lo = corners[:, :ndim]
        hi = corners[:, ndim:]
        cell = np.maximum(1, np.median(hi - lo, axis=0).astype(np.int64))
        shape_arr = np.asarray(self.shape, dtype=np.int64)
        while True:
            # Anchored to the level's fixed domain (base 0) so any
            # future in-domain box fits the same grid — delta updates
            # never force a rebuild for bounds reasons.
            dims = shape_arr // cell + 1
            if int(np.prod([int(d) for d in dims])) < 2**62:
                break
            cell = cell * 2
        lo_cell, spans = self._incidence_cells(lo, hi, cell, dims)
        if int(np.prod(spans, axis=1, dtype=np.int64).sum()) > (
            _GRID_INCIDENCE_FACTOR * self._n + 1024
        ):
            return False
        strides = np.ones(ndim, dtype=np.int64)
        for d in range(ndim - 2, -1, -1):
            strides[d] = strides[d + 1] * dims[d + 1]
        self._kind = "grid"
        self._cell, self._dims, self._strides = cell, dims, strides
        self._buckets = _Buckets(*_cell_keys(lo_cell, spans, strides))
        return True

    @staticmethod
    def _incidence_cells(
        lo: np.ndarray, hi: np.ndarray, cell: np.ndarray, dims: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Clipped (lo_cell, spans) of the *closed* cell ranges.

        Closed incidence (``hi // cell``) covers a superset of both the
        open and closed query semantics, so one stored index serves
        intersection *and* face-contact probes.
        """
        lo_cell = np.clip(lo // cell, 0, dims - 1)
        hi_cell = np.clip(hi // cell, 0, dims - 1)
        return lo_cell, hi_cell - lo_cell + 1

    def _build_sweep(self) -> None:
        corners = self._ext
        ndim = corners.shape[1] // 2
        lo = corners[:, :ndim]
        hi = corners[:, ndim:]
        spread = lo.max(axis=0) - lo.min(axis=0)
        med = np.maximum(1, np.median(hi - lo, axis=0))
        self._kind = "sweep"
        self._axis = int(np.argmax(spread / med))
        self._resort_sweep()

    def _resort_sweep(self) -> None:
        ndim = self._ext.shape[1] // 2
        lo = self._ext[:, self._axis]
        hi = self._ext[:, ndim + self._axis]
        order = np.argsort(lo, kind="stable")
        self._order = order.astype(np.int64)
        self._lo_s = lo[order]
        self._hi_s = hi[order]

    # -- probing ----------------------------------------------------------

    def query(self, q: np.ndarray, closed: bool) -> PairStream | None:
        """Candidate ``(query_row, indexed_row)`` chunks, or ``None``.

        ``None`` means the probe declined (query-side bucket incidences
        would explode) and the caller should fall back to the two-sided
        per-query path.  Pairs are a superset of all intersecting
        (``closed``: touching) pairs, each exactly once, unordered, in
        chunks of at most :data:`_CHUNK_PAIRS` raw pairs.
        """
        if self._kind == "empty":
            return iter(())
        if self._kind == "sweep":
            return self._sweep_query(q, closed)
        return self._grid_query(q, closed)

    def _grid_query(self, q: np.ndarray, closed: bool) -> PairStream | None:
        ndim = self._dims.size
        lo = q[:, :ndim]
        inclusive_hi = q[:, ndim:] if closed else q[:, ndim:] - 1
        lo_cell = np.clip(lo // self._cell, 0, self._dims - 1)
        hi_cell = np.clip(inclusive_hi // self._cell, 0, self._dims - 1)
        spans = hi_cell - lo_cell + 1
        good = (spans > 0).all(axis=1)
        row_map = None
        if not good.all():
            # Zero-extent open boxes can't overlap anything — drop them,
            # remembering original row numbers for the emitted pairs.
            row_map = np.flatnonzero(good)
            lo_cell, spans = lo_cell[good], spans[good]
        incidences = int(np.prod(spans, axis=1, dtype=np.int64).sum())
        if incidences > _GRID_INCIDENCE_FACTOR * q.shape[0] + 1024:
            return None
        _record(grid_queries=1, index_reuses=1)
        stream = self._buckets.join(
            *_cell_keys(lo_cell, spans, self._strides), ndim
        )
        if row_map is None:
            return stream
        return ((row_map[qi], xj) for qi, xj in stream)

    def _sweep_query(self, q: np.ndarray, closed: bool) -> PairStream:
        _record(sweep_queries=1, index_reuses=1)
        ndim = q.shape[1] // 2
        a_lo = q[:, self._axis]
        a_hi = q[:, ndim + self._axis]
        return _sweep_join(a_lo, a_hi, self._lo_s, self._hi_s, self._order, closed)

    # -- delta updates ----------------------------------------------------

    def updated_to(self, new_corners: np.ndarray) -> "PairIndex":
        """A fresh :class:`PairIndex` over ``new_corners``, reusing work.

        Diffs the two box sets by row identity; when churn stays under
        :data:`_DELTA_CHURN_FRACTION`, surviving grid incidences are
        renumbered and merged with the added boxes' incidences (grid
        kind) or the sweep order is simply re-sorted (sweep kind) — far
        cheaper than re-bucketing.  Above the threshold, builds from
        scratch.  ``self`` is left untouched and stays valid.
        """
        n_new = int(new_corners.shape[0])
        if self._kind == "empty" or n_new == 0:
            return PairIndex(self.shape, new_corners)
        common, old_idx, new_idx = np.intersect1d(
            _row_keys(self._ext), _row_keys(new_corners), return_indices=True
        )
        removed = self._n - common.size
        added = n_new - common.size
        if removed + added > _DELTA_CHURN_FRACTION * max(1, n_new):
            return PairIndex(self.shape, new_corners)
        new = object.__new__(PairIndex)
        new.shape = self.shape
        new._ext = new_corners
        new._n = n_new
        new._kind = self._kind
        new._cell = new._dims = new._strides = None
        new._buckets = None
        new._axis = None
        new._order = new._lo_s = new._hi_s = None
        if self._kind == "sweep":
            new._kind = "sweep"
            new._axis = self._axis
            new._resort_sweep()
            _record(delta_updates=1)
            return new
        # Grid kind: renumber surviving incidences, bucket only the
        # added boxes on the same domain-anchored grid.
        remap = np.full(self._n, -1, dtype=np.int64)
        remap[old_idx] = new_idx
        old = self._buckets
        mapped = remap[old.rows]
        keep = mapped >= 0
        kept_keys = old.keys[keep]
        kept_rows = mapped[keep]
        kept_first = old.first[keep]
        added_rows = np.setdiff1d(
            np.arange(n_new, dtype=np.int64), new_idx, assume_unique=True
        )
        ndim = self._dims.size
        lo = new_corners[added_rows, :ndim]
        hi = new_corners[added_rows, ndim:]
        lo_cell, spans = self._incidence_cells(lo, hi, self._cell, self._dims)
        add_keys, add_local, add_first = _cell_keys(
            lo_cell, spans, self._strides
        )
        total = kept_keys.size + add_keys.size
        if total > _GRID_INCIDENCE_FACTOR * n_new + 1024:
            # Added boxes degenerate enough to blow the incidence budget
            # — rebuild from scratch (which may pick the sweep kind).
            return PairIndex(self.shape, new_corners)
        new._cell, new._dims, new._strides = self._cell, self._dims, self._strides
        new._buckets = _Buckets(
            np.concatenate((kept_keys, add_keys)),
            np.concatenate((kept_rows, added_rows[add_local])),
            np.concatenate((kept_first, add_first)),
        )
        _record(delta_updates=1)
        return new


# ---------------------------------------------------------------------------
# registry exposure: `repro describe --kind pair-index`
# ---------------------------------------------------------------------------

declare_kind("pair-index", "pair-index mode")


def _register_modes() -> None:
    docs = {
        "auto": (
            "grid-bucket pruning with a brute-force cutoff below "
            f"{_AUTO_BRUTE_CUTOFF} candidate products (the default)"
        ),
        "grid": (
            "force grid buckets (cell size = median box extent per axis; "
            "falls back to the sorted sweep when cell incidences exceed "
            f"{_GRID_INCIDENCE_FACTOR}x the box count)"
        ),
        "sweep": "force the sorted interval sweep along the most selective axis",
        "bruteforce": "force the historical O(n^2) broadcast (cross-check path)",
    }
    for name, description in docs.items():
        register(
            "pair-index",
            name,
            (lambda mode: lambda: pair_index_forced(mode))(name),
            description=description,
        )


_register_modes()

