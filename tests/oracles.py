"""Reference implementations the production kernels are checked against.

``src/`` computes every simulator quantity on one path: sparse
:class:`~repro.geometry.OwnerMap` box calculus through the pair index.
The straightforward versions that path replaced live here, as oracles:

* dense-raster reductions (int32 owner rasters, ``NO_OWNER`` outside
  the refined region) for ghost faces, message pairs, per-rank
  communication, inter-level transfer and migration;
* the sequential :meth:`~repro.geometry.Box.subtract` sweep behind
  :func:`~repro.geometry.subtract_corners` and
  :func:`~repro.geometry.overlay_corners`;
* the hierarchy build as it was before it worked at the cheapest exact
  resolution: :func:`level_resolution_flag_window` (flags resampled to
  level resolution, then buffered), :func:`reference_cluster_flags`
  (Berger--Rigoutsos re-reducing the whole array at every node),
  :func:`nested_clip` (the nested ``Box.intersect`` loop),
  :func:`greedy_coalesce_boxes` (the quadratic greedy loop), and
  :func:`reference_build_hierarchy`, which chains them;
* :func:`clip_to_parents_reference`, the hierarchy build's clip step
  with the re-disjointification it no longer runs;
* :func:`meshgrid_tp3d_initial` and :func:`meshgrid_tp3d_advance`, the
  tp3d initial state and step on full 3-D coordinate meshgrids;
* :func:`canonical_candidate_pairs`, the pair index's bucket join as it
  was before the reference-bucket rule: every pair once per shared
  bucket, then sorted and deduplicated;
* :func:`lexsort_merge_unit_runs`, Nature+Fable's unit-run merge on
  cells in any order (it sorts them row-major first);
* :func:`rm2d_reference_advance`, the rm2d Rusanov step on ghost-padded
  state stacks, with the primitives re-derived for every use;
* :func:`check_step`, the whole-step check: one simulator step must
  agree bit-identically with the same step under the ``bruteforce``
  pair oracle and with the dense reductions.

They materialize full-level rasters or loop over Python boxes, so use
them only at test scales.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

import numpy as np

from scipy import ndimage

from repro.apps.base import _resample
from repro.clustering import ClusterParams, buffer_flags
from repro.clustering.berger_rigoutsos import _best_hole, _best_inflection
from repro.geometry import (
    NO_OWNER,
    Box,
    BoxList,
    OwnerMap,
    bounding_box,
    box_corners,
    pair_index_forced,
    rasterize_mask,
    upsample,
)
from repro.hierarchy import GridHierarchy, PatchLevel
from repro.partition import PartitionResult
from repro.simulator import (
    ghost_face_stats,
    interlevel_transfer_cells as sparse_interlevel,
    migration_cells as sparse_migration,
)

# ---------------------------------------------------------------------------
# dense-raster reductions


def _cut_faces(raster: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Owner pairs ``(a, b)`` of every cell face between two ranks, per axis."""
    for axis in range(raster.ndim):
        a = np.moveaxis(raster, axis, 0)[:-1]
        b = np.moveaxis(raster, axis, 0)[1:]
        faces = (a != NO_OWNER) & (b != NO_OWNER) & (a != b)
        yield a[faces], b[faces]


def dense_ghost_exchange_cells(raster: np.ndarray, ghost_width: int = 1) -> int:
    """Cells exchanged per local step across the rank boundaries of a raster."""
    return 2 * ghost_width * sum(a.size for a, _ in _cut_faces(raster))


def dense_ghost_message_pairs(raster: np.ndarray) -> int:
    """Distinct communicating rank pairs of a raster, both directions."""
    packed = [
        (np.minimum(a, b).astype(np.int64) << np.int64(32))
        | np.maximum(a, b).astype(np.int64)
        for a, b in _cut_faces(raster)
    ]
    return 2 * int(np.unique(np.concatenate(packed)).size)


def dense_per_rank_comm_cells(
    raster: np.ndarray, nprocs: int, ghost_width: int = 1
) -> np.ndarray:
    """Ghost cells sent+received per rank per local step of a raster."""
    counts = np.zeros(nprocs, dtype=np.int64)
    for a, b in _cut_faces(raster):
        counts += np.bincount(a, minlength=nprocs)
        counts += np.bincount(b, minlength=nprocs)
    return counts * ghost_width


def dense_interlevel_transfer_cells(
    coarse: np.ndarray, fine: np.ndarray, ratio: int
) -> int:
    """Fine cells whose parent coarse cell has a different owner."""
    parent = upsample(coarse, ratio)
    mask = (fine != NO_OWNER) & (parent != NO_OWNER) & (fine != parent)
    return int(mask.sum())


def dense_migration_cells(
    prev_rasters: tuple[np.ndarray, ...], cur_rasters: tuple[np.ndarray, ...]
) -> int:
    """Migrated cells between two distributions given as level rasters.

    A cell's data source is its previous owner where its level existed,
    else the source of its refined ancestor (level 0 always exists).
    """
    total = 0
    source: np.ndarray | None = None
    for l, owners in enumerate(cur_rasters):
        if source is None:
            src = prev_rasters[0]
        else:
            src = upsample(source, owners.shape[0] // source.shape[0])
        if l < len(prev_rasters):
            src = np.where(prev_rasters[l] != NO_OWNER, prev_rasters[l], src)
        total += int(((owners != NO_OWNER) & (src != owners)).sum())
        source = src
    return total


# ---------------------------------------------------------------------------
# the sequential Box.subtract sweep


def _box(row: np.ndarray) -> Box:
    ndim = row.size // 2
    return Box(tuple(row[:ndim]), tuple(row[ndim:]))


def _touching(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(n_a, n_b)`` mask of intersecting corner-row pairs (brute force)."""
    ndim = a.shape[1] // 2
    lo = np.maximum(a[:, None, :ndim], b[None, :, :ndim])
    hi = np.minimum(a[:, None, ndim:], b[None, :, ndim:])
    return (hi > lo).all(axis=2)


def sequential_subtract_corners(base: np.ndarray, holes: np.ndarray) -> np.ndarray:
    """Reference :func:`~repro.geometry.subtract_corners`: untouched rows
    first, then each touched row cut by its holes one :class:`Box` at a time.
    """
    ndim = base.shape[1] // 2
    if base.shape[0] == 0 or holes.shape[0] == 0:
        return base.copy()
    touch = _touching(base, holes)
    out = [base[~touch.any(axis=1)]]
    for i in np.flatnonzero(touch.any(axis=1)):
        frags = [_box(base[i])]
        for hole in holes[touch[i]]:
            frags = [p for frag in frags for p in frag.subtract(_box(hole))]
        if frags:
            out.append(box_corners(frags, ndim))
    return np.concatenate(out)


def sequential_overlay_corners(
    top: np.ndarray,
    top_ranks: np.ndarray,
    bottom: np.ndarray,
    bottom_ranks: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Reference :func:`~repro.geometry.overlay_corners`, one bottom box at
    a time."""
    if bottom.shape[0] == 0:
        return top.copy(), top_ranks.copy()
    if top.shape[0] == 0:
        return bottom.copy(), bottom_ranks.copy()
    touch = _touching(bottom, top)
    clear = ~touch.any(axis=1)
    out_c = [top, bottom[clear]]
    out_r = [top_ranks, bottom_ranks[clear]]
    for i in np.flatnonzero(~clear):
        frags = sequential_subtract_corners(bottom[i][None, :], top[touch[i]])
        out_c.append(frags)
        out_r.append(np.full(frags.shape[0], bottom_ranks[i], np.int32))
    return np.concatenate(out_c), np.concatenate(out_r)


# ---------------------------------------------------------------------------
# the whole-step check


def _sparse_terms(ghost_width, hierarchy, result, previous) -> tuple:
    """``(comm, messages, interlevel, migrated)`` on the production path."""
    comm, messages = 0, 0.0
    for level in hierarchy:
        w = level.time_refinement_weight()
        faces, pairs = ghost_face_stats(result.maps[level.index])
        comm += 2 * ghost_width * faces * w
        messages += 2 * pairs * w
    inter = sum(
        sparse_interlevel(
            result.maps[level.index - 1], result.maps[level.index], level.ratio
        )
        * level.time_refinement_weight()
        for level in hierarchy.levels[1:]
    )
    migrated = sparse_migration(previous, result) if previous is not None else 0
    return comm, messages, inter, migrated


def _dense_terms(ghost_width, hierarchy, result, previous) -> tuple:
    """The same four quantities from the dense-raster reductions."""
    rasters = result.rasters()
    comm, messages = 0, 0.0
    for level in hierarchy:
        w = level.time_refinement_weight()
        raster = rasters[level.index]
        comm += dense_ghost_exchange_cells(raster, ghost_width) * w
        messages += dense_ghost_message_pairs(raster) * w
    inter = sum(
        dense_interlevel_transfer_cells(
            rasters[level.index - 1], rasters[level.index], level.ratio
        )
        * level.time_refinement_weight()
        for level in hierarchy.levels[1:]
    )
    migrated = (
        dense_migration_cells(previous.rasters(), rasters)
        if previous is not None
        else 0
    )
    return comm, messages, inter, migrated


def check_step(sim, hierarchy, result, previous, prev_hierarchy):
    """Measure one step and assert it against both oracles.

    The step must be bit-identical under the ``bruteforce`` pair oracle,
    and its communication, message, inter-level and migration terms must
    equal the dense-raster reductions.  Returns the measured
    :class:`~repro.simulator.StepMetrics`.
    """
    step = sim.measure_step(hierarchy, result, previous, prev_hierarchy)
    indexed = _sparse_terms(sim.ghost_width, hierarchy, result, previous)
    assert (step.comm_cells, step.interlevel_cells, step.migration_cells) == (
        indexed[0], indexed[2], indexed[3]
    )
    with pair_index_forced("bruteforce"):
        brute_step = sim.measure_step(hierarchy, result, previous, prev_hierarchy)
        brute = _sparse_terms(sim.ghost_width, hierarchy, result, previous)
    assert brute_step == step, "pair-index/bruteforce step mismatch"
    assert brute == indexed, f"pair-index/bruteforce mismatch: {indexed} != {brute}"
    dense = _dense_terms(sim.ghost_width, hierarchy, result, previous)
    assert dense == indexed, f"sparse/dense mismatch: {indexed} != {dense}"
    return step


def result_from_rasters(rasters, nprocs: int):
    """A :class:`~repro.partition.PartitionResult` over dense level rasters."""
    return PartitionResult(
        maps=tuple(OwnerMap.from_raster(np.asarray(r, np.int32)) for r in rasters),
        nprocs=nprocs,
    )


# ---------------------------------------------------------------------------
# pair-index candidates


def canonical_candidate_pairs(
    a_cells: np.ndarray, b_cells: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pairs of boxes sharing a grid bucket, sorted ``ai``-major, no repeats.

    ``a_cells`` / ``b_cells`` are ``(n, 2*k)`` rows of *inclusive* cell
    ranges ``[first..., last...]`` on a ``k``-d bucket grid.  Every
    ``a`` incidence is joined with every ``b`` incidence of its bucket,
    so a pair sharing several buckets is emitted several times; the
    packed keys are then sorted and deduplicated.
    """
    k = a_cells.shape[1] // 2
    buckets: dict[tuple[int, ...], list[int]] = {}
    for j, row in enumerate(b_cells.tolist()):
        for cell in product(*(range(row[d], row[k + d] + 1) for d in range(k))):
            buckets.setdefault(cell, []).append(j)
    raw = [
        i * b_cells.shape[0] + j
        for i, row in enumerate(a_cells.tolist())
        for cell in product(*(range(row[d], row[k + d] + 1) for d in range(k)))
        for j in buckets.get(cell, ())
    ]
    packed = np.unique(np.asarray(raw, dtype=np.int64))
    return packed // max(1, b_cells.shape[0]), packed % max(1, b_cells.shape[0])


# ---------------------------------------------------------------------------
# Nature+Fable unit runs


def lexsort_merge_unit_runs(
    coords: np.ndarray, ranks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Maximal same-rank runs along the last axis, cells in any order."""
    k, ndim = coords.shape
    if k == 0:
        return np.empty((0, 2 * ndim), dtype=np.int64), ranks[:0]
    # Row-major: axis 0 is the primary sort key (lexsort's last key).
    order = np.lexsort(tuple(coords[:, d] for d in range(ndim - 1, -1, -1)))
    c = coords[order]
    r = ranks[order]
    breaks = np.ones(k, dtype=bool)
    breaks[1:] = (
        (r[1:] != r[:-1])
        | (c[1:, :-1] != c[:-1, :-1]).any(axis=1)
        | (c[1:, -1] != c[:-1, -1] + 1)
    )
    starts = np.flatnonzero(breaks)
    ends = np.append(starts[1:], k)
    corners = np.concatenate((c[starts], c[ends - 1] + 1), axis=1)
    return corners.astype(np.int64), r[starts]


# ---------------------------------------------------------------------------
# hierarchy build


def greedy_coalesce_boxes(boxes) -> list[Box]:
    """The greedy merge loop behind :func:`~repro.geometry.coalesce_boxes`.

    Each pass takes the next unused box as an accumulator and absorbs,
    in index order, every later unused box it can coalesce with;
    passes repeat until nothing merges.  O(n^2) per pass.
    """
    work = [b for b in boxes if not b.empty]
    merged = True
    while merged:
        merged = False
        out: list[Box] = []
        used = [False] * len(work)
        for i, bi in enumerate(work):
            if used[i]:
                continue
            acc = bi
            for j in range(i + 1, len(work)):
                if used[j]:
                    continue
                bj = work[j]
                if acc.can_coalesce(bj):
                    acc = acc.merge_bounding(bj)
                    used[j] = True
                    merged = True
            out.append(acc)
        work = out
    return work


def nested_clip(clusters, parents) -> list[Box]:
    """Every non-empty cluster-parent intersection, cluster-major."""
    return [
        piece
        for box in clusters
        for parent in parents
        if (piece := box.intersect(parent)) is not None
    ]


def clip_to_parents_reference(clusters, parents) -> BoxList:
    """The clip step of ``build_hierarchy`` with its old re-disjointification.

    ``BoxList.disjointified`` subtracts every earlier piece from every
    later one; on the disjoint pieces the clip produces it is the identity.
    """
    pieces = BoxList(nested_clip(clusters, parents)).disjointified()
    return BoxList(greedy_coalesce_boxes(pieces))


def _bounding_slices(flags: np.ndarray) -> tuple[slice, ...] | None:
    """Tight bounding slices of True cells, or None if all-False."""
    if not flags.any():
        return None
    out = []
    for d in range(flags.ndim):
        axes = tuple(e for e in range(flags.ndim) if e != d)
        profile = flags.any(axis=axes)
        idx = np.flatnonzero(profile)
        out.append(slice(int(idx[0]), int(idx[-1]) + 1))
    return tuple(out)


def _split_point(flags: np.ndarray, params) -> tuple[int, int] | None:
    """Berger--Rigoutsos cut choice from freshly reduced signatures."""
    g = params.granularity
    sigs = [
        flags.sum(axis=tuple(e for e in range(flags.ndim) if e != d),
                  dtype=np.int64)
        for d in range(flags.ndim)
    ]
    holes = [
        (found[1], d, found[0])
        for d, sig in enumerate(sigs)
        if sig.size >= 2 * g and (found := _best_hole(sig, g)) is not None
    ]
    if holes:
        _, d, cut = min(holes)
        return d, cut
    inflections = [
        (-found[1], d, found[0])
        for d, sig in enumerate(sigs)
        if sig.size >= 2 * g and (found := _best_inflection(sig, g)) is not None
    ]
    if inflections:
        _, d, cut = min(inflections)
        return d, cut
    dims = [d for d in range(flags.ndim) if flags.shape[d] >= 2 * g]
    if not dims:
        return None
    d = max(dims, key=lambda d: flags.shape[d])
    return d, flags.shape[d] // 2


def _cluster_rec(flags, origin, params, out) -> None:
    bounds = _bounding_slices(flags)
    if bounds is None:
        return
    sub = flags[bounds]
    origin = tuple(o + s.start for o, s in zip(origin, bounds))
    box = Box(origin, tuple(o + s for o, s in zip(origin, sub.shape)))
    efficiency = int(sub.sum()) / sub.size
    too_big = params.max_cells is not None and sub.size > params.max_cells
    if efficiency >= params.efficiency and not too_big:
        out.append(box)
        return
    split = _split_point(sub, params)
    if split is None:
        out.append(box)
        return
    d, cut = split
    lo_idx = tuple(slice(0, cut) if e == d else slice(None) for e in range(sub.ndim))
    hi_idx = tuple(slice(cut, None) if e == d else slice(None) for e in range(sub.ndim))
    hi_origin = tuple(o + (cut if e == d else 0) for e, o in enumerate(origin))
    _cluster_rec(sub[lo_idx], origin, params, out)
    _cluster_rec(sub[hi_idx], hi_origin, params, out)


def reference_cluster_flags(flags: np.ndarray, params=None) -> list[Box]:
    """Berger--Rigoutsos reducing the whole array at every recursion node."""
    if params is None:
        params = ClusterParams(ndim=flags.ndim)
    out: list[Box] = []
    _cluster_rec(flags.astype(bool), (0,) * flags.ndim, params, out)
    return out


def level_resolution_flag_window(flagged, shape, win_lo, win_hi, width):
    """Flags of a level-space window, resampled to level resolution and
    then buffered there (the build's flag step before coarse dilation)."""
    crop = flagged
    for axis in range(flagged.ndim):
        src, dst = flagged.shape[axis], shape[axis]
        if dst >= src:
            f = dst // src
            sl = slice(win_lo[axis] // f, win_hi[axis] // f)
        else:
            g = src // dst
            sl = slice(win_lo[axis] * g, win_hi[axis] * g)
        crop = crop[(slice(None),) * axis + (sl,)]
    win_shape = tuple(h - l for l, h in zip(win_lo, win_hi))
    flags = _resample(crop, win_shape, reduce="any")
    return buffer_flags(flags, width) if width else flags


def reference_build_hierarchy(indicator: np.ndarray, config) -> GridHierarchy:
    """``build_hierarchy`` on the oracles above (same window, same order)."""
    domain = Box((0,) * config.ndim, config.base_shape)
    levels = [PatchLevel(0, [domain], ratio=1)]
    parent_boxes = BoxList([domain])
    for l in range(1, config.max_levels):
        shape = config.level_shape(l)
        tau = min(0.95, config.flag_threshold * config.threshold_growth ** (l - 1))
        width = config.buffer_width * config.refine_ratio ** (l - 1)
        parent_refined = parent_boxes.refine(config.refine_ratio)
        pbb = bounding_box(parent_refined.boxes)
        wlo, whi = [], []
        for ax in range(config.ndim):
            src = indicator.shape[ax]
            f = shape[ax] // src if shape[ax] >= src else 1
            wlo.append(max(0, pbb.lo[ax] - width) // f * f)
            whi.append(-(-min(shape[ax], pbb.hi[ax] + width) // f) * f)
        flags = level_resolution_flag_window(
            indicator > tau, shape, tuple(wlo), tuple(whi), width
        )
        neg = tuple(-x for x in wlo)
        flags &= rasterize_mask(
            [p.shift(neg) for p in parent_refined],
            Box((0,) * config.ndim, flags.shape),
        )
        if not flags.any():
            break
        clusters = [
            b.shift(tuple(wlo)) for b in reference_cluster_flags(flags, config.cluster)
        ]
        patches = BoxList(
            greedy_coalesce_boxes(nested_clip(clusters, parent_refined))
        )
        if patches.ncells == 0:
            break
        levels.append(PatchLevel(l, patches, ratio=config.refine_ratio))
        parent_boxes = patches
    return GridHierarchy(domain, levels)


# ---------------------------------------------------------------------------
# tp3d shadow kernel


def _tp3d_meshgrids(shape):
    nx, ny, nz = shape
    return np.meshgrid(
        (np.arange(nx) + 0.5) / nx,
        (np.arange(ny) + 0.5) / ny,
        (np.arange(nz) + 0.5) / nz,
        indexing="ij",
    )


def meshgrid_tp3d_initial(shape) -> np.ndarray:
    """The tp3d initial blobs evaluated on full 3-D meshgrids."""
    X, Y, Z = _tp3d_meshgrids(shape)
    u = np.zeros(shape)
    for cx, cy, cz, w in ((0.35, 0.5, 0.45, 0.07), (0.65, 0.45, 0.6, 0.06)):
        u += np.exp(-(((X - cx) ** 2 + (Y - cy) ** 2 + (Z - cz) ** 2) / w**2))
    return u


def meshgrid_tp3d_advance(app) -> None:
    """One tp3d step with the velocity evaluated on full 3-D meshgrids."""
    nx, ny, nz = app.shape
    X, Y, _ = _tp3d_meshgrids(app.shape)
    t = app.time
    cx, cy = app._vortex_centre(t)
    dx = X - cx
    dy = Y - cy
    r2 = dx**2 + dy**2
    omega = app._gust(t) * 1.6 / (1.0 + 6.0 * r2)
    shear = float(
        np.mean(np.sin(2 * np.pi * app._shear_freq * t + app._shear_phase))
    )
    vz = 0.5 * shear / (1.0 + 6.0 * r2)
    vx, vy = -omega * dy, omega * dx
    I, J, K = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
    app._u = ndimage.map_coordinates(
        app._u,
        [I - vx * app._dt * nx, J - vy * app._dt * ny, K - vz * app._dt * nz],
        order=1,
        mode="grid-wrap",
    )
    app._time += app._dt


# ---------------------------------------------------------------------------
# rm2d shadow kernel


def _rm2d_conserved_to_primitive(app, U: np.ndarray):
    rho = np.maximum(U[0], 1e-10)
    u = U[1] / rho
    v = U[2] / rho
    kinetic = 0.5 * rho * (u**2 + v**2)
    p = np.maximum((app._gamma - 1.0) * (U[3] - kinetic), 1e-10)
    return rho, u, v, p


def _rm2d_flux_x(app, U: np.ndarray) -> np.ndarray:
    rho, u, v, p = _rm2d_conserved_to_primitive(app, U)
    return np.stack([rho * u, rho * u**2 + p, rho * u * v, (U[3] + p) * u])


def _rm2d_flux_y(app, U: np.ndarray) -> np.ndarray:
    rho, u, v, p = _rm2d_conserved_to_primitive(app, U)
    return np.stack([rho * v, rho * u * v, rho * v**2 + p, (U[3] + p) * v])


def _rm2d_pad_reflect(U: np.ndarray, axis: int) -> np.ndarray:
    """Ghost cells for reflective walls: mirror and flip the normal momentum."""
    lo = U[:, :1, :] if axis == 1 else U[:, :, :1]
    hi = U[:, -1:, :] if axis == 1 else U[:, :, -1:]
    lo = lo.copy()
    hi = hi.copy()
    mom = 1 if axis == 1 else 2
    lo[mom] *= -1.0
    hi[mom] *= -1.0
    return np.concatenate([lo, U, hi], axis=axis)


def _rm2d_rusanov_step(app, dt: float) -> None:
    U = app._U
    g = app._gamma
    # --- x-direction ---
    Ux = _rm2d_pad_reflect(U, axis=1)
    rho, u, v, p = _rm2d_conserved_to_primitive(app, Ux)
    c = np.sqrt(g * p / rho)
    a = np.abs(u) + c
    F = _rm2d_flux_x(app, Ux)
    aL, aR = a[:-1, :], a[1:, :]
    amax = np.maximum(aL, aR)[None]
    flux_x = 0.5 * (F[:, :-1, :] + F[:, 1:, :]) - 0.5 * amax * (
        Ux[:, 1:, :] - Ux[:, :-1, :]
    )
    dU = -(dt / app._hx) * (flux_x[:, 1:, :] - flux_x[:, :-1, :])
    # --- y-direction ---
    Uy = _rm2d_pad_reflect(U, axis=2)
    rho, u, v, p = _rm2d_conserved_to_primitive(app, Uy)
    c = np.sqrt(g * p / rho)
    a = np.abs(v) + c
    G = _rm2d_flux_y(app, Uy)
    aL, aR = a[:, :-1], a[:, 1:]
    amax = np.maximum(aL, aR)[None]
    flux_y = 0.5 * (G[:, :, :-1] + G[:, :, 1:]) - 0.5 * amax * (
        Uy[:, :, 1:] - Uy[:, :, :-1]
    )
    dU += -(dt / app._hy) * (flux_y[:, :, 1:] - flux_y[:, :, :-1])
    app._U = U + dU


def rm2d_reference_advance(app) -> None:
    """One coarse ``RichtmyerMeshkov2D`` step, the padded-stack way.

    Each sub-step re-derives the primitives five times and builds
    ghost-padded ``(4, n + 2, m)`` copies of the state; the production
    kernel must match it bit for bit in ``_U`` and ``time``.
    """
    remaining = app._dt
    while remaining > 1e-14:
        rho, u, v, p = _rm2d_conserved_to_primitive(app, app._U)
        c = np.sqrt(app._gamma * p / rho)
        smax = float(
            (np.abs(u) + c).max() / app._hx + (np.abs(v) + c).max() / app._hy
        )
        sub = min(remaining, 0.35 / max(smax, 1e-12))
        _rm2d_rusanov_step(app, sub)
        app._time += sub
        remaining -= sub
