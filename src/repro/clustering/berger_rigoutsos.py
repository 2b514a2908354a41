"""Berger--Rigoutsos point clustering: flagged cells -> patch boxes.

The applications flag cells with large solution error at each regrid step;
this module turns the boolean flag raster into the disjoint patch set of a
refinement level, using the classic signature/Laplacian algorithm of
Berger & Rigoutsos (IEEE Trans. SMC 21(5), 1991) — the same clustering the
GrACE/Cactus kernels behind the paper's traces use.

Algorithm sketch (per recursive call):

1. Shrink to the bounding box of the flags.
2. Accept the box if its *efficiency* (flagged / total cells) meets the
   threshold, or it cannot be split further (granularity).
3. Otherwise split: prefer a *hole* (zero in a signature), then the largest
   zero crossing of the signature Laplacian, then the midpoint; recurse on
   the two halves.

The paper's experimental setup uses a minimum block dimension
("granularity") of 2; that is the default here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry import Box
from ..telemetry import span

__all__ = ["ClusterParams", "cluster_flags"]


@dataclass(frozen=True, slots=True)
class ClusterParams:
    """Tuning knobs of the clustering algorithm.

    Parameters
    ----------
    efficiency :
        Minimum fraction of flagged cells a patch must contain before the
        recursion accepts it (typical SAMR values: 0.7--0.9).
    granularity :
        Minimum patch extent per dimension.  The paper's setup uses 2.
    max_cells :
        Optional hard cap on accepted patch size; oversized efficient
        patches are bisected anyway, keeping patch counts realistic.
    ndim :
        Spatial dimensionality of the flag rasters this parameter set is
        meant for.  Sizes the smallest admissible patch
        (``granularity**ndim`` cells) for the ``max_cells`` validation;
        :func:`cluster_flags` rejects rasters of a different rank.
    """

    efficiency: float = 0.8
    granularity: int = 2
    max_cells: int | None = None
    ndim: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")
        if self.granularity < 1:
            raise ValueError("granularity must be >= 1")
        if self.ndim < 1:
            raise ValueError("ndim must be >= 1")
        if self.max_cells is not None and self.max_cells < self.granularity**self.ndim:
            raise ValueError("max_cells too small for the granularity")


def _signatures(flags: np.ndarray) -> list[np.ndarray]:
    """Per-dimension signatures: flagged-cell counts of each slab.

    Two passes whatever the rank: one reduction for the first axis's
    counts, and one sum over the first axis (row adds, no strided
    reduction) whose small result gives every other axis's signature.
    """
    if flags.ndim == 1:
        return [flags.astype(np.int64)]
    first = flags.sum(axis=tuple(range(1, flags.ndim)), dtype=np.int64)
    counts = flags.view(np.uint8).sum(axis=0, dtype=np.int32)
    rest = [
        counts.sum(axis=tuple(e for e in range(counts.ndim) if e != d), dtype=np.int64)
        for d in range(counts.ndim)
    ]
    return [first, *rest]


def _best_hole(sig: np.ndarray, min_extent: int) -> tuple[int, int] | None:
    """Most central zero of a signature respecting the granularity.

    Returns ``(cut, centrality)`` where smaller centrality is better, or
    ``None`` when no admissible hole exists.  The cut is placed *after*
    index ``cut - 1``.
    """
    n = sig.size
    zeros = np.flatnonzero(sig == 0)
    zeros = zeros[(zeros >= min_extent) & (zeros <= n - min_extent - 1)]
    if zeros.size == 0:
        return None
    centre = (n - 1) / 2.0
    best = int(zeros[np.argmin(np.abs(zeros - centre))])
    return best, int(abs(best - centre))

def _best_inflection(sig: np.ndarray, min_extent: int) -> tuple[int, int] | None:
    """Strongest admissible zero crossing of the signature Laplacian.

    Returns ``(cut, strength)``; larger strength is better.
    """
    n = sig.size
    if n < 4:
        return None
    lap = np.zeros(n, dtype=np.int64)
    lap[1:-1] = sig[:-2] - 2 * sig[1:-1] + sig[2:]
    # Zero crossings between i and i+1; cut after i+1 cells.
    prod = lap[:-1] * lap[1:]
    crossings = np.flatnonzero(prod < 0)
    strengths = np.abs(lap[crossings + 1] - lap[crossings])
    cuts = crossings + 1
    ok = (cuts >= min_extent) & (cuts <= n - min_extent)
    cuts, strengths = cuts[ok], strengths[ok]
    if cuts.size == 0:
        return None
    order = np.argsort(strengths, kind="stable")
    best = int(cuts[order[-1]])
    return best, int(strengths[order[-1]])


def _split_point(
    sigs: list[np.ndarray], shape: tuple[int, ...], params: ClusterParams
) -> tuple[int, int] | None:
    """Choose ``(dim, cut)`` for bisection, or None if unsplittable."""
    g = params.granularity
    # 1. Holes, most central across all dimensions.
    hole_candidates: list[tuple[int, int, int]] = []  # (centrality, dim, cut)
    for d, sig in enumerate(sigs):
        if sig.size < 2 * g:
            continue
        found = _best_hole(sig, g)
        if found is not None:
            cut, centrality = found
            hole_candidates.append((centrality, d, cut))
    if hole_candidates:
        _, d, cut = min(hole_candidates)
        return d, cut
    # 2. Laplacian inflection, strongest across dimensions.
    infl_candidates: list[tuple[int, int, int]] = []  # (-strength, dim, cut)
    for d, sig in enumerate(sigs):
        if sig.size < 2 * g:
            continue
        found = _best_inflection(sig, g)
        if found is not None:
            cut, strength = found
            infl_candidates.append((-strength, d, cut))
    if infl_candidates:
        _, d, cut = min(infl_candidates)
        return d, cut
    # 3. Midpoint of the longest splittable dimension.
    dims = [d for d in range(len(shape)) if shape[d] >= 2 * g]
    if not dims:
        return None
    d = max(dims, key=lambda d: shape[d])
    return d, shape[d] // 2


def _cluster_rec(
    flags: np.ndarray,
    sigs: list[np.ndarray],
    origin: tuple[int, ...],
    params: ClusterParams,
    out: list[Box],
) -> None:
    """Cluster ``flags`` (at ``origin``) given its signatures ``sigs``.

    Every reduction is an exact integer identity on the signatures, so
    a node never rescans its whole array: the flags' bounding box is the
    signatures' support; cropping an axis to it drops only all-zero
    slabs, so the other signatures are unchanged and the cropped ones
    are slices; and only the smaller child's signatures are reduced —
    its sibling's are the parent's minus them on every axis but the cut
    one, where they are a slice.
    """
    bounds = []
    for sig in sigs:
        support = np.flatnonzero(sig)
        if support.size == 0:
            return
        bounds.append(slice(int(support[0]), int(support[-1]) + 1))
    sub = flags[tuple(bounds)]
    sigs = [sig[b] for sig, b in zip(sigs, bounds)]
    origin = tuple(o + b.start for o, b in zip(origin, bounds))
    nflag = int(sigs[0].sum())
    efficiency = nflag / sub.size
    too_big = params.max_cells is not None and sub.size > params.max_cells
    if efficiency >= params.efficiency and not too_big:
        out.append(Box(origin, tuple(o + s for o, s in zip(origin, sub.shape))))
        return
    split = _split_point(sigs, sub.shape, params)
    if split is None:
        out.append(Box(origin, tuple(o + s for o, s in zip(origin, sub.shape))))
        return
    d, cut = split
    lo_idx = tuple(
        slice(0, cut) if e == d else slice(None) for e in range(sub.ndim)
    )
    hi_idx = tuple(
        slice(cut, None) if e == d else slice(None) for e in range(sub.ndim)
    )
    hi_origin = tuple(o + (cut if e == d else 0) for e, o in enumerate(origin))
    lo, hi = sub[lo_idx], sub[hi_idx]
    if 2 * cut <= sub.shape[d]:
        lo_sigs = _signatures(lo)
        hi_sigs = [
            sig[cut:] if e == d else sig - part
            for e, (sig, part) in enumerate(zip(sigs, lo_sigs))
        ]
    else:
        hi_sigs = _signatures(hi)
        lo_sigs = [
            sig[:cut] if e == d else sig - part
            for e, (sig, part) in enumerate(zip(sigs, hi_sigs))
        ]
    _cluster_rec(lo, lo_sigs, origin, params, out)
    _cluster_rec(hi, hi_sigs, hi_origin, params, out)


def cluster_flags(
    flags: np.ndarray, params: ClusterParams | None = None
) -> list[Box]:
    """Cluster a boolean flag raster into disjoint covering boxes.

    Parameters
    ----------
    flags :
        Boolean array over a level's index space; True marks cells that
        must be refined.
    params :
        Clustering knobs (defaults: efficiency 0.8, granularity 2).

    Returns
    -------
    list of Box
        Disjoint boxes that cover every flagged cell.  Empty when nothing
        is flagged.
    """
    if params is None:
        params = ClusterParams(ndim=flags.ndim)
    if flags.ndim != params.ndim:
        raise ValueError(
            f"{flags.ndim}-d flags with {params.ndim}-d ClusterParams"
        )
    if flags.dtype != bool:
        flags = flags.astype(bool)
    out: list[Box] = []
    with span("cluster.flags", cat="cluster", ndim=flags.ndim) as sp:
        _cluster_rec(flags, _signatures(flags), (0,) * flags.ndim, params, out)
        sp.annotate(nboxes=len(out))
    return out
