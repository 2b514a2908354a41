"""Error-estimation utilities: solution fields -> refinement flag rasters.

The GrACE/Cactus-style kernels behind the paper's traces flag cells whose
local truncation-error estimate exceeds a tolerance.  We use the standard
scaled-gradient indicator (the workhorse of production SAMR codes such as
AMReX and SAMRAI) plus helpers for buffering flags and enforcing proper
nesting between consecutive levels.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from scipy import ndimage

__all__ = [
    "gradient_indicator",
    "flags_from_indicator",
    "buffer_flags",
    "restrict_flags_to_mask",
    "downsample_mask",
]


def gradient_indicator(field: np.ndarray) -> np.ndarray:
    """Undivided-gradient error indicator, normalized to ``[0, 1]``.

    Computes ``max_d |field[i+e_d] - field[i-e_d]| / 2`` with edge
    replication and scales by the global maximum (0 everywhere for a
    constant field).  Cheap, robust and partitioning-independent — exactly
    the kind of estimator a single-processor trace run uses.
    """
    if field.ndim < 1:
        raise ValueError("field must have at least one dimension")
    indicator = np.zeros_like(field, dtype=np.float64)
    for d in range(field.ndim):
        forward = np.roll(field, -1, axis=d)
        backward = np.roll(field, 1, axis=d)
        # Replicate edges instead of wrapping.
        sl_first = [slice(None)] * field.ndim
        sl_last = [slice(None)] * field.ndim
        sl_first[d] = slice(0, 1)
        sl_last[d] = slice(-1, None)
        forward[tuple(sl_last)] = field[tuple(sl_last)]
        backward[tuple(sl_first)] = field[tuple(sl_first)]
        np.maximum(indicator, np.abs(forward - backward) * 0.5, out=indicator)
    peak = indicator.max()
    if peak > 0:
        indicator /= peak
    return indicator


def flags_from_indicator(indicator: np.ndarray, threshold: float) -> np.ndarray:
    """Boolean flags: cells whose indicator exceeds ``threshold``."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must be in [0, 1]")
    return indicator > threshold


def buffer_flags(flags: np.ndarray, width: int | Sequence[int]) -> np.ndarray:
    """Dilate flags by ``width`` cells (Chebyshev ball).

    SAMR codes buffer flagged regions so features do not escape the
    refined patches between regrids.  Implemented with a separable
    maximum filter: O(n) independent of ``width``.  A sequence gives one
    width per axis (a box-shaped neighbourhood).
    """
    widths = (
        (width,) * flags.ndim if isinstance(width, (int, np.integer)) else tuple(width)
    )
    if len(widths) != flags.ndim:
        raise ValueError(f"{len(widths)} buffer widths for a {flags.ndim}-d array")
    if any(w < 0 for w in widths):
        raise ValueError("buffer width must be >= 0")
    if not any(widths) or not flags.any():
        return flags.astype(bool)
    return (
        ndimage.maximum_filter(
            flags.astype(np.uint8), size=tuple(2 * w + 1 for w in widths)
        )
        > 0
    )


def restrict_flags_to_mask(flags: np.ndarray, parent_mask: np.ndarray) -> np.ndarray:
    """Zero out flags outside the allowed parent region (proper nesting)."""
    if flags.shape != parent_mask.shape:
        raise ValueError(
            f"shape mismatch: flags {flags.shape} vs mask {parent_mask.shape}"
        )
    return flags & parent_mask


def downsample_mask(mask: np.ndarray, ratio: int) -> np.ndarray:
    """Coarsen a boolean raster by ``ratio``: True if any fine cell is True."""
    if ratio < 1:
        raise ValueError("ratio must be >= 1")
    if ratio == 1:
        return mask.astype(bool)
    if any(s % ratio for s in mask.shape):
        raise ValueError(f"shape {mask.shape} not divisible by ratio {ratio}")
    view_shape: list[int] = []
    for s in mask.shape:
        view_shape.extend((s // ratio, ratio))
    reshaped = mask.reshape(view_shape)
    axes = tuple(range(1, 2 * mask.ndim, 2))
    return reshaped.any(axis=axes)
