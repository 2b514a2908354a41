"""Shared hypothesis strategies for the test suite."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.geometry import Box, BoxList
from repro.hierarchy import GridHierarchy, PatchLevel


def boxes_nd(ndim: int = 2, max_coord: int = 32, allow_empty: bool = False):
    """Strategy for ``ndim``-dimensional boxes within ``[0, max_coord)**ndim``."""
    if ndim < 1:
        raise ValueError("ndim must be >= 1")

    coord = st.integers(min_value=0, max_value=max_coord)
    pair = st.tuples(coord, coord)

    def make(pairs):
        lo = tuple(min(a, b) for a, b in pairs)
        hi = tuple(max(a, b) for a, b in pairs)
        return Box(lo, hi)

    strat = st.builds(make, st.tuples(*([pair] * ndim)))
    if not allow_empty:
        strat = strat.filter(lambda b: not b.empty)
    return strat


def boxes_2d(max_coord: int = 32, allow_empty: bool = False):
    """Strategy for 2-d boxes within ``[0, max_coord)^2``."""
    return boxes_nd(2, max_coord=max_coord, allow_empty=allow_empty)


def disjoint_boxlists(max_boxes: int = 6, max_coord: int = 24, ndim: int = 2):
    """Strategy for internally-disjoint box sets (subtract as we build)."""

    @st.composite
    def build(draw):
        raw = draw(
            st.lists(
                boxes_nd(ndim, max_coord=max_coord), max_size=max_boxes
            )
        )
        out: list[Box] = []
        for b in raw:
            frags = [b]
            for prior in out:
                nxt = []
                for f in frags:
                    nxt.extend(f.subtract(prior))
                frags = nxt
            out.extend(frags)
        return BoxList(out)

    return build()


@st.composite
def nested_hierarchies(draw, ndim: int = 2):
    """Random properly-nested factor-2 hierarchies."""
    side = draw(st.sampled_from([4, 8]))
    domain = Box((0,) * ndim, (side,) * ndim)
    levels = [PatchLevel(0, [domain], ratio=1)]
    parent = BoxList([domain])
    depth = draw(st.integers(min_value=1, max_value=2))
    for l in range(1, depth + 1):
        refined_parent = parent.refine(2)
        raw = draw(
            disjoint_boxlists(
                max_boxes=4, max_coord=side * 2**l, ndim=ndim
            )
        )
        clipped: list[Box] = []
        for b in raw:
            for p in refined_parent:
                piece = b.intersect(p)
                if piece is not None:
                    clipped.append(piece)
        patches = BoxList(clipped).disjointified().coalesced()
        if patches.ncells == 0:
            break
        levels.append(PatchLevel(l, patches, ratio=2))
        parent = patches
    return GridHierarchy(domain, levels)
