"""Shared hypothesis strategies for the test suite."""

from __future__ import annotations

from itertools import product

from hypothesis import strategies as st

from repro.geometry import Box, BoxList, subtract_boxes
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


#: Cut planes per axis of :func:`tiled_fragments`, by dimension: the
#: greedy coalesce oracle is quadratic, so keep the tile count small.
_MAX_CUTS = {1: 8, 2: 5, 3: 3, 4: 2}


@st.composite
def tiled_fragments(draw, ndim: int = 2, side: int = 12):
    """Disjoint boxes rich in abutting pairs, in shuffled order.

    A box cut at random planes per axis into tiles, minus a few random
    holes (the fragments :func:`~repro.geometry.subtract_boxes` leaves),
    plus a few unrelated disjoint boxes beyond it.
    """
    intervals = []
    for _ in range(ndim):
        cuts = draw(st.sets(st.integers(1, side - 1), max_size=_MAX_CUTS[ndim]))
        edges = [0, *sorted(cuts), side]
        intervals.append(list(zip(edges[:-1], edges[1:])))
    tiles = [
        Box(tuple(lo for lo, _ in spans), tuple(hi for _, hi in spans))
        for spans in product(*intervals)
    ]
    holes = draw(st.lists(boxes_nd(ndim, max_coord=side), max_size=2))
    fragments = subtract_boxes(tiles, holes)
    beyond = draw(disjoint_boxlists(max_boxes=3, max_coord=side, ndim=ndim))
    fragments += [b.shift((side,) * ndim) for b in beyond]
    return draw(st.permutations(fragments))


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
