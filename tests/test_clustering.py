"""Tests for Berger--Rigoutsos clustering and the flagging utilities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.clustering import (
    ClusterParams,
    buffer_flags,
    cluster_flags,
    downsample_mask,
    flags_from_indicator,
    gradient_indicator,
    restrict_flags_to_mask,
)
from repro.geometry import Box, rasterize_mask

from tests.oracles import reference_cluster_flags
from tests.strategies import boxes_nd


class TestClusterParams:
    def test_defaults(self):
        p = ClusterParams()
        assert 0 < p.efficiency <= 1
        assert p.granularity >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"efficiency": 0.0},
            {"efficiency": 1.5},
            {"granularity": 0},
            {"granularity": 4, "max_cells": 8},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ClusterParams(**kwargs)


class TestClusterFlags:
    def test_empty_flags(self):
        assert cluster_flags(np.zeros((16, 16), dtype=bool)) == []

    def test_single_block(self):
        flags = np.zeros((16, 16), dtype=bool)
        flags[4:8, 4:8] = True
        boxes = cluster_flags(flags)
        assert len(boxes) == 1
        assert boxes[0] == Box((4, 4), (8, 8))

    def test_two_separated_blocks_split_at_hole(self):
        flags = np.zeros((16, 16), dtype=bool)
        flags[1:4, 1:4] = True
        flags[10:14, 10:14] = True
        boxes = cluster_flags(flags)
        assert len(boxes) == 2
        total = sum(b.ncells for b in boxes)
        assert total == 9 + 16

    def test_covers_all_flags(self):
        rng = np.random.default_rng(7)
        flags = rng.random((32, 32)) > 0.85
        boxes = cluster_flags(flags)
        covered = rasterize_mask(boxes, Box((0, 0), (32, 32)))
        assert (covered | ~flags).all()  # flags => covered

    def test_boxes_disjoint(self):
        rng = np.random.default_rng(9)
        flags = rng.random((32, 32)) > 0.7
        boxes = cluster_flags(flags)
        for i, a in enumerate(boxes):
            for b in boxes[i + 1 :]:
                assert not a.intersects(b)

    def test_efficiency_met_or_unsplittable(self):
        rng = np.random.default_rng(11)
        flags = rng.random((64, 64)) > 0.8
        params = ClusterParams(efficiency=0.7, granularity=2)
        boxes = cluster_flags(flags, params)
        for b in boxes:
            sub = flags[b.lo[0] : b.hi[0], b.lo[1] : b.hi[1]]
            eff = sub.sum() / sub.size
            splittable = any(s >= 2 * params.granularity for s in b.shape)
            assert eff >= params.efficiency or not splittable

    def test_max_cells_respected_when_splittable(self):
        flags = np.ones((32, 32), dtype=bool)
        boxes = cluster_flags(flags, ClusterParams(max_cells=64, granularity=2))
        assert all(b.ncells <= 64 for b in boxes)
        assert sum(b.ncells for b in boxes) == 32 * 32

    def test_l_shaped_region(self):
        flags = np.zeros((16, 16), dtype=bool)
        flags[0:12, 0:4] = True
        flags[0:4, 4:12] = True
        boxes = cluster_flags(flags, ClusterParams(efficiency=0.9))
        covered = rasterize_mask(boxes, Box((0, 0), (16, 16)))
        assert (covered | ~flags).all()
        # High efficiency forces the L to split rather than bound.
        assert len(boxes) >= 2

    def test_dtype_coercion(self):
        flags = np.zeros((8, 8), dtype=np.int64)
        flags[2:4, 2:4] = 1
        boxes = cluster_flags(flags)
        assert sum(b.ncells for b in boxes) >= 4

    @given(
        hnp.arrays(
            dtype=bool,
            shape=st.tuples(
                st.integers(4, 24), st.integers(4, 24)
            ),
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_cover_and_disjoint_property(self, flags):
        boxes = cluster_flags(flags)
        domain = Box((0, 0), flags.shape)
        covered = rasterize_mask(boxes, domain)
        assert (covered | ~flags).all()
        for i, a in enumerate(boxes):
            assert domain.contains_box(a)
            for b in boxes[i + 1 :]:
                assert not a.intersects(b)


@st.composite
def _flag_rasters(draw):
    """Flag rasters of 1-3 dims: painted boxes (holes, inflections and
    deep recursion) over sparse noise, or plain random bits."""
    ndim = draw(st.integers(1, 3))
    side = {1: 40, 2: 24, 3: 12}[ndim]
    shape = draw(st.tuples(*[st.integers(1, side)] * ndim))
    flags = draw(hnp.arrays(bool, shape))
    if draw(st.booleans()):
        flags &= draw(hnp.arrays(bool, shape))  # sparser noise
        for box in draw(st.lists(boxes_nd(ndim, max_coord=side), max_size=4)):
            flags |= rasterize_mask([box], Box((0,) * ndim, shape))
    return flags


class TestClusterOracle:
    @settings(max_examples=120, deadline=None)
    @given(_flag_rasters(), st.data())
    def test_equals_full_reduction_recursion(self, flags, data):
        # The signature-reusing recursion returns the same boxes in the
        # same order as the one that re-reduces every node's array.
        g = data.draw(st.integers(1, 3))
        params = ClusterParams(
            efficiency=data.draw(st.sampled_from([0.5, 0.75, 0.9, 1.0])),
            granularity=g,
            max_cells=data.draw(st.sampled_from([None, g**flags.ndim, 64])),
            ndim=flags.ndim,
        )
        got = cluster_flags(flags, params)
        assert got == reference_cluster_flags(flags, params)


class TestIndicator:
    def test_constant_field_zero(self):
        ind = gradient_indicator(np.full((8, 8), 3.5))
        assert (ind == 0).all()

    def test_step_detected(self):
        field = np.zeros((16, 16))
        field[8:, :] = 1.0
        ind = gradient_indicator(field)
        assert ind.max() == 1.0
        assert ind[7:9, :].max() == 1.0
        assert ind[0:4, :].max() == 0.0

    def test_normalized_range(self):
        rng = np.random.default_rng(3)
        ind = gradient_indicator(rng.random((16, 16)))
        assert 0 <= ind.min() and ind.max() == 1.0

    def test_flags_from_indicator(self):
        ind = np.linspace(0, 1, 16).reshape(4, 4)
        flags = flags_from_indicator(ind, 0.5)
        assert flags.sum() == (ind > 0.5).sum()

    def test_flags_threshold_validation(self):
        with pytest.raises(ValueError):
            flags_from_indicator(np.zeros((2, 2)), 1.5)


class TestBufferRestrictDownsample:
    def test_buffer_grows(self):
        flags = np.zeros((16, 16), dtype=bool)
        flags[8, 8] = True
        buffered = buffer_flags(flags, 2)
        assert buffered.sum() == 25

    def test_buffer_zero_identity(self):
        flags = np.zeros((8, 8), dtype=bool)
        flags[1, 1] = True
        assert (buffer_flags(flags, 0) == flags).all()

    def test_buffer_negative_rejected(self):
        with pytest.raises(ValueError):
            buffer_flags(np.zeros((4, 4), dtype=bool), -1)

    def test_restrict(self):
        flags = np.ones((4, 4), dtype=bool)
        mask = np.zeros((4, 4), dtype=bool)
        mask[:2] = True
        out = restrict_flags_to_mask(flags, mask)
        assert out.sum() == 8

    def test_restrict_shape_mismatch(self):
        with pytest.raises(ValueError):
            restrict_flags_to_mask(
                np.ones((4, 4), dtype=bool), np.ones((2, 2), dtype=bool)
            )

    def test_downsample_any(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[0, 0] = True
        down = downsample_mask(mask, 4)
        assert down.shape == (2, 2)
        assert down[0, 0] and down.sum() == 1

    def test_downsample_identity(self):
        mask = np.eye(4, dtype=bool)
        assert (downsample_mask(mask, 1) == mask).all()

    def test_downsample_indivisible(self):
        with pytest.raises(ValueError):
            downsample_mask(np.zeros((5, 5), dtype=bool), 2)
