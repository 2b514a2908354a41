"""Tests for the four application kernels and the trace generator."""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.apps import (
    APPLICATIONS,
    BuckleyLeverett2D,
    RichtmyerMeshkov2D,
    RichtmyerMeshkov3D,
    ScalarWave2D,
    TraceGenConfig,
    Transport2D,
    Transport3D,
    build_hierarchy,
    fractional_flow,
    generate_trace,
    make_application,
)
from repro.apps import base
from repro.apps.base import _buffered_flag_window, _clip_to_parents
from repro.clustering import cluster_flags, gradient_indicator
from repro.experiments import paper_config, shadow_shape, workload_ndim
from repro.geometry import BoxList
from repro.telemetry import recording
from tests.oracles import (
    clip_to_parents_reference,
    level_resolution_flag_window,
    meshgrid_tp3d_advance,
    meshgrid_tp3d_initial,
    nested_clip,
    reference_build_hierarchy,
    rm2d_reference_advance,
)
from tests.strategies import disjoint_boxlists


ALL_APPS = sorted(APPLICATIONS)

#: the kernels covered by the 2-D ``small_traces`` session fixture
TRACED_APPS = [name for name in ALL_APPS if workload_ndim(name) == 2]


def app_shape(name: str, side: int) -> tuple[int, ...]:
    """A cubic shadow-grid shape of the kernel's dimensionality."""
    return (side,) * workload_ndim(name)


class TestRegistry:
    def test_kernels(self):
        assert set(APPLICATIONS) == {
            "tp2d", "bl2d", "sc2d", "rm2d", "tp3d", "bl3d", "sc3d", "rm3d"
        }

    def test_make_application(self):
        app = make_application("tp2d", shape=(32, 32))
        assert isinstance(app, Transport2D)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown application"):
            make_application("nope")


class TestTraceGenConfig:
    def test_level_shape(self):
        cfg = TraceGenConfig(base_shape=(16, 16), refine_ratio=2)
        assert cfg.level_shape(0) == (16, 16)
        assert cfg.level_shape(3) == (128, 128)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_levels": 0},
            {"refine_ratio": 1},
            {"nsteps": 0},
            {"regrid_interval": 0},
            {"flag_threshold": 0.0},
            {"threshold_growth": 0.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TraceGenConfig(**kwargs)

    def test_small_variant(self):
        small = TraceGenConfig().small()
        assert small.max_levels <= 3


@pytest.mark.parametrize("name", ALL_APPS)
class TestKernelBasics:
    def test_advance_progresses_time(self, name):
        app = make_application(name, shape=app_shape(name, 32))
        t0 = app.time
        app.advance()
        assert app.time > t0

    def test_field_shape_and_finite(self, name):
        shape = app_shape(name, 32)
        app = make_application(name, shape=shape)
        for _ in range(3):
            app.advance()
        field = app.indicator_field()
        assert field.shape == shape
        assert np.isfinite(field).all()

    def test_deterministic(self, name):
        shape = app_shape(name, 32)
        a = make_application(name, shape=shape)
        b = make_application(name, shape=shape)
        for _ in range(2):
            a.advance()
            b.advance()
        np.testing.assert_array_equal(a.indicator_field(), b.indicator_field())

    def test_field_changes(self, name):
        app = make_application(name, shape=app_shape(name, 32))
        before = app.indicator_field().copy()
        for _ in range(4):
            app.advance()
        assert not np.array_equal(before, app.indicator_field())

    def test_too_small_grid_rejected(self, name):
        with pytest.raises(ValueError):
            make_application(name, shape=app_shape(name, 4))


class TestPhysics:
    def test_bl2d_saturation_bounds(self):
        app = BuckleyLeverett2D(shape=(32, 32))
        for _ in range(10):
            app.advance()
        s = app.indicator_field()
        assert s.min() >= 0.0 and s.max() <= 1.0

    def test_bl2d_front_advances(self):
        app = BuckleyLeverett2D(shape=(64, 64))
        initial = app.indicator_field().sum()
        for _ in range(10):
            app.advance()
        assert app.indicator_field().sum() > initial  # injection adds water

    def test_fractional_flow_endpoints(self):
        s = np.array([0.0, 1.0])
        f = fractional_flow(s, 2.0)
        np.testing.assert_allclose(f, [0.0, 1.0])

    def test_fractional_flow_monotone(self):
        s = np.linspace(0, 1, 50)
        f = fractional_flow(s, 2.0)
        assert (np.diff(f) >= -1e-12).all()

    def test_fractional_flow_clips(self):
        f = fractional_flow(np.array([-0.5, 1.5]), 2.0)
        np.testing.assert_allclose(f, [0.0, 1.0])

    def test_sc2d_source_pulses(self):
        app = ScalarWave2D(shape=(32, 32), pulse_period=0.4, pulse_width=0.03)
        amp_peak = app.source_amplitude(3.0 * 0.03)
        amp_quiet = app.source_amplitude(0.25)
        assert amp_peak > 0.9
        assert amp_quiet < 0.1

    def test_sc2d_wave_expands(self):
        app = ScalarWave2D(shape=(64, 64))
        for _ in range(6):
            app.advance()
        u = np.abs(app.indicator_field())
        centre = u[28:36, 28:36].max()
        assert centre > 0  # wave emitted

    def test_rm2d_density_positive(self):
        app = RichtmyerMeshkov2D(shape=(32, 32))
        for _ in range(5):
            app.advance()
        assert app.indicator_field().min() > 0

    def test_rm2d_mass_conserved(self):
        """Reflective walls: total mass is conserved by the FV scheme."""
        app = RichtmyerMeshkov2D(shape=(32, 32))
        m0 = app.indicator_field().sum()
        for _ in range(5):
            app.advance()
        assert app.indicator_field().sum() == pytest.approx(m0, rel=1e-10)

    def test_rm2d_atwood_validation(self):
        with pytest.raises(ValueError):
            RichtmyerMeshkov2D(atwood=1.5)

    def test_tp2d_gust_range(self):
        app = Transport2D(shape=(32, 32))
        gusts = [app._gust(t) for t in np.linspace(0, 5, 200)]
        assert min(gusts) >= 0.2 and max(gusts) <= 1.8

    def test_tp2d_mass_roughly_conserved(self):
        """Semi-Lagrangian advection approximately conserves the pulse mass."""
        app = Transport2D(shape=(64, 64))
        m0 = app.indicator_field().sum()
        for _ in range(10):
            app.advance()
        assert app.indicator_field().sum() == pytest.approx(m0, rel=0.1)

    def test_tp3d_mass_roughly_conserved(self):
        app = Transport3D(shape=(32, 32, 32))
        m0 = app.indicator_field().sum()
        for _ in range(10):
            app.advance()
        assert app.indicator_field().sum() == pytest.approx(m0, rel=0.1)

    def test_tp3d_blobs_move_in_all_dimensions(self):
        """The vertical shear must push features through the third axis."""
        app = Transport3D(shape=(32, 32, 32))
        profile0 = app.indicator_field().sum(axis=(0, 1))
        for _ in range(8):
            app.advance()
        profile1 = app.indicator_field().sum(axis=(0, 1))
        assert not np.allclose(profile0, profile1, rtol=1e-3)

    def test_tp3d_rejects_2d_shape(self):
        with pytest.raises(ValueError):
            Transport3D(shape=(32, 32))

    def test_tp3d_planes_match_meshgrid_formulation(self):
        # The velocity is evaluated on (nx, ny, 1) planes and broadcast;
        # every element keeps its expression, so the state is
        # bit-identical to the full-meshgrid step.
        app = Transport3D(shape=(24, 16, 12))
        initial = meshgrid_tp3d_initial(app.shape)
        assert app.indicator_field().tobytes() == initial.tobytes()
        ref = copy.deepcopy(app)
        for _ in range(6):
            app.advance()
            meshgrid_tp3d_advance(ref)
        assert app.time == ref.time
        assert app.indicator_field().tobytes() == ref.indicator_field().tobytes()


def assert_rm2d_matches_reference(app: RichtmyerMeshkov2D, steps: int = 6) -> None:
    """``advance`` equals the padded-stack oracle byte for byte, step by step."""
    ref = copy.deepcopy(app)
    for step in range(steps):
        app.advance()
        rm2d_reference_advance(ref)
        assert app.time == ref.time, f"time differs after step {step + 1}"
        assert app._U.tobytes() == ref._U.tobytes(), (
            f"state differs after step {step + 1}"
        )


class TestRm2dKernel:
    """The one-primitive-evaluation Rusanov step against its reference."""

    @settings(max_examples=12, deadline=None)
    @given(
        shape=st.sampled_from([(16, 16), (16, 24), (40, 16), (24, 32)]),
        seed=st.integers(0, 2**16),
        atwood=st.floats(0.05, 0.9),
        modes=st.integers(0, 6),
    )
    def test_bit_identical_to_reference(self, shape, seed, atwood, modes):
        app = RichtmyerMeshkov2D(
            shape=shape, atwood=atwood, perturbation_modes=modes, seed=seed
        )
        assert_rm2d_matches_reference(app)

    def test_zero_wall_velocities(self):
        """Zero momenta: every ghost momentum is ``-0.0``."""
        app = RichtmyerMeshkov2D(shape=(24, 16))
        app._U[1:3] = 0.0
        assert_rm2d_matches_reference(app)

    def test_density_and_pressure_clamps(self):
        app = RichtmyerMeshkov2D(shape=(16, 20), seed=7)
        U = app._U
        U[0, 5:7, 3:5] = -1.0  # density clamps to 1e-10 (no momentum there)
        U[1:4, 5:7, 3:5] = 0.0  # so the pressure clamps there too
        U[1, 10:12, 8:10] = 0.3
        U[3, 10:12, 8:10] = 0.0  # kinetic energy exceeds the total
        rho = np.maximum(U[0], 1e-10)
        kinetic = 0.5 * rho * ((U[1] / rho) ** 2 + (U[2] / rho) ** 2)
        assert (U[0] < 1e-10).sum() == 4
        assert ((0.4 * (U[3] - kinetic)) < 1e-10).sum() >= 8
        assert_rm2d_matches_reference(app)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_state_raises(self, bad):
        app = RichtmyerMeshkov2D(shape=(16, 16))
        app.advance()
        app._U[0, 7, 9] = bad
        with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError, match=r"rm2d: .* at time 0\.006"
        ):
            app.advance()

    def test_non_finite_rm3d_state_raises(self):
        app = RichtmyerMeshkov3D(shape=(16, 16, 16))
        app._U[4, 3, 5, 7] = np.nan
        with pytest.raises(FloatingPointError, match="rm3d: .* at time 0"):
            app.advance()


class TestBuildHierarchy:
    def test_flat_indicator_gives_base_only(self):
        cfg = TraceGenConfig(base_shape=(16, 16), max_levels=3)
        h = build_hierarchy(np.zeros((64, 64)), cfg)
        assert h.nlevels == 1

    def test_peak_is_refined_to_max_depth(self):
        cfg = TraceGenConfig(base_shape=(16, 16), max_levels=3)
        ind = np.zeros((64, 64))
        ind[30:34, 30:34] = 1.0
        h = build_hierarchy(ind, cfg)
        assert h.nlevels == 3
        h.validate()

    def test_nesting_always_holds(self):
        rng = np.random.default_rng(5)
        cfg = TraceGenConfig(base_shape=(16, 16), max_levels=3)
        for _ in range(5):
            field = rng.random((64, 64))
            for _ in range(3):  # smooth
                field = 0.25 * (
                    np.roll(field, 1, 0)
                    + np.roll(field, -1, 0)
                    + np.roll(field, 1, 1)
                    + np.roll(field, -1, 1)
                )
            ind = gradient_indicator(field)
            h = build_hierarchy(ind, cfg)
            h.validate()

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            build_hierarchy(np.zeros(16), TraceGenConfig())

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_clip_skips_disjointify(self, data):
        # Clusters and parents are each Berger--Rigoutsos output, so
        # disjoint: the clip pieces need no re-disjointification, and
        # the patches (and their greedy coalescing order) are unchanged.
        shape = data.draw(st.tuples(*[st.integers(2, 20)] * data.draw(
            st.integers(2, 3))))
        parent_flags, flags = (
            data.draw(hnp.arrays(bool, shape)) for _ in range(2)
        )
        parents = BoxList(cluster_flags(parent_flags))
        clusters = cluster_flags(flags)
        got = _clip_to_parents(clusters, parents).coalesced()
        assert got.boxes == clip_to_parents_reference(clusters, parents).boxes

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_clip_pieces_in_nested_loop_order(self, data):
        # The corner-array clip emits the nested Box.intersect loop's
        # pieces in its order (cluster-major, then parent), including
        # when chunked over the cluster axis.
        ndim = data.draw(st.integers(1, 3))
        clusters = data.draw(disjoint_boxlists(8, 16, ndim)).boxes
        parents = data.draw(disjoint_boxlists(8, 16, ndim))
        step = data.draw(st.sampled_from([1, 3, 1 << 16]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(base, "_CLIP_CHUNK", step)
            got = _clip_to_parents(list(clusters), parents)
        assert got.boxes == tuple(nested_clip(clusters, parents))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_coarse_dilation_equals_level_resolution(self, data):
        # Per axis the level is the shadow grid repeated f times (f = 1,
        # 2, 4) or block-reduced by 2.  Dilating at the shadow resolution
        # where f divides the width, then repeating, equals resampling
        # the window to level resolution and dilating there — for widths
        # that are and are not multiples of f, and for windows that do
        # and do not touch the domain edge.
        ndim = data.draw(st.integers(1, 3))
        shadow, shape, lo, hi = [], [], [], []
        for _ in range(ndim):
            coarse = data.draw(st.integers(1, 6 if ndim < 3 else 4))
            f = data.draw(st.sampled_from(["down", 1, 2, 4]))
            if f == "down":
                shadow.append(2 * coarse)
                shape.append(coarse)
                f = 1
            else:
                shadow.append(coarse)
                shape.append(coarse * f)
            a = data.draw(st.integers(0, shape[-1] // f - 1))
            b = data.draw(st.integers(a + 1, shape[-1] // f))
            lo.append(a * f)
            hi.append(b * f)
        flagged = data.draw(hnp.arrays(bool, tuple(shadow)))
        width = data.draw(st.integers(0, 9))
        args = (flagged, tuple(shape), tuple(lo), tuple(hi), width)
        got = _buffered_flag_window(*args)
        want = level_resolution_flag_window(*args)
        assert got.dtype == bool and got.shape == want.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "name, shadow, base_side, max_levels, buffer_width",
        [
            # Upsampled levels with f | width: dilated at shadow resolution.
            ("tp2d", 32, 16, 5, 2),
            ("tp3d", 16, 8, 4, 2),
            # f does not divide the width: dilated at level resolution.
            ("tp3d", 8, 8, 4, 3),
            ("bl2d", 16, 16, 4, 1),
        ],
    )
    def test_deep_build_equals_oracle_build(
        self, name, shadow, base_side, max_levels, buffer_width
    ):
        ndim = workload_ndim(name)
        config = TraceGenConfig(
            base_shape=(base_side,) * ndim,
            max_levels=max_levels,
            buffer_width=buffer_width,
        )
        app = make_application(name, shape=(shadow,) * ndim)
        for step in range(9):
            if step:
                app.advance()
            if step % 4:
                continue
            indicator = gradient_indicator(app.indicator_field())
            got = build_hierarchy(indicator, config)
            want = reference_build_hierarchy(indicator, config)
            assert got.nlevels > 2
            assert [lvl.patches.boxes for lvl in got] == [
                lvl.patches.boxes for lvl in want
            ], f"{name} step {step}"

    @pytest.mark.parametrize("name", ALL_APPS)
    def test_build_equals_oracle_build(self, name):
        # Along each kernel's small-scale run, every snapshot's hierarchy
        # is the oracle build's: same levels, same boxes, same order.
        ndim = workload_ndim(name)
        config = paper_config("small", ndim)
        app = make_application(name, shape=shadow_shape("small", ndim))
        for step in range(config.nsteps + 1):
            if step:
                app.advance()
            if step % config.regrid_interval:
                continue
            indicator = gradient_indicator(app.indicator_field())
            got = build_hierarchy(indicator, config)
            want = reference_build_hierarchy(indicator, config)
            assert [lvl.patches.boxes for lvl in got] == [
                lvl.patches.boxes for lvl in want
            ], f"{name} step {step}"

    @pytest.mark.parametrize("ndim,factor", [(2, 1), (2, 2), (2, 4), (3, 2)])
    def test_windowed_equals_full_domain_reference(self, ndim, factor):
        # build_hierarchy windows all per-level arrays to the refined
        # parent's buffered bounding box; this must be *exactly* the
        # hierarchy the straightforward full-domain arrays produce.
        from repro.clustering import buffer_flags
        from repro.apps.base import _resample
        from repro.geometry import Box, rasterize_mask
        from repro.hierarchy import GridHierarchy, PatchLevel

        def reference(indicator, config):
            domain = Box((0,) * config.ndim, config.base_shape)
            levels = [PatchLevel(0, [domain], ratio=1)]
            parents = BoxList([domain])
            for l in range(1, config.max_levels):
                shape = config.level_shape(l)
                tau = min(
                    0.95,
                    config.flag_threshold
                    * config.threshold_growth ** (l - 1),
                )
                flags = _resample(indicator > tau, shape, reduce="any")
                if config.buffer_width:
                    width = (
                        config.buffer_width
                        * config.refine_ratio ** (l - 1)
                    )
                    flags = buffer_flags(flags, width)
                refined = parents.refine(config.refine_ratio)
                flags &= rasterize_mask(
                    refined, Box((0,) * config.ndim, shape)
                )
                if not flags.any():
                    break
                patches = clip_to_parents_reference(
                    cluster_flags(flags, config.cluster), refined
                )
                if patches.ncells == 0:
                    break
                levels.append(
                    PatchLevel(l, patches, ratio=config.refine_ratio)
                )
                parents = patches
            return GridHierarchy(domain, levels)

        rng = np.random.default_rng(ndim * 10 + factor)
        base = (16,) * ndim if ndim == 2 else (8,) * ndim
        cfg = TraceGenConfig(base_shape=base, max_levels=4)
        for trial in range(4):
            ind = rng.random(tuple(factor * s for s in base)) ** 3
            got = build_hierarchy(ind, cfg)
            ref = reference(ind, cfg)
            assert got.nlevels == ref.nlevels
            for a, b in zip(got, ref):
                assert sorted(
                    (x.lo, x.hi) for x in a.patches
                ) == sorted((x.lo, x.hi) for x in b.patches)


class TestGenerateTrace:
    def test_snapshot_schedule(self, small_traces):
        tr = small_traces["tp2d"]
        assert [s.step for s in tr] == [0, 4, 8, 12]

    @pytest.mark.parametrize("name", TRACED_APPS)
    def test_all_hierarchies_valid(self, small_traces, name):
        for snap in small_traces[name]:
            snap.hierarchy.validate()

    @pytest.mark.parametrize("name", TRACED_APPS)
    def test_metadata_recorded(self, small_traces, name):
        md = small_traces[name].metadata
        assert md["max_levels"] == 3
        assert md["regrid_interval"] == 4

    def test_trace_name_matches_app(self, small_traces):
        for name, tr in small_traces.items():
            assert tr.name == name

    def test_one_advance_span_per_step(self, small_config):
        with recording() as rec:
            generate_trace(make_application("rm2d", shape=(64, 64)), small_config)
        spans = [e for e in rec.events
                 if e["type"] == "span" and e["name"] == "trace.advance"]
        assert [e["attrs"]["step"] for e in spans] == list(
            range(1, small_config.nsteps + 1)
        )
        assert {e["attrs"]["app"] for e in spans} == {"rm2d"}

    def test_deterministic_regeneration(self, small_config):
        a = generate_trace(make_application("bl2d", shape=(64, 64)), small_config)
        b = generate_trace(make_application("bl2d", shape=(64, 64)), small_config)
        assert [s.hierarchy for s in a] == [s.hierarchy for s in b]
