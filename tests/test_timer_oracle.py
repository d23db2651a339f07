"""Randomized oracles for the planned differentiable timer.

The level-plan kernels, the corner-indexed ``LutBank`` lookup and the
level-local LSE merge are fast paths; each is checked here against a
reference on random generator designs, placements and tables:

- the planned timer is bit-equal to the pre-plan per-slice kernels kept in
  ``tests/timer_reference.py`` (tape, TNS/WNS and both gradients);
- ``LutBank.lookup_with_grad`` equals ``LUT.lookup_with_grad`` per query,
  in and out of range and on length-1 (padded) axes, and is bit-equal to
  the whole-table gather it replaced;
- ``segment_lse_max`` over level-local segments keeps the bounds of the
  paper's Eq. 5, ``max <= LSE_gamma <= max + gamma * ln k``, and equals
  the global-segment merge bit for bit;
- an armed ``lut_corrupt`` fault reaches the placer's guard as a typed
  non-finite signal, with floating-point warnings raised as errors.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DifferentiableTimer
from repro.core.smoothing import segment_lse_max
from repro.netlist import GeneratorSpec, generate_design
from repro.netlist.lut import LUT
from repro.route import build_forest
from repro.runtime.faults import FaultInjector, FaultSpec, armed
from repro.sta.nldm import LutBank

from .timer_reference import ReferenceTimer, reference_lookup_with_grad

TAPE_FIELDS = (
    "at", "slew", "net_delay", "impulse2", "driver_load",
    "at_cand", "slew_cand", "dd_dslew", "dd_dload", "ds_dslew", "ds_dload",
    "ep_slack_t", "ep_slack", "setup_dsetup_dslew",
)


def assert_bit_identical(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _random_placement(design, rng, spread):
    x = design.cell_x + rng.normal(0.0, spread, design.n_cells)
    y = design.cell_y + rng.normal(0.0, spread, design.n_cells)
    x[design.cell_fixed] = design.cell_x[design.cell_fixed]
    y[design.cell_fixed] = design.cell_y[design.cell_fixed]
    return x, y


class TestPlannedTimerMatchesReference:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_cells=st.integers(20, 120),
        depth=st.integers(2, 8),
        spread=st.floats(0.0, 25.0),
        gamma=st.sampled_from([0.5, 5.0, 20.0, 80.0]),
        wire=st.sampled_from(["elmore", "d2m"]),
        d_wns=st.sampled_from([0.0, 0.4]),
    )
    def test_bit_identical(self, seed, n_cells, depth, spread, gamma, wire, d_wns):
        design = generate_design(
            GeneratorSpec(
                name="oracle", n_cells=n_cells, depth=depth, seed=seed,
                n_inputs=6, n_outputs=6,
            )
        )
        x, y = _random_placement(design, np.random.default_rng(seed), spread)
        forest = build_forest(design, x, y)
        planned = DifferentiableTimer(design, gamma=gamma, wire_delay_model=wire)
        reference = ReferenceTimer(
            design, planned.graph, gamma=gamma, wire_delay_model=wire
        )
        new = planned.forward(x, y, forest)
        old = reference.forward(x, y, forest)
        for name in TAPE_FIELDS:
            assert_bit_identical(getattr(new, name), getattr(old, name))
        assert new.tns == old.tns and new.wns == old.wns
        for d_tns, dw in ((1.0, 0.0), (0.6, d_wns)):
            for g_new, g_old in zip(
                planned.backward(new, d_tns, dw),
                reference.backward(old, d_tns, dw),
            ):
                assert_bit_identical(g_new, g_old)


@st.composite
def _luts(draw):
    """A random NLDM-style table, axes of length 1 to 7."""
    def axis(n):
        knots = draw(
            st.lists(st.integers(-100, 600), min_size=n, max_size=n, unique=True)
        )
        return np.sort(np.array(knots, dtype=np.float64)) * 0.5

    nx = draw(st.integers(1, 7))
    ny = draw(st.integers(1, 7))
    values = draw(
        st.lists(st.floats(-100.0, 100.0), min_size=nx * ny, max_size=nx * ny)
    )
    return LUT(axis(nx), axis(ny), np.array(values).reshape(nx, ny))


class TestCornerLookup:
    @settings(max_examples=60, deadline=None)
    @given(
        luts=st.lists(_luts(), min_size=1, max_size=5),
        seed=st.integers(0, 10_000),
    )
    def test_matches_scalar_lut_per_query(self, luts, seed):
        bank = LutBank()
        ids = np.array([bank.register(lut) for lut in luts])
        bank.finalize()
        rng = np.random.default_rng(seed)
        n = 64
        which = rng.integers(0, len(luts), n)
        # Queries span well past every axis: linear extrapolation both ways.
        qx = rng.uniform(-200.0, 500.0, n)
        qy = rng.uniform(-200.0, 500.0, n)
        got = bank.lookup_with_grad(ids[which], qx, qy)
        for q in range(n):
            want = luts[which[q]].lookup_with_grad(qx[q], qy[q])
            for g, w in zip(got, want):
                assert g[q] == w
        for g, w in zip(got, reference_lookup_with_grad(bank, ids[which], qx, qy)):
            assert_bit_identical(g, w)

    def test_broadcast_ids_against_shared_queries(self):
        rng = np.random.default_rng(3)
        bank = LutBank()
        luts = [LUT(np.array([1.0, 4.0, 9.0]), np.array([0.5, 2.0]),
                    rng.uniform(-5, 5, (3, 2))),
                LUT.constant(2.5)]
        ids = np.array([[bank.register(luts[0])], [bank.register(luts[1])]])
        bank.finalize()
        qx = rng.uniform(-5.0, 15.0, 9)
        qy = rng.uniform(-5.0, 5.0, 9)
        value, dx, dy = bank.lookup_with_grad(ids, qx, qy)
        assert value.shape == (2, 9)
        for row, lut in enumerate(luts):
            want = lut.lookup_with_grad(qx, qy)
            for g, w in zip((value[row], dx[row], dy[row]), want):
                np.testing.assert_array_equal(g, w)

    def test_corruption_reaches_lookup(self):
        """The bank is read live: in-place edits (fault injection) show."""
        bank = LutBank()
        lut_id = bank.register(LUT(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                                   np.array([[1.0, 2.0], [3.0, 4.0]])))
        bank.finalize()
        bank.values[lut_id, 0, 0] = np.nan
        value, _, _ = bank.lookup_with_grad(np.array([lut_id]), 0.25, 0.25)
        assert np.isnan(value).all()


class TestLevelLocalSegments:
    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(
            st.floats(-1e4, 1e4), min_size=1, max_size=40
        ),
        n_global=st.integers(1, 500),
        gamma=st.floats(0.1, 100.0),
        seed=st.integers(0, 10_000),
    )
    def test_eq5_bounds_and_global_equivalence(
        self, values, n_global, gamma, seed
    ):
        cand = np.array(values)
        slots = np.random.default_rng(seed).integers(0, n_global, len(cand))
        touched, local = np.unique(slots, return_inverse=True)
        out = segment_lse_max(cand, local, len(touched), gamma)
        for s in range(len(touched)):
            members = cand[local == s]
            top = members.max()
            assert top <= out[s] <= top + gamma * np.log(len(members))
        assert_bit_identical(
            out, segment_lse_max(cand, slots, n_global, gamma)[touched]
        )

    def test_nan_candidate_poisons_only_its_segment(self):
        cand = np.array([1.0, np.nan, 3.0, 4.0])
        seg = np.array([0, 0, 1, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = segment_lse_max(cand, seg, 2, 1.0)
        assert np.isnan(out[0])
        assert np.isfinite(out[1])


class TestLutCorruptionIsTyped:
    """A ``lut_corrupt`` fault surfaces as NaN, not as numpy warnings."""

    def test_timer_propagates_nan_without_warnings(self, small_design):
        timer = DifferentiableTimer(small_design)
        inj = FaultInjector(FaultSpec(kind="lut_corrupt", iteration=0))
        inj.begin_iteration(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with armed(inj):
                tape = timer.forward()
                gx, gy = timer.backward(tape, d_tns=-1.0, d_wns=-0.1)
        assert inj.fired
        assert np.isnan(tape.tns) and np.isnan(tape.wns)
        assert not np.isfinite(np.concatenate([gx, gy])).all()

    def test_guarded_run_sees_nonfinite_signal(self, monkeypatch):
        from repro.core.objective import TimingObjectiveOptions
        from repro.core.timing_placer import (
            TimingDrivenPlacer,
            TimingPlacerOptions,
        )
        from repro.harness import load_design
        from repro.place import PlacerOptions

        monkeypatch.setenv("REPRO_INJECT_FAULT", "lut_corrupt@8")
        placer = TimingDrivenPlacer(
            load_design("miniblue1"),
            TimingPlacerOptions(
                placer=PlacerOptions(max_iters=25, min_iters=5, seed=0),
                timing=TimingObjectiveOptions(start_iteration=5),
                sta_in_trace=False,
            ),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = placer.run()
        assert result.nonfinite_events.get("timing", 0) >= 1
        assert "timing_exceptions" not in result.nonfinite_events
