"""Golden (exact) static timing analysis.

This is the evaluation timer of the reproduction: a levelised STA engine
with exact ``max``/``min`` arrival-time reductions, the Elmore wire model of
:mod:`repro.sta.elmore` and NLDM LUT cell delays.  It computes late/early
arrival times and slews per transition, required arrival times, slacks, and
setup/hold WNS/TNS as defined in Equations (1)-(2) of the paper.

The differentiable timer (:mod:`repro.core`) shares this module's graph and
LUT infrastructure but replaces the hard reductions by Log-Sum-Exp; the
test-suite asserts that as the smoothing factor shrinks the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..netlist.design import Design
from ..netlist.library import FALL, RISE
from ..route.rsmt import build_forest
from ..route.tree import Forest
from .elmore import (
    WIRE_DELAY_MODELS,
    ElmoreResult,
    d2m_delay,
    elmore_forward,
    node_caps,
)
from .clock import ClockArrival, propagate_clock
from .graph import TimingGraph

__all__ = ["STAResult", "StaticTimingAnalyzer", "run_sta"]

_NEG_INF = -1e30
_POS_INF = 1e30


@dataclass
class STAResult:
    """Complete output of one STA run.

    Arrays indexed ``[pin, transition]`` unless noted.  ``slack`` is the
    late/setup slack ``rat - at``; early/hold results are present when the
    analyzer ran with ``compute_hold=True``.
    """

    at: np.ndarray
    slew: np.ndarray
    rat: np.ndarray
    slack: np.ndarray
    endpoint_slack: np.ndarray  # per endpoint, min over transitions
    wns_setup: float
    tns_setup: float
    at_early: Optional[np.ndarray]
    slew_early: Optional[np.ndarray]
    hold_slack: Optional[np.ndarray]  # per hold check, min over transitions
    wns_hold: float
    tns_hold: float
    net_delay: np.ndarray  # per pin: Elmore delay at net sinks
    impulse: np.ndarray  # per pin: Elmore impulse at net sinks
    driver_load: np.ndarray  # per pin: net load at drivers
    elmore: ElmoreResult
    forest: Forest
    graph: TimingGraph
    clock: Optional[ClockArrival] = None

    def net_worst_slack(self) -> np.ndarray:
        """Worst setup slack per net (over the net's pins).

        Unrouted nets (clock/degree-1) report ``+inf``.  This is the
        criticality signal consumed by the net-weighting baseline.
        """
        design = self.graph.design
        pin_slack = self.slack.min(axis=1)
        out = np.full(design.n_nets, _POS_INF)
        for ni in self.graph.timing_nets:
            out[ni] = float(pin_slack[design.net_pins(ni)].min())
        return out


class StaticTimingAnalyzer:
    """Levelised exact STA over a :class:`Design`.

    The timing graph is built once (pin levels are placement-independent);
    each :meth:`run` re-routes (or reuses) the Steiner forest, replays the
    Elmore passes, and propagates arrival times.
    """

    def __init__(
        self,
        design: Design,
        graph: Optional[TimingGraph] = None,
        wire_delay_model: str = "elmore",
    ) -> None:
        self.design = design
        self.graph = graph if graph is not None else TimingGraph(design)
        if wire_delay_model not in WIRE_DELAY_MODELS:
            raise ValueError(
                f"unknown wire delay model {wire_delay_model!r}; "
                f"expected one of {WIRE_DELAY_MODELS}"
            )
        self.wire_delay_model = wire_delay_model

    # ------------------------------------------------------------------
    def _elmore(
        self,
        forest: Forest,
        cell_x: np.ndarray,
        cell_y: np.ndarray,
    ) -> ElmoreResult:
        design = self.design
        px, py = design.pin_positions(cell_x, cell_y)
        nx, ny = forest.node_coords(px, py)
        caps = node_caps(forest, design.pin_cap, self.graph.extra_pin_cap)
        return elmore_forward(forest, nx, ny, caps, design.library.wire)

    def _per_pin_elmore(self, forest: Forest, elmore: ElmoreResult):
        n_pins = self.design.n_pins
        net_delay = np.zeros(n_pins)
        impulse = np.zeros(n_pins)
        mask = forest.node_pin >= 0
        pins = forest.node_pin[mask]
        if self.wire_delay_model == "d2m":
            net_delay[pins] = d2m_delay(elmore.delay[mask], elmore.beta[mask])
        else:
            net_delay[pins] = elmore.delay[mask]
        impulse[pins] = elmore.impulse[mask]
        driver_load = elmore.root_load(forest, n_pins)
        return net_delay, impulse, driver_load

    # ------------------------------------------------------------------
    def run(
        self,
        cell_x: Optional[np.ndarray] = None,
        cell_y: Optional[np.ndarray] = None,
        forest: Optional[Forest] = None,
        compute_hold: bool = False,
        propagated_clock: bool = False,
    ) -> STAResult:
        """Run full STA at the given (default: stored) cell locations.

        With ``propagated_clock=True`` the clock net is routed and its
        Elmore insertion delays/slews drive the launch arrivals at FF CK
        pins and shift the capture edge of every setup/hold check (see
        :mod:`repro.sta.clock`); the default is the paper's ideal clock.
        """
        design = self.design
        graph = self.graph
        x = design.cell_x if cell_x is None else cell_x
        y = design.cell_y if cell_y is None else cell_y
        if forest is None:
            forest = build_forest(design, x, y)
        elmore = self._elmore(forest, x, y)
        net_delay, impulse, driver_load = self._per_pin_elmore(forest, elmore)

        clock = None
        start_at = start_slew = None
        if propagated_clock:
            clock = propagate_clock(design, graph, x, y)
            start_at = graph.start_at.copy()
            start_slew = graph.start_slew.copy()
            sinks = clock.is_clock_sink
            start_at[sinks] = clock.at[sinks, None]
            start_slew[sinks] = clock.slew[sinks, None]

        at, slew = self._propagate(
            graph, net_delay, impulse, driver_load, late=True,
            start_at=start_at, start_slew=start_slew,
        )
        rat = self._required_times(
            graph, at, slew, net_delay, driver_load, clock=clock
        )
        slack = rat - at
        ep = graph.endpoint_pins
        endpoint_slack = slack[ep].min(axis=1) if len(ep) else np.zeros(0)
        # Only unconstrained (+inf sentinel) endpoints are dropped; a NaN
        # slack (corrupted LUTs) must reach WNS/TNS, not read as clean.
        constrained = ~(endpoint_slack >= _POS_INF / 2)
        if np.any(constrained):
            wns = float(endpoint_slack[constrained].min())
            tns = float(np.minimum(endpoint_slack[constrained], 0.0).sum())
        else:
            wns, tns = 0.0, 0.0

        at_early = slew_early = hold_slack = None
        wns_hold = tns_hold = 0.0
        if compute_hold and len(graph.hold_d):
            at_early, slew_early = self._propagate(
                graph, net_delay, impulse, driver_load, late=False,
                start_at=start_at, start_slew=start_slew,
            )
            if clock is not None:
                ck_at = clock.at[graph.hold_ck]
                ck_slew = clock.slew[graph.hold_ck]
            else:
                ck_at = np.zeros(len(graph.hold_d))
                ck_slew = np.full(len(graph.hold_d), graph.clock_slew)
            hold_slacks = np.empty((len(graph.hold_d), 2))
            for t in (RISE, FALL):
                hold_time = graph.lutbank.lookup(
                    graph.hold_lut[:, t],
                    slew_early[graph.hold_d, t],
                    ck_slew,
                )
                hold_slacks[:, t] = (
                    at_early[graph.hold_d, t] - ck_at - hold_time
                )
            hold_slack = hold_slacks.min(axis=1)
            wns_hold = float(hold_slack.min())
            tns_hold = float(np.minimum(hold_slack, 0.0).sum())

        return STAResult(
            at=at,
            slew=slew,
            rat=rat,
            slack=slack,
            endpoint_slack=endpoint_slack,
            wns_setup=wns,
            tns_setup=tns,
            at_early=at_early,
            slew_early=slew_early,
            hold_slack=hold_slack,
            wns_hold=wns_hold,
            tns_hold=tns_hold,
            net_delay=net_delay,
            impulse=impulse,
            driver_load=driver_load,
            elmore=elmore,
            forest=forest,
            graph=graph,
            clock=clock,
        )

    # ------------------------------------------------------------------
    def _propagate(
        self, graph, net_delay, impulse, driver_load, late: bool,
        start_at=None, start_slew=None,
    ):
        """Levelised AT/slew propagation (late = max merge, early = min)."""
        n_pins = self.design.n_pins
        at = np.full((n_pins, 2), _NEG_INF if late else _POS_INF)
        slew = np.zeros((n_pins, 2)) if late else np.full((n_pins, 2), _POS_INF)
        sp = graph.start_pins
        src_at = graph.start_at if start_at is None else start_at
        src_slew = graph.start_slew if start_slew is None else start_slew
        at[sp] = src_at[sp]
        slew[sp] = src_slew[sp]

        reduce_at = np.maximum.at if late else np.minimum.at
        at_flat = at.reshape(-1)
        slew_flat = slew.reshape(-1)
        for level in range(1, graph.n_levels):
            sl = graph.net_arcs.level_slice(level)
            if sl.stop > sl.start:
                sinks = graph.net_sink[sl]
                srcs = graph.net_src[sl]
                at[sinks] = at[srcs] + net_delay[sinks][:, None]
                slew[sinks] = np.sqrt(
                    slew[srcs] ** 2 + impulse[sinks][:, None] ** 2
                )
            sl = graph.cell_arcs.level_slice(level)
            if sl.stop > sl.start:
                src = graph.c_src[sl]
                dst = graph.c_dst[sl]
                tin = graph.c_tin[sl]
                tout = graph.c_tout[sl]
                slew_in = slew[src, tin]
                load_out = driver_load[dst]
                # Unreached fan-ins carry sentinel slews; clamp the LUT
                # query (their AT sentinel still dominates the merge).
                slew_q = np.clip(slew_in, 0.0, 1e6)
                delay = graph.lutbank.lookup(graph.c_lut_delay[sl], slew_q, load_out)
                out_slew = graph.lutbank.lookup(graph.c_lut_slew[sl], slew_q, load_out)
                idx = dst * 2 + tout
                # reprolint: allow[no-silent-nanfix] NaN from corrupted LUTs propagates through the max/min merge to WNS/TNS; only numpy's warning is silenced
                with np.errstate(invalid="ignore"):
                    reduce_at(at_flat, idx, at[src, tin] + delay)
                    reduce_at(slew_flat, idx, out_slew)
        return at, slew

    def _required_times(
        self, graph, at, slew, net_delay, driver_load, clock=None
    ) -> np.ndarray:
        """Backward RAT propagation for the late (setup) mode."""
        n_pins = self.design.n_pins
        rat = np.full((n_pins, 2), _POS_INF)
        period = self.design.constraints.clock_period
        if len(graph.setup_d):
            if clock is not None:
                ck_at = clock.at[graph.setup_ck]
                ck_slew = clock.slew[graph.setup_ck]
            else:
                ck_at = np.zeros(len(graph.setup_d))
                ck_slew = np.full(len(graph.setup_d), graph.clock_slew)
            for t in (RISE, FALL):
                setup_time = graph.lutbank.lookup(
                    graph.setup_lut[:, t],
                    np.clip(slew[graph.setup_d, t], 0.0, 1e6),
                    ck_slew,
                )
                rat[graph.setup_d, t] = period + ck_at - setup_time
        if len(graph.po_pins):
            rat[graph.po_pins] = (period - graph.po_output_delay)[:, None]

        rat_flat = rat.reshape(-1)
        for level in range(graph.n_levels - 1, 0, -1):
            sl = graph.cell_arcs.level_slice(level)
            if sl.stop > sl.start:
                src = graph.c_src[sl]
                dst = graph.c_dst[sl]
                tin = graph.c_tin[sl]
                tout = graph.c_tout[sl]
                slew_q = np.clip(slew[src, tin], 0.0, 1e6)
                delay = graph.lutbank.lookup(
                    graph.c_lut_delay[sl], slew_q, driver_load[dst]
                )
                # reprolint: allow[no-silent-nanfix] NaN propagates through the min merge to WNS/TNS; only numpy's warning is silenced
                with np.errstate(invalid="ignore"):
                    np.minimum.at(
                        rat_flat, src * 2 + tin, rat[dst, tout] - delay
                    )
            sl = graph.net_arcs.level_slice(level)
            if sl.stop > sl.start:
                sinks = graph.net_sink[sl]
                srcs = graph.net_src[sl]
                cand = rat[sinks] - net_delay[sinks][:, None]
                # reprolint: allow[no-silent-nanfix] NaN propagates through the min merge to WNS/TNS; only numpy's warning is silenced
                with np.errstate(invalid="ignore"):
                    np.minimum.at(rat_flat, srcs * 2 + 0, cand[:, 0])
                    np.minimum.at(rat_flat, srcs * 2 + 1, cand[:, 1])
        return rat


def run_sta(
    design: Design,
    cell_x: Optional[np.ndarray] = None,
    cell_y: Optional[np.ndarray] = None,
    compute_hold: bool = False,
    wire_delay_model: str = "elmore",
    propagated_clock: bool = False,
    graph: Optional[TimingGraph] = None,
) -> STAResult:
    """One-shot STA convenience wrapper.

    ``graph`` skips the levelization/LUT-banking rebuild by reusing a
    prebuilt :class:`TimingGraph` of the *same* design (e.g. from a
    cached design bundle); results are bit-identical either way.
    """
    analyzer = StaticTimingAnalyzer(
        design, graph=graph, wire_delay_model=wire_delay_model
    )
    return analyzer.run(
        cell_x, cell_y, compute_hold=compute_hold,
        propagated_clock=propagated_clock,
    )
