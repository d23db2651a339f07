"""Differentiable net-delay propagation - Equations (9)-(10) of the paper.

A net arc carries the signal from a net's driver pin to one sink pin:

    AT(v)   = AT(u) + Delay(v)
    Slew(v) = sqrt(Slew(u)^2 + Impulse(v)^2)

Each pin has at most one fan-in net arc, so no smoothing is needed here;
the backward kernel distributes the sink gradients onto the driver AT/slew
and onto the Elmore delay / squared-impulse of the sink (Equation (10)).
Both kernels take a :class:`NetLevelPlan`: the flat rise/fall slot
indices of one level's net arcs, built once per graph (the incremental
engine builds one per batch of same-level sinks).
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

import numpy as np

from ..contracts import differentiable
from .scatter import scatter_accumulate

__all__ = [
    "NetLevelPlan",
    "net_level_plan",
    "plan_net_levels",
    "net_forward_level",
    "net_backward_level",
]


class NetLevelPlan(NamedTuple):
    """Placement-independent indices of a batch of same-level net arcs.

    Built by :func:`net_level_plan`.  The kernels address the ``(n_pins,
    2)`` rise/fall tables through flat row-major slots, one per (pin,
    transition), which keeps every gather and scatter one-dimensional.
    """

    sinks: np.ndarray
    #: ``sinks`` repeated per transition: per-pin Elmore gathers in slot
    #: order.
    sink_pins: np.ndarray
    sink_slots: np.ndarray
    src_slots: np.ndarray


def _slots(pins: np.ndarray) -> np.ndarray:
    return (pins[:, None] * 2 + np.arange(2)).reshape(-1)


def net_level_plan(sinks: np.ndarray, srcs: np.ndarray) -> NetLevelPlan:
    """The plan of net arcs ``srcs[i] -> sinks[i]`` (sinks distinct)."""
    return NetLevelPlan(
        sinks=sinks,
        sink_pins=np.repeat(sinks, 2),
        sink_slots=_slots(sinks),
        src_slots=_slots(srcs),
    )


def plan_net_levels(graph) -> List[Optional[NetLevelPlan]]:
    """One :class:`NetLevelPlan` per level of ``graph`` (None if empty)."""
    plans: List[Optional[NetLevelPlan]] = []
    for level in range(graph.n_levels):
        sl = graph.net_arcs.level_slice(level)
        if sl.stop <= sl.start:
            plans.append(None)
            continue
        plans.append(net_level_plan(graph.net_sink[sl], graph.net_src[sl]))
    return plans


@differentiable(
    backward="repro.core.net_prop.net_backward_level",
    gradcheck="tests/test_difftimer.py::TestBackwardFiniteDifference"
    "::test_gradient_matches_fd",
)
def net_forward_level(
    plan: NetLevelPlan,
    net_delay: np.ndarray,
    impulse2: np.ndarray,
    at: np.ndarray,
    slew: np.ndarray,
) -> None:
    """Forward net propagation for the plan's arcs (in place).

    ``at``/``slew`` are the full ``(n_pins, 2)`` arrays; ``net_delay`` and
    ``impulse2`` are per-pin Elmore outputs at sink pins.
    """
    at_flat = at.reshape(-1)
    slew_flat = slew.reshape(-1)
    at_flat[plan.sink_slots] = (
        at_flat[plan.src_slots] + net_delay[plan.sink_pins]
    )
    slew_flat[plan.sink_slots] = np.sqrt(
        slew_flat[plan.src_slots] ** 2 + impulse2[plan.sink_pins]
    )


def _per_pin(pairs: np.ndarray) -> np.ndarray:
    """Rise + fall of slot-ordered pairs (``sum(axis=1)`` of the rows)."""
    return pairs[0::2] + pairs[1::2]


def net_backward_level(
    plan: NetLevelPlan,
    slew: np.ndarray,
    g_at: np.ndarray,
    g_slew: np.ndarray,
    g_net_delay: np.ndarray,
    g_impulse2: np.ndarray,
) -> None:
    """Backward net propagation for one level (Equation (10), in place).

    Accumulates into the driver-pin gradients and the per-pin Elmore
    gradients; the sink gradients in ``g_at``/``g_slew`` must already be
    final (higher levels processed first).
    """
    slew_flat = slew.reshape(-1)
    g_at_flat = g_at.reshape(-1)
    g_slew_flat = g_slew.reshape(-1)

    g_at_sink = g_at_flat[plan.sink_slots]
    scatter_accumulate(g_at_flat, plan.src_slots, g_at_sink)
    g_net_delay[plan.sinks] += _per_pin(g_at_sink)

    safe = np.maximum(slew_flat[plan.sink_slots], 1e-12)
    g_slew_sink = g_slew_flat[plan.sink_slots]
    scatter_accumulate(
        g_slew_flat,
        plan.src_slots,
        (slew_flat[plan.src_slots] / safe) * g_slew_sink,
    )
    g_impulse2[plan.sinks] += _per_pin(g_slew_sink / (2.0 * safe))
