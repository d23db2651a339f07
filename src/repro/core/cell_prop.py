"""Differentiable cell-delay propagation - Equations (11)-(12) of the paper.

Cell arcs are characterised by NLDM lookup tables indexed by (input slew,
output load).  Fan-in arrival times and slews are merged with the smoothed
maximum of Equation (5):

    Delay_u(v) = LUT_cell(Slew(u), Load(v))
    Slew_u(v)  = LUT_transition(Slew(u), Load(v))
    AT(v)      = LSE_gamma over u of { AT(u) + Delay_u(v) }
    Slew(v)    = LSE_gamma over u of { Slew_u(v) }

The backward kernel uses the softmax identity ``w_i = exp((x_i - LSE) /
gamma)`` to recover merge weights without storing them, then chains through
the LUT-interpolation gradients of Figure 6 into source slews and net loads
(Equation (12)).  Kernels operate on one level of the graph's
contribution table through a :class:`CellLevelPlan` - the level's gather
indices and level-local merge segments, built once per graph - and record
per-contribution LUT values and partial derivatives in the caller's tape
arrays during the forward pass.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

import numpy as np

from ..contracts import differentiable
from ..sta.nldm import LutBank
from .scatter import scatter_accumulate
from .smoothing import segment_lse_max

__all__ = [
    "SLEW_CLIP_MAX",
    "CellLevelPlan",
    "plan_cell_levels",
    "cell_forward_level",
    "cell_backward_level",
    "cell_forward_exact",
]

_SENTINEL = -1e30

#: Upper bound applied to slews before LUT queries.  Unreached fan-ins
#: carry sentinel values, so queries are clamped to the LUT's sane range;
#: where the clamp is active the slew derivative of the lookup is zero.
SLEW_CLIP_MAX = 1e6


class CellLevelPlan(NamedTuple):
    """Placement-independent indices of one level's cell contributions.

    Built once per timing graph by :func:`plan_cell_levels`.  Every field
    is an integer index array (or a slice); ``dst`` is a view of the
    graph's table, the rest are level-sized.
    """

    #: The level's rows of the contribution table (and of the tape).
    sl: slice
    #: Sink pin of each contribution (driver-load gather, load scatter).
    dst: np.ndarray
    #: Flat ``src * 2 + tin`` slot of each contribution in ``at``/``slew``.
    src_slot: np.ndarray
    #: ``2k`` LUT ids: the delay tables, then the transition tables, so
    #: one batched lookup answers both.
    luts: np.ndarray
    #: Sorted distinct flat sink slots ``dst * 2 + tout`` of the level.
    touched: np.ndarray
    #: Level-local segment of each contribution: ``touched[seg]`` is its
    #: sink slot.
    seg: np.ndarray


def plan_cell_levels(graph) -> List[Optional[CellLevelPlan]]:
    """One :class:`CellLevelPlan` per level of ``graph`` (None if empty)."""
    plans: List[Optional[CellLevelPlan]] = []
    for level in range(graph.n_levels):
        sl = graph.cell_arcs.level_slice(level)
        if sl.stop <= sl.start:
            plans.append(None)
            continue
        dst = graph.c_dst[sl]
        touched, seg = np.unique(
            dst * 2 + graph.c_tout[sl], return_inverse=True
        )
        plans.append(
            CellLevelPlan(
                sl=sl,
                dst=dst,
                src_slot=graph.c_src[sl] * 2 + graph.c_tin[sl],
                luts=np.concatenate(
                    (graph.c_lut_delay[sl], graph.c_lut_slew[sl])
                ),
                touched=touched,
                seg=seg,
            )
        )
    return plans


@differentiable(
    backward="repro.core.cell_prop.cell_backward_level",
    gradcheck="tests/test_difftimer.py::TestBackwardFiniteDifference"
    "::test_gradient_matches_fd",
)
def cell_forward_level(
    plan: CellLevelPlan,
    lutbank: LutBank,
    driver_load: np.ndarray,
    gamma: float,
    at: np.ndarray,
    slew: np.ndarray,
    tape_at_cand: np.ndarray,
    tape_slew_cand: np.ndarray,
    tape_dd_dslew: np.ndarray,
    tape_dd_dload: np.ndarray,
    tape_ds_dslew: np.ndarray,
    tape_ds_dload: np.ndarray,
) -> None:
    """Forward cell propagation with LSE merge for one level (in place).

    The ``tape_*`` arrays (full contribution length) receive, at the
    plan's rows, the candidate values and LUT partials needed by the
    backward pass.
    """
    sl = plan.sl
    at_flat = at.reshape(-1)
    slew_flat = slew.reshape(-1)
    slew_raw = slew_flat[plan.src_slot]
    slew_in = np.minimum(np.maximum(slew_raw, 0.0), SLEW_CLIP_MAX)
    load = driver_load[plan.dst]
    value, d_dslew, d_dload = lutbank.lookup_with_grad(
        plan.luts,
        np.concatenate((slew_in, slew_in)),
        np.concatenate((load, load)),
    )
    delay, out_slew = value.reshape(2, -1)
    dd_ds, ds_ds = d_dslew.reshape(2, -1)
    dd_dl, ds_dl = d_dload.reshape(2, -1)
    # Where the clip is active the lookup sees a constant slew, so the
    # recorded slew-derivatives must vanish (else backward disagrees with
    # finite differences of the clipped forward).
    clipped = (slew_raw < 0.0) | (slew_raw > SLEW_CLIP_MAX)
    if np.any(clipped):
        dd_ds = np.where(clipped, 0.0, dd_ds)
        ds_ds = np.where(clipped, 0.0, ds_ds)

    at_cand = at_flat[plan.src_slot] + delay
    tape_at_cand[sl] = at_cand
    tape_slew_cand[sl] = out_slew
    tape_dd_dslew[sl] = dd_ds
    tape_dd_dload[sl] = dd_dl
    tape_ds_dslew[sl] = ds_ds
    tape_ds_dload[sl] = ds_dl

    n_seg = len(plan.touched)
    at_flat[plan.touched] = segment_lse_max(at_cand, plan.seg, n_seg, gamma)
    slew_flat[plan.touched] = segment_lse_max(out_slew, plan.seg, n_seg, gamma)


def _merge_weights(
    cand: np.ndarray, merged: np.ndarray, gamma: float
) -> np.ndarray:
    """Softmax weights via the identity ``w_i = exp((x_i - LSE) / gamma)``.

    ``LSE >= x_i`` for finite inputs, so the upper clamp at zero is exact
    there; it keeps a non-finite merge from overflowing ``exp`` into
    ``inf`` weights while NaN still propagates to the guard.
    """
    z = (cand - merged) / gamma
    return np.exp(np.minimum(np.maximum(z, -700.0), 0.0))


def cell_backward_level(
    plan: CellLevelPlan,
    gamma: float,
    at: np.ndarray,
    slew: np.ndarray,
    tape_at_cand: np.ndarray,
    tape_slew_cand: np.ndarray,
    tape_dd_dslew: np.ndarray,
    tape_dd_dload: np.ndarray,
    tape_ds_dslew: np.ndarray,
    tape_ds_dload: np.ndarray,
    g_at: np.ndarray,
    g_slew: np.ndarray,
    g_load: np.ndarray,
) -> None:
    """Backward cell propagation for one level (Equation (12), in place).

    The gradients of the level's sink pins (``g_at``/``g_slew`` at the
    plan's ``touched`` slots) must be final before this call.  Accumulates
    into source-pin AT/slew gradients and per-pin net-load gradients.
    """
    sl, seg, touched = plan.sl, plan.seg, plan.touched
    g_at_flat = g_at.reshape(-1)
    g_slew_flat = g_slew.reshape(-1)

    w_at = _merge_weights(tape_at_cand[sl], at.reshape(-1)[touched][seg], gamma)
    w_slew = _merge_weights(
        tape_slew_cand[sl], slew.reshape(-1)[touched][seg], gamma
    )
    # == g over (AT(u) + Delay_u(v)) and over Slew_u(v).
    g_cand_at = w_at * g_at_flat[touched][seg]
    g_cand_slew = w_slew * g_slew_flat[touched][seg]

    # AT(u) receives the merge weight directly (Eq. 12a).
    scatter_accumulate(g_at_flat, plan.src_slot, g_cand_at)
    # Slew(u) via both LUT x-derivatives (Eq. 12d).
    scatter_accumulate(
        g_slew_flat,
        plan.src_slot,
        g_cand_at * tape_dd_dslew[sl] + g_cand_slew * tape_ds_dslew[sl],
    )
    # Load(v) via both LUT y-derivatives (Eq. 12e).
    scatter_accumulate(
        g_load,
        plan.dst,
        g_cand_at * tape_dd_dload[sl] + g_cand_slew * tape_ds_dload[sl],
    )


def cell_forward_exact(  # reprolint: allow[backward-pair] exact hard-max sibling shared with the incremental engine; no gradient flows through it
    idx: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    tin: np.ndarray,
    tout: np.ndarray,
    lut_delay: np.ndarray,
    lut_slew: np.ndarray,
    lutbank: LutBank,
    driver_load: np.ndarray,
    at: np.ndarray,
    slew: np.ndarray,
) -> None:
    """Exact (hard-max) cell propagation over a batch of contributions.

    The non-smoothed sibling of :func:`cell_forward_level`, shared by the
    incremental engine's level sweep: ``idx`` selects any subset of the
    graph's contribution table whose sink pins all sit on one level, and
    the sinks' ``at``/``slew`` rows are recomputed from scratch with hard
    maxima (late mode).  Callers must pre-reset the sink rows to the
    ``-inf`` sentinel / zero slew before the call, since the kernel only
    scatter-maxes candidate values into them.
    """
    s, d = src[idx], dst[idx]
    ti, to = tin[idx], tout[idx]
    slew_in = np.clip(slew[s, ti], 0.0, SLEW_CLIP_MAX)
    load = driver_load[d]
    delay = lutbank.lookup(lut_delay[idx], slew_in, load)
    out_slew = lutbank.lookup(lut_slew[idx], slew_in, load)
    seg = d * 2 + to
    np.maximum.at(at.reshape(-1), seg, at[s, ti] + delay)
    np.maximum.at(slew.reshape(-1), seg, out_slew)
