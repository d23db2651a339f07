"""Reference oracle for the differentiable timer's level sweeps.

These are the per-slice kernels the timer shipped before level plans:
every call re-derives its gathers, segment ids and ``np.unique`` from the
graph tables, merges over ``2 * n_pins`` global segments, row-scatters
with ``np.add.at`` and looks LUTs up by gathering each query's whole
``(nx, ny)`` value block.  They are kept verbatim in behaviour so the
planned kernels, the corner-indexed :class:`~repro.sta.nldm.LutBank`
lookup and the NaN-safe merges can be checked bit for bit against them
(``tests/test_timer_oracle.py``, ``benchmarks/bench_timer.py``).

:class:`ReferenceTimer` is a :class:`~repro.core.DifferentiableTimer`
whose level sweeps run these kernels; everything else (Elmore, endpoints,
the pin/cell gradient scatter) is shared with the shipped timer.
"""

from __future__ import annotations

import numpy as np

from repro.core import DifferentiableTimer
from repro.core.cell_prop import SLEW_CLIP_MAX

_SENTINEL = -1e30


def reference_lookup_with_grad(bank, ids, x, y):
    """``LutBank.lookup_with_grad`` by whole-table gathers (pre-plan form)."""
    ids = np.asarray(ids, dtype=np.int64)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    ids, x, y = np.broadcast_arrays(ids, x, y)
    shape = ids.shape
    ids, x, y = ids.ravel(), x.ravel(), y.ravel()

    ax = bank.x[ids]  # (Q, nx), padded with +inf
    ay = bank.y[ids]
    i = np.clip(np.sum(ax <= x[:, None], axis=1) - 1, 0, bank.x_len[ids] - 2)
    j = np.clip(np.sum(ay <= y[:, None], axis=1) - 1, 0, bank.y_len[ids] - 2)
    q = np.arange(len(ids))
    x0 = ax[q, i]
    x1 = ax[q, i + 1]
    y0 = ay[q, j]
    y1 = ay[q, j + 1]
    v = bank.values[ids]
    q00 = v[q, i, j]
    q01 = v[q, i, j + 1]
    q10 = v[q, i + 1, j]
    q11 = v[q, i + 1, j + 1]
    tx = (x - x0) / (x1 - x0)
    ty = (y - y0) / (y1 - y0)
    v0 = q00 + ty * (q01 - q00)
    v1 = q10 + ty * (q11 - q10)
    val = v0 + tx * (v1 - v0)
    dvx = (v1 - v0) / (x1 - x0)
    d0 = (q01 - q00) / (y1 - y0)
    d1 = (q11 - q10) / (y1 - y0)
    dvy = d0 + tx * (d1 - d0)
    return val.reshape(shape), dvx.reshape(shape), dvy.reshape(shape)


def reference_segment_lse_max(candidates, segment_ids, n_segments, gamma):
    """Global-segment LSE merge (``maximum.at`` scatter-max)."""
    m = np.full(n_segments, _SENTINEL)
    np.maximum.at(m, segment_ids, candidates)
    shifted = np.exp(np.maximum((candidates - m[segment_ids]) / gamma, -700.0))
    s = np.zeros(n_segments)
    np.add.at(s, segment_ids, shifted)
    out = np.full(n_segments, _SENTINEL)
    nonempty = s > 0
    out[nonempty] = m[nonempty] + gamma * np.log(s[nonempty])
    return out


def reference_cell_forward_level(
    sl, src, dst, tin, tout, lut_delay, lut_slew, bank, driver_load, gamma,
    at, slew, tape_at_cand, tape_slew_cand, tape_dd_dslew, tape_dd_dload,
    tape_ds_dslew, tape_ds_dload,
):
    s, d = src[sl], dst[sl]
    ti, to = tin[sl], tout[sl]
    slew_raw = slew[s, ti]
    slew_in = np.clip(slew_raw, 0.0, SLEW_CLIP_MAX)
    load = driver_load[d]
    delay, dd_ds, dd_dl = reference_lookup_with_grad(
        bank, lut_delay[sl], slew_in, load
    )
    out_slew, ds_ds, ds_dl = reference_lookup_with_grad(
        bank, lut_slew[sl], slew_in, load
    )
    clipped = (slew_raw < 0.0) | (slew_raw > SLEW_CLIP_MAX)
    if np.any(clipped):
        dd_ds = np.where(clipped, 0.0, dd_ds)
        ds_ds = np.where(clipped, 0.0, ds_ds)

    at_cand = at[s, ti] + delay
    tape_at_cand[sl] = at_cand
    tape_slew_cand[sl] = out_slew
    tape_dd_dslew[sl] = dd_ds
    tape_dd_dload[sl] = dd_dl
    tape_ds_dslew[sl] = ds_ds
    tape_ds_dload[sl] = ds_dl

    n_pins = at.shape[0]
    seg = d * 2 + to
    merged_at = reference_segment_lse_max(at_cand, seg, n_pins * 2, gamma)
    merged_slew = reference_segment_lse_max(out_slew, seg, n_pins * 2, gamma)
    touched = np.unique(seg)
    at.reshape(-1)[touched] = merged_at[touched]
    slew.reshape(-1)[touched] = merged_slew[touched]


def reference_cell_backward_level(
    sl, src, dst, tin, tout, gamma, at, slew, tape_at_cand, tape_slew_cand,
    tape_dd_dslew, tape_dd_dload, tape_ds_dslew, tape_ds_dload,
    g_at, g_slew, g_load,
):
    s, d = src[sl], dst[sl]
    ti, to = tin[sl], tout[sl]
    seg_at = at[d, to]
    seg_slew = slew[d, to]
    w_at = np.exp(np.maximum((tape_at_cand[sl] - seg_at) / gamma, -700.0))
    w_slew = np.exp(np.maximum((tape_slew_cand[sl] - seg_slew) / gamma, -700.0))
    g_cand_at = w_at * g_at[d, to]
    g_cand_slew = w_slew * g_slew[d, to]
    np.add.at(g_at, (s, ti), g_cand_at)
    np.add.at(
        g_slew,
        (s, ti),
        g_cand_at * tape_dd_dslew[sl] + g_cand_slew * tape_ds_dslew[sl],
    )
    np.add.at(
        g_load,
        d,
        g_cand_at * tape_dd_dload[sl] + g_cand_slew * tape_ds_dload[sl],
    )


def reference_net_forward_level(sinks, srcs, net_delay, impulse2, at, slew):
    at[sinks] = at[srcs] + net_delay[sinks][:, None]
    slew[sinks] = np.sqrt(slew[srcs] ** 2 + impulse2[sinks][:, None])


def reference_net_backward_level(
    sinks, srcs, slew, g_at, g_slew, g_net_delay, g_impulse2
):
    g_at_sink = g_at[sinks]
    np.add.at(g_at, srcs, g_at_sink)
    g_net_delay[sinks] += g_at_sink.sum(axis=1)
    slew_sink = slew[sinks]
    slew_src = slew[srcs]
    safe = np.maximum(slew_sink, 1e-12)
    g_slew_sink = g_slew[sinks]
    np.add.at(g_slew, srcs, (slew_src / safe) * g_slew_sink)
    g_impulse2[sinks] += (g_slew_sink / (2.0 * safe)).sum(axis=1)


class ReferenceTimer(DifferentiableTimer):
    """The differentiable timer with the pre-plan per-slice level sweeps."""

    def _propagate(self, tape) -> None:
        g = self.graph
        for level in range(1, g.n_levels):
            sl = g.net_arcs.level_slice(level)
            if sl.stop > sl.start:
                reference_net_forward_level(
                    g.net_sink[sl], g.net_src[sl],
                    tape.net_delay, tape.impulse2, tape.at, tape.slew,
                )
            sl = g.cell_arcs.level_slice(level)
            if sl.stop > sl.start:
                reference_cell_forward_level(
                    sl, g.c_src, g.c_dst, g.c_tin, g.c_tout,
                    g.c_lut_delay, g.c_lut_slew, g.lutbank,
                    tape.driver_load, self.gamma, tape.at, tape.slew,
                    tape.at_cand, tape.slew_cand,
                    tape.dd_dslew, tape.dd_dload,
                    tape.ds_dslew, tape.ds_dload,
                )

    def _backpropagate(
        self, tape, g_at, g_slew, g_load, g_net_delay, g_impulse2
    ) -> None:
        g = self.graph
        for level in range(g.n_levels - 1, 0, -1):
            sl = g.cell_arcs.level_slice(level)
            if sl.stop > sl.start:
                reference_cell_backward_level(
                    sl, g.c_src, g.c_dst, g.c_tin, g.c_tout,
                    self.gamma, tape.at, tape.slew,
                    tape.at_cand, tape.slew_cand,
                    tape.dd_dslew, tape.dd_dload,
                    tape.ds_dslew, tape.ds_dload,
                    g_at, g_slew, g_load,
                )
            sl = g.net_arcs.level_slice(level)
            if sl.stop > sl.start:
                reference_net_backward_level(
                    g.net_sink[sl], g.net_src[sl], tape.slew,
                    g_at, g_slew, g_net_delay, g_impulse2,
                )
