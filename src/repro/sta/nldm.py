"""Batched NLDM lookup-table kernels.

A :class:`LutBank` packs many :class:`~repro.netlist.lut.LUT` objects into
padded arrays so that a heterogeneous batch of queries (each query naming
its own table) is answered with a handful of vectorised NumPy operations.
Both the golden STA and the differentiable timer use the same bank; the
gradient path (``lookup_with_grad``) implements the LUT-interpolation
derivative of Figure 6 of the paper.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..netlist.lut import LUT

__all__ = ["LutBank"]


def _pad_axis(axis: np.ndarray) -> np.ndarray:
    """Ensure an index axis has length >= 2 (constants become flat ramps)."""
    if len(axis) >= 2:
        return axis
    return np.array([axis[0], axis[0] + 1.0])


def _inner_knots(axes: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``(n - 2, k)`` interior knots ``axis[1 : len - 1]`` per table.

    Padding is NaN, which compares false with every query, so the count
    of entries ``<= q`` is the table's interpolation segment for any ``q``
    (clamped to ``[0, len - 2]``; NaN queries land in segment 0).
    """
    inner = np.full((axes.shape[1] - 2, len(axes)), np.nan)
    for t, n in enumerate(lengths):
        inner[: n - 2, t] = axes[t, 1 : n - 1]
    return inner


def _segment(inner: np.ndarray, ids: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per query, the number of its table's interior knots ``<= q``.

    One knot row at a time: ``(n - 2)`` gathers of ``len(q)`` from a tiny
    table, instead of one ``(n - 2, Q)`` gather and a reduction over its
    short axis, which costs several times more.
    """
    seg = np.zeros(len(q), dtype=np.int64)
    for knots in inner:
        seg += knots[ids] <= q
    return seg


class LutBank:
    """A registry of LUTs with batched bilinear lookup.

    Use :meth:`register` to intern a LUT and obtain its integer id, then
    :meth:`finalize` once before the first lookup.  Lookups take an array of
    ids and broadcastable query arrays.
    """

    def __init__(self) -> None:
        self._luts: List[LUT] = []
        self._by_identity: Dict[int, int] = {}
        self._finalized = False
        self.x: np.ndarray
        self.y: np.ndarray
        self.values: np.ndarray
        self.x_len: np.ndarray
        self.y_len: np.ndarray
        # Segment-search tables, built by finalize (see _inner_knots).
        self._x_inner: np.ndarray
        self._y_inner: np.ndarray

    def register(self, lut: LUT) -> int:
        """Intern a LUT (deduplicated by object identity); returns its id."""
        if self._finalized:
            raise RuntimeError("LutBank already finalized")
        key = id(lut)
        if key in self._by_identity:
            return self._by_identity[key]
        index = len(self._luts)
        self._luts.append(lut)
        self._by_identity[key] = index
        return index

    def __len__(self) -> int:
        return len(self._luts)

    def finalize(self) -> None:
        """Pack all registered LUTs into padded batch arrays."""
        if self._finalized:
            return
        self._finalized = True
        if not self._luts:
            self.x = np.zeros((0, 2))
            self.y = np.zeros((0, 2))
            self.values = np.zeros((0, 2, 2))
            self.x_len = np.zeros(0, dtype=np.int64)
            self.y_len = np.zeros(0, dtype=np.int64)
            self._x_inner = np.zeros((0, 0))
            self._y_inner = np.zeros((0, 0))
            return
        xs = [_pad_axis(lut.x) for lut in self._luts]
        ys = [_pad_axis(lut.y) for lut in self._luts]
        nx = max(len(a) for a in xs)
        ny = max(len(a) for a in ys)
        k = len(self._luts)
        self.x = np.full((k, nx), np.inf)
        self.y = np.full((k, ny), np.inf)
        self.values = np.zeros((k, nx, ny))
        self.x_len = np.zeros(k, dtype=np.int64)
        self.y_len = np.zeros(k, dtype=np.int64)
        for i, (lut, ax, ay) in enumerate(zip(self._luts, xs, ys)):
            self.x_len[i] = len(ax)
            self.y_len[i] = len(ay)
            self.x[i, : len(ax)] = ax
            self.y[i, : len(ay)] = ay
            v = lut.values
            # Duplicate rows/columns for axes that were padded from length 1.
            if v.shape[0] == 1 and len(ax) == 2:
                v = np.vstack([v, v])
            if v.shape[1] == 1 and len(ay) == 2:
                v = np.hstack([v, v])
            self.values[i, : v.shape[0], : v.shape[1]] = v
        self._x_inner = _inner_knots(self.x, self.x_len)
        self._y_inner = _inner_knots(self.y, self.y_len)

    def lookup_with_grad(
        self, ids: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched bilinear lookup; returns ``(value, dv/dx, dv/dy)``.

        ``ids`` selects the table per query; ``x``/``y`` are the query
        coordinates.  Out-of-range queries extrapolate linearly from the
        boundary cell, matching :meth:`LUT.lookup_with_grad`.
        """
        if not self._finalized:
            self.finalize()
        ids = np.asarray(ids, dtype=np.int64)
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if not ids.shape == x.shape == y.shape:
            ids, x, y = np.broadcast_arrays(ids, x, y)
        shape = ids.shape
        ids, x, y = ids.ravel(), x.ravel(), y.ravel()

        # Segment index = number of interior knots <= the query, which is
        # the first/last segment outside the table (linear extrapolation).
        # The bracketing knots and the four corner values are then read by
        # flat index, so no per-query (nx, ny) value block is gathered.
        nx = self.x.shape[1]
        ny = self.y.shape[1]
        i = _segment(self._x_inner, ids, x)
        j = _segment(self._y_inner, ids, y)
        xi = ids * nx + i
        yj = ids * ny + j
        ax = self.x.reshape(-1)
        ay = self.y.reshape(-1)
        x0 = ax[xi]
        x1 = ax[xi + 1]
        y0 = ay[yj]
        y1 = ay[yj + 1]
        # Read through the live bank so in-place edits (fault injection)
        # reach every lookup.
        corner = xi * ny + j
        v = self.values.reshape(-1)
        q00 = v[corner]
        q01 = v[corner + 1]
        q10 = v[corner + ny]
        q11 = v[corner + ny + 1]
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

    def lookup(self, ids: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Batched bilinear lookup (values only)."""
        return self.lookup_with_grad(ids, x, y)[0]
