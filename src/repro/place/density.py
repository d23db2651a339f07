"""Electrostatic density model (ePlace / DREAMPlace style).

Cell area is deposited onto a regular bin grid with cloud-in-cell
(bilinear) splatting; the resulting density map is treated as a charge
distribution and the Poisson equation ``lap(phi) = -(rho - rho_mean)`` is
solved spectrally with a type-II DCT (Neumann boundary, as in ePlace).
The negative potential gradient is the electric field; each movable cell
feels a force ``area * E`` interpolated at its center, which is the
density gradient used by the placer.  Density overflow - the stopping
metric of the paper's experiments - is measured on the same grid.

Two solvers share the splat/gather machinery:

- ``solver="scipy"`` (default): the reference pipeline - per-call
  ``scipy.fft`` DCT round-trip (via the backend shim) and a central
  difference field.  Kept bit-compatible with the original
  implementation; everything downstream (telemetry goldens, determinism
  suites) pins against it.
- ``solver="planned"``: the fast path.  All size-dependent work -
  rfft-based DCT plans with twiddle/mirror tables, the reciprocal
  eigen-denominator - is built once here in ``__init__``
  (:mod:`repro.core.fftplan`); per-iteration the solve is pure planned
  rffts, the E-field comes from exact spectral differentiation of the
  trigonometric interpolant (no ``np.gradient`` stencil passes), the
  energy is read off the coefficients by Parseval (the potential grid is
  only materialised on request), and the gather reuses fully fused
  stencil weights.  ``precision="fp32"`` additionally runs the spectral
  solve and field in single precision (complex64 FFTs); splat, gather
  and the returned gradients stay float64 at the boundary.

The spectral field differs from the central-difference field by the
O(h^2) truncation error of the stencil, so planned-vs-scipy equivalence
is a placement-level harness gate (``repro.harness verify-density``),
while transform-level identity is pinned at ~1e-15 in
``tests/test_fftplan.py``.

Fixed macro area (fixed cells with nonzero area) is splatted once at
construction and added to every density map, so movable cells are
repelled from blockages; zero-area fixed pads/ports contribute nothing
and keep historical behaviour bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.backend import get_backend, xp
from ..core.fftplan import SpectralGridPlan
from ..core.scatter import scatter_add
from ..netlist.design import Design
from ..perf import PROFILER

__all__ = ["DensityModel", "DensityResult"]

SOLVERS = ("scipy", "planned")
PRECISIONS = ("fp64", "fp32")


@dataclass
class DensityResult:
    """Outputs of one density evaluation.

    ``potential`` is ``None`` on the planned fast path unless the model
    was built with ``keep_potential=True`` - the placer never reads it,
    and skipping it saves a full inverse-transform pass per iteration.
    """

    energy: float
    overflow: float
    grad_x: xp.ndarray
    grad_y: xp.ndarray
    density: xp.ndarray
    potential: Optional[xp.ndarray]


class DensityModel:
    """ePlace-style electrostatic density on an ``nb x nb`` grid."""

    def __init__(
        self,
        design: Design,
        n_bins: int = 64,
        target_density: float = 1.0,
        solver: str = "scipy",
        precision: str = "fp64",
        keep_potential: bool = False,
    ) -> None:
        if solver not in SOLVERS:
            raise ValueError(
                f"unknown density solver {solver!r} (choose from {SOLVERS})"
            )
        if precision not in PRECISIONS:
            raise ValueError(
                f"unknown density precision {precision!r} "
                f"(choose from {PRECISIONS})"
            )
        if precision == "fp32" and solver != "planned":
            raise ValueError(
                "precision='fp32' requires solver='planned' "
                "(the scipy reference path is the fp64 golden)"
            )
        self.design = design
        xl, yl, xh, yh = design.die
        self.xl, self.yl = xl, yl
        self.nb = n_bins
        self.hx = (xh - xl) / n_bins
        self.hy = (yh - yl) / n_bins
        self.target_density = target_density
        self.solver = solver
        self.precision = precision
        self.keep_potential = keep_potential
        self.movable = ~design.cell_fixed
        self.area = design.cell_w * design.cell_h
        self.movable_area_total = float(self.area[self.movable].sum())
        self.bin_area = self.hx * self.hy

        # Fixed macro/port blockage: deposit fixed-cell area once.  Ports
        # and pads have zero area, so designs without real macros keep
        # the historical all-movable density map bit-for-bit.
        fixed = design.cell_fixed & (self.area > 0.0)
        if bool(fixed.any()):
            rho_f, _ = self._stencil(
                design.cell_x[fixed], design.cell_y[fixed], self.area[fixed]
            )
            self._fixed_rho: Optional[xp.ndarray] = rho_f
        else:
            self._fixed_rho = None

        eigen_x = 2.0 - 2.0 * xp.cos(xp.pi * xp.arange(n_bins) / n_bins)
        eigen_y = 2.0 - 2.0 * xp.cos(xp.pi * xp.arange(n_bins) / n_bins)
        denom = (
            eigen_x[:, None] / (self.hx * self.hx)
            + eigen_y[None, :] / (self.hy * self.hy)
        )
        denom[0, 0] = 1.0  # DC mode is projected out before division
        self._denominator = denom
        # The transforms' backend, resolved once like the FFT plans' below.
        self._be = get_backend()

        # Planned-path state, all built once: the rfft DCT plans and the
        # reciprocal denominator (per-iteration multiply, not divide).
        # The reciprocal table is stored transposed (the pipeline works
        # in [ky, kx] layout) with the 1/bin_area source scaling folded
        # in; its zero DC slot also absorbs the mean projection, so the
        # per-iteration solve needs no source preparation at all.
        if solver == "planned":
            dtype = xp.float32 if precision == "fp32" else xp.float64
            self._plan = SpectralGridPlan(n_bins, dtype=dtype)
            inv = 1.0 / (denom * self.bin_area)
            inv[0, 0] = 0.0
            self._inv_denominator_t = xp.ascontiguousarray(inv.T).astype(
                dtype
            )
        else:
            self._plan = None
            self._inv_denominator_t = None

    # ------------------------------------------------------------------
    def _stencil(self, x: xp.ndarray, y: xp.ndarray, mass: xp.ndarray):
        """Cloud-in-cell deposition of ``mass`` at ``(x, y)`` onto the grid.

        Returns the density map plus the flattened stencil (corner
        indices and the four weights, computed once) so the field gather
        can reuse it.  The four corner passes are concatenated into a
        single deterministic :func:`scatter_add`; per destination bin
        the contributions fold in the same pass-major order as the
        historical four sequential scatters, so the map is bit-identical
        to the original implementation.
        """
        nb = self.nb
        gx = (x - self.xl) / self.hx - 0.5
        gy = (y - self.yl) / self.hy - 0.5
        gx = xp.clip(gx, 0.0, nb - 1.000001)
        gy = xp.clip(gy, 0.0, nb - 1.000001)
        ix = xp.floor(gx).astype(xp.int64)
        iy = xp.floor(gy).astype(xp.int64)
        fx = gx - ix
        fy = gy - iy
        # Fused stencil weights: the x-edge products are shared between
        # the four corners (same association as the historical
        # ``mass * (1 - fx) * (1 - fy)`` forms, so no bits change).
        ax = mass * (1.0 - fx)
        bx = mass * fx
        w00 = ax * (1.0 - fy)
        w10 = bx * (1.0 - fy)
        w01 = ax * fy
        w11 = bx * fy
        base = ix * nb + iy
        flat = xp.concatenate([base, base + nb, base + 1, base + nb + 1])
        weights = xp.concatenate([w00, w10, w01, w11])
        rho = scatter_add(flat, weights, nb * nb).reshape(nb, nb)
        # The transposed base (iy-major) lets the planned path gather
        # its [y, x]-layout field with the same weights, no transpose.
        base_t = iy * nb + ix if self.solver == "planned" else None
        return rho, (base, base_t, w00, w10, w01, w11)

    def _splat(self, x: xp.ndarray, y: xp.ndarray):
        """Movable-cell density map (fixed blockage included)."""
        rho, stencil = self._stencil(
            x[self.movable], y[self.movable], self.area[self.movable]
        )
        if self._fixed_rho is not None:
            rho = rho + self._fixed_rho
        return rho, stencil

    def _solve_poisson(self, rho: xp.ndarray) -> xp.ndarray:
        """Reference spectral Poisson solve (scipy DCT round-trip)."""
        source = rho / self.bin_area
        source = source - source.mean()
        coeff = self._be.dctn(source, type=2, norm="ortho")
        coeff = coeff / self._denominator
        coeff[0, 0] = 0.0
        return self._be.idctn(coeff, type=2, norm="ortho")

    # ------------------------------------------------------------------
    @staticmethod
    def _gather(field, base, step_x, step_y, w00, w10, w01, w11):
        """Bilinear field interpolation reusing the splat stencil weights.

        ``step_x``/``step_y`` encode the flat-index stride of one bin in
        x and y, which lets the same kernel read fields in either
        ``[x, y]`` or transposed ``[y, x]`` layout.
        """
        flat = field.reshape(-1)
        return (
            xp.take(flat, base) * w00
            + xp.take(flat, base + step_x) * w10
            + xp.take(flat, base + step_y) * w01
            + xp.take(flat, base + step_x + step_y) * w11
        )

    def _gather_grads(self, ex, ey, stencil):
        """Per-cell force from standard-layout fields (scipy path)."""
        base, _base_t, w00, w10, w01, w11 = stencil
        nb = self.nb
        # Gradients are float64 at the model boundary regardless of the
        # transform precision (module docstring).
        grad_x = xp.zeros(self.design.n_cells, dtype=xp.float64)
        grad_y = xp.zeros(self.design.n_cells, dtype=xp.float64)
        grad_x[self.movable] = -self._gather(
            ex, base, nb, 1, w00, w10, w01, w11
        )
        grad_y[self.movable] = -self._gather(
            ey, base, nb, 1, w00, w10, w01, w11
        )
        return grad_x, grad_y

    def _empty_result(self) -> DensityResult:
        """Explicit zero-movable-area early-out.

        Without movable area there is no force, no energy, and - by
        convention - no overflow (nothing can be moved to resolve it),
        so the result is exact zeros rather than whatever the
        ``1e-12``-clamped normalisation would produce.
        """
        rho = (
            self._fixed_rho
            if self._fixed_rho is not None
            else xp.zeros((self.nb, self.nb), dtype=xp.float64)
        )
        return DensityResult(
            energy=0.0,
            overflow=0.0,
            grad_x=xp.zeros(self.design.n_cells, dtype=xp.float64),
            grad_y=xp.zeros(self.design.n_cells, dtype=xp.float64),
            density=rho / self.bin_area,
            potential=None,
        )

    def _evaluate_scipy(self, rho, stencil) -> DensityResult:
        """Reference path: scipy DCTs + central-difference field."""
        with PROFILER.stage("density.solve"):
            phi = self._solve_poisson(rho)
        with PROFILER.stage("density.field"):
            # Field = -grad(phi), central differences on the bin grid.
            ex = -xp.gradient(phi, self.hx, axis=0)
            ey = -xp.gradient(phi, self.hy, axis=1)
        with PROFILER.stage("density.gather"):
            grad_x, grad_y = self._gather_grads(ex, ey, stencil)
        energy = 0.5 * float(xp.sum(rho / self.bin_area * phi)) * self.bin_area
        return self._finalize(rho, phi, energy, grad_x, grad_y)

    def _evaluate_planned(self, rho, stencil) -> DensityResult:
        """Fast path: planned rfft DCTs + spectral field + Parseval."""
        base, base_t, w00, w10, w01, w11 = stencil
        nb = self.nb
        with PROFILER.stage("density.solve"):
            # Raw rho in, no source prep: the 1/bin_area scaling and the
            # mean projection are folded into the reciprocal table.
            coeff_t, pot_t, ex_t, ey, phi = self._plan.poisson_field(
                rho, self._inv_denominator_t, want_potential=self.keep_potential
            )
        with PROFILER.stage("density.gather"):
            # Fields are at unit bin pitch; the 1/h scale rides the
            # final per-cell scalar multiply (cells, not grid, sized).
            gx = self._gather(ex_t, base_t, 1, nb, w00, w10, w01, w11)
            gy = self._gather(ey, base, nb, 1, w00, w10, w01, w11)
            gx *= -1.0 / self.hx
            gy *= -1.0 / self.hy
            grad_x = xp.zeros(self.design.n_cells, dtype=xp.float64)
            grad_y = xp.zeros(self.design.n_cells, dtype=xp.float64)
            grad_x[self.movable] = gx
            grad_y[self.movable] = gy
        # Parseval: ortho transforms preserve inner products and the
        # potential has zero mean, so the energy never needs phi
        # (0.5 * sum(rho * phi) == 0.5 * sum(coeff * pot), any layout).
        energy = 0.5 * float(xp.sum(coeff_t * pot_t))
        if phi is not None:
            # reprolint: allow[dtype-flow] potential leaves the model in float64 (boundary contract); fp32 plans upcast exactly here
            phi = phi.astype(xp.float64, copy=False)
        return self._finalize(rho, phi, energy, grad_x, grad_y)

    def _finalize(self, rho, phi, energy, grad_x, grad_y) -> DensityResult:
        capacity = self.target_density * self.bin_area
        overflow = float(xp.maximum(rho - capacity, 0.0).sum())
        overflow /= self.movable_area_total
        return DensityResult(
            energy=energy,
            overflow=overflow,
            grad_x=grad_x,
            grad_y=grad_y,
            density=rho / self.bin_area,
            potential=phi,
        )

    # ------------------------------------------------------------------
    def evaluate(self, x: xp.ndarray, y: xp.ndarray) -> DensityResult:
        """Density energy, overflow and per-cell gradient at (x, y)."""
        if self.movable_area_total <= 0.0:
            return self._empty_result()
        with PROFILER.stage("density.splat"):
            rho, stencil = self._splat(x, y)
        if self.solver == "planned":
            return self._evaluate_planned(rho, stencil)
        return self._evaluate_scipy(rho, stencil)

    @property
    def bin_size(self) -> float:
        return 0.5 * (self.hx + self.hy)
