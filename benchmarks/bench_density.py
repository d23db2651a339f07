"""Density-kernel benchmark: the shipped ``DensityModel.evaluate``.

Times one full evaluation (splat -> DCT Poisson solve -> central
difference field -> gather) on fixed designs and grids, reporting per
point the median over ``--repeats`` timed calls and, from a separate
profiled pass, the per-stage ``density.{splat,solve,field,gather}``
breakdown through :data:`repro.perf.PROFILER`.

Fails (non-zero exit) when any point returns a non-finite energy,
overflow or gradient, or when ``density.sum() * bin_area`` misses the
movable plus fixed cell area by more than 1e-9 relative.  Writes
``benchmarks/results/BENCH_density.json`` and appends a
``density_evaluate`` perf-ledger record - ``evaluate_ms`` at the
``--gate-bins`` grid of the gate design (the last ``--designs`` entry),
gated ``lower`` - for ``repro.harness trend``.

Usage::

    PYTHONPATH=src python benchmarks/bench_density.py
        [--designs miniblue18 midiblue50] [--n-bins 64 128 256]
        [--repeats 9] [--gate-bins 128]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import numpy as np

from repro.harness.suite import load_design
from repro.perf import PROFILER
from repro.place.density import DensityModel
from repro.telemetry.history import append_record

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
HISTORY_DIR = os.path.join(os.path.dirname(__file__), "history")


def _time_evaluate(model, x, y, repeats, warmup=2):
    """Median seconds of one ``evaluate`` call."""
    for _ in range(warmup):
        model.evaluate(x, y)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        model.evaluate(x, y)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _stage_breakdown(model, x, y, reps=5):
    """Per-stage mean milliseconds via a profiled pass."""
    was_enabled = PROFILER.enabled
    PROFILER.reset()
    PROFILER.enable()
    try:
        for _ in range(reps):
            model.evaluate(x, y)
        stats = PROFILER.stats()
    finally:
        PROFILER.reset()
        if not was_enabled:
            PROFILER.disable()
    return {
        name: round(entry["mean_s"] * 1e3, 4)
        for name, entry in stats.items()
        if name.startswith("density.")
    }


def _check(design, model, x, y):
    """Finite outputs and conserved area; returns (checks, ok)."""
    res = model.evaluate(x, y)
    finite = bool(
        np.isfinite(res.energy)
        and np.isfinite(res.overflow)
        and np.isfinite(res.grad_x).all()
        and np.isfinite(res.grad_y).all()
    )
    area = float((design.cell_w * design.cell_h).sum())
    area_rel = abs(float(res.density.sum()) * model.bin_area - area) / area
    checks = {"finite": finite, "area_rel": area_rel}
    return checks, finite and area_rel <= 1e-9


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--designs",
        nargs="*",
        default=["miniblue18", "midiblue50"],
        help="suite designs; the LAST one is the gate design",
    )
    parser.add_argument(
        "--n-bins", nargs="*", type=int, default=[64, 128, 256]
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=9,
        help="timed calls per point (median reported)",
    )
    parser.add_argument(
        "--gate-bins",
        type=int,
        default=128,
        help="grid size whose evaluate_ms goes to the perf ledger",
    )
    parser.add_argument(
        "--history",
        default=HISTORY_DIR,
        help="perf-ledger directory for `trend` (empty string disables)",
    )
    args = parser.parse_args(argv)
    if args.gate_bins not in args.n_bins:
        args.n_bins = sorted(set(args.n_bins) | {args.gate_bins})

    gate_design = args.designs[-1]
    points = []
    gate_ms = None
    ok_all = True
    for design_name in args.designs:
        design = load_design(design_name, cache=True)
        # Spread movable cells over the die (seed-stable): generated
        # designs start every movable cell at the exact die center,
        # where the field vanishes by symmetry and the splat degenerates
        # to a single bin - neither resembles a real placer iteration.
        rng = np.random.default_rng(1234)
        xl, yl, xh, yh = design.die
        mov = ~design.cell_fixed
        x = design.cell_x.copy()
        y = design.cell_y.copy()
        x[mov] = xl + rng.random(int(mov.sum())) * (xh - xl)
        y[mov] = yl + rng.random(int(mov.sum())) * (yh - yl)
        for n_bins in args.n_bins:
            model = DensityModel(design, n_bins)
            median_ms = _time_evaluate(model, x, y, args.repeats) * 1e3
            checks, ok = _check(design, model, x, y)
            ok_all = ok_all and ok
            stages = _stage_breakdown(model, x, y)
            points.append(
                {
                    "design": design_name,
                    "n_bins": n_bins,
                    "evaluate_ms": round(median_ms, 4),
                    "stages_ms": stages,
                    "checks": checks,
                    "checks_ok": ok,
                }
            )
            if design_name == gate_design and n_bins == args.gate_bins:
                gate_ms = median_ms
            print(
                f"{design_name} nb={n_bins}: evaluate {median_ms:.2f}ms | "
                + " ".join(
                    f"{name.split('.', 1)[1]} {ms:.2f}"
                    for name, ms in sorted(stages.items())
                )
                + f" | finite {checks['finite']} "
                f"area rel {checks['area_rel']:.1e}"
            )

    payload = {
        "designs": args.designs,
        "n_bins": args.n_bins,
        "repeats": args.repeats,
        "gate_design": gate_design,
        "gate_bins": args.gate_bins,
        "evaluate_ms": round(gate_ms, 4),
        "checks_ok": ok_all,
        "points": points,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out = os.path.join(RESULTS_DIR, "BENCH_density.json")
    with open(out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(
        f"gate point {gate_design} nb={args.gate_bins}: "
        f"evaluate {gate_ms:.2f}ms -> {out}"
    )

    if args.history:
        append_record(
            "density_evaluate",
            {"evaluate_ms": gate_ms},
            gates={"evaluate_ms": "lower"},
            history_dir=args.history,
        )
        print(
            f"history: appended density_evaluate record under {args.history}"
        )

    if not ok_all:
        print(
            "FAIL: non-finite density outputs or area not conserved "
            "(rtol 1e-9); see checks above"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
