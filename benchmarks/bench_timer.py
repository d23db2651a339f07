"""Differentiable-timer layer benchmark: level plans vs the reference kernels.

For each design, times the shipped :class:`~repro.core.DifferentiableTimer`
(level plans, corner-indexed LUT lookups) against the pre-plan per-slice
kernels kept in ``tests/timer_reference.py``, on one fixed forest:

- ``fwd_s`` / ``fwd_2bwd_s``: one forward, and one forward plus the two
  backward passes the placer makes per timing iteration (TNS-only and
  TNS+WNS seeds), best of ``--repeats``;
- per stage, from the profiler's spans: forward Elmore / levels /
  endpoints, backward levels / Elmore;
- the golden STA with the forest reused, and one forest build.

It fails unless the planned timer is bit-identical to the reference -
``at``, ``slew``, TNS/WNS and both backward gradients - and the golden
STA is bit-identical with the reference LUT lookup swapped in.  With
``--min-speedup`` it also fails when the forward + 2 backwards speedup on
the gate design - the last of ``--designs``, the one whose levels are big
enough to be bound by array work rather than per-call overhead - falls
below the bound.  Writes ``benchmarks/results/BENCH_timer.json`` and
appends a ``timer`` record to the ``benchmarks/history`` ledger that
``repro.harness trend`` gates.

Usage::

    PYTHONPATH=src python benchmarks/bench_timer.py
        [--designs miniblue4 midiblue50] [--repeats 7] [--min-speedup 1.5]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

from repro.core import DifferentiableTimer
from repro.harness.suite import load_design
from repro.perf import PROFILER
from repro.route import build_forest
from repro.sta import StaticTimingAnalyzer
from repro.sta.nldm import LutBank
from repro.telemetry.history import append_record

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
from tests.timer_reference import (  # noqa: E402
    ReferenceTimer,
    reference_lookup_with_grad,
)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
HISTORY_DIR = os.path.join(os.path.dirname(__file__), "history")

#: Profiler spans reported per stage (mean seconds per call).
STAGES = (
    "difftimer.forward.elmore",
    "difftimer.forward.levels",
    "difftimer.forward.endpoints",
    "difftimer.backward.levels",
    "difftimer.backward.elmore",
)
#: The placer's two backward seeds per timing iteration.
SEEDS = ((-1.0, 0.0), (-0.5, -0.5))


def _best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _fwd_2bwd(timer, x, y, forest):
    tape = timer.forward(x, y, forest)
    return tape, [timer.backward(tape, *seed) for seed in SEEDS]


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@contextmanager
def _reference_lookups():
    """Swap the whole-table gather lookup into every ``LutBank``."""
    shipped = LutBank.lookup_with_grad
    LutBank.lookup_with_grad = reference_lookup_with_grad
    try:
        yield
    finally:
        LutBank.lookup_with_grad = shipped


def _bench_design(name: str, repeats: int, seed: int) -> dict:
    design = load_design(name, cache=True)
    rng = np.random.default_rng(seed)
    x = design.cell_x + rng.normal(0.0, 5.0, design.n_cells)
    y = design.cell_y + rng.normal(0.0, 5.0, design.n_cells)
    x[design.cell_fixed] = design.cell_x[design.cell_fixed]
    y[design.cell_fixed] = design.cell_y[design.cell_fixed]

    t0 = time.perf_counter()
    planned = DifferentiableTimer(design)
    setup_s = time.perf_counter() - t0
    reference = ReferenceTimer(design, planned.graph)
    forest_s = _best(lambda: build_forest(design, x, y), repeats)
    forest = build_forest(design, x, y)

    # Bit identity first (this also warms both paths).
    new_tape, new_grads = _fwd_2bwd(planned, x, y, forest)
    old_tape, old_grads = _fwd_2bwd(reference, x, y, forest)
    identical = {
        "at": _same_bits(new_tape.at, old_tape.at),
        "slew": _same_bits(new_tape.slew, old_tape.slew),
        "tns_wns": (new_tape.tns, new_tape.wns) == (old_tape.tns, old_tape.wns),
        "grad_tns": all(map(_same_bits, new_grads[0], old_grads[0])),
        "grad_tns_wns": all(map(_same_bits, new_grads[1], old_grads[1])),
    }
    sta = StaticTimingAnalyzer(design, planned.graph)
    golden = sta.run(x, y, forest)
    with _reference_lookups():
        golden_ref = sta.run(x, y, forest)
    identical["golden_sta"] = (
        _same_bits(golden.at, golden_ref.at)
        and _same_bits(golden.slew, golden_ref.slew)
        and (golden.wns_setup, golden.tns_setup)
        == (golden_ref.wns_setup, golden_ref.tns_setup)
    )

    fwd_s = _best(lambda: planned.forward(x, y, forest), repeats)
    ref_fwd_s = _best(lambda: reference.forward(x, y, forest), repeats)
    both_s = _best(lambda: _fwd_2bwd(planned, x, y, forest), repeats)
    ref_both_s = _best(lambda: _fwd_2bwd(reference, x, y, forest), repeats)
    sta_s = _best(lambda: sta.run(x, y, forest), repeats)

    PROFILER.reset()
    PROFILER.enable()
    for _ in range(repeats):
        _fwd_2bwd(planned, x, y, forest)
    spans = PROFILER.stats()
    PROFILER.disable()
    PROFILER.reset()

    return {
        "n_pins": int(design.n_pins),
        "graph": planned.graph.describe(),
        "timer_setup_s": setup_s,
        "fwd_s": fwd_s,
        "ref_fwd_s": ref_fwd_s,
        "fwd_speedup": ref_fwd_s / fwd_s,
        "fwd_2bwd_s": both_s,
        "ref_fwd_2bwd_s": ref_both_s,
        "speedup": ref_both_s / both_s,
        "stages_s": {
            stage: spans[stage]["mean_s"] for stage in STAGES if stage in spans
        },
        "golden_sta_s": sta_s,
        "forest_build_s": forest_s,
        "bit_identical": identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--designs",
        nargs="+",
        default=["miniblue4", "midiblue50"],
        help="suite designs; the LAST one is the speedup-gate design",
    )
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail when the gate design's forward + 2 backwards speedup "
        "over the reference kernels is below this",
    )
    parser.add_argument(
        "--history",
        default=HISTORY_DIR,
        help="perf-ledger directory for `trend` (empty string disables)",
    )
    args = parser.parse_args(argv)

    results = {}
    for name in args.designs:
        r = _bench_design(name, args.repeats, args.seed)
        results[name] = r
        stages = "  ".join(
            f"{s.split('.', 1)[1]} {t * 1e3:.1f}" for s, t in r["stages_s"].items()
        )
        print(
            f"{name}: fwd {r['fwd_s'] * 1e3:.1f} ms (ref "
            f"{r['ref_fwd_s'] * 1e3:.1f}), fwd+2bwd "
            f"{r['fwd_2bwd_s'] * 1e3:.1f} ms (ref "
            f"{r['ref_fwd_2bwd_s'] * 1e3:.1f}) -> {r['speedup']:.2f}x; "
            f"golden STA {r['golden_sta_s'] * 1e3:.1f} ms, forest "
            f"{r['forest_build_s'] * 1e3:.1f} ms\n    stages ms: {stages}\n"
            f"    bit-identical: {r['bit_identical']}"
        )

    payload = {
        "repeats": args.repeats,
        "seed": args.seed,
        "baseline": "pre-plan per-slice kernels (tests/timer_reference.py)",
        "designs": results,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out = os.path.join(RESULTS_DIR, "BENCH_timer.json")
    with open(out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out}")

    if args.history:
        metrics = {}
        for name, r in results.items():
            metrics[f"{name}.speedup"] = r["speedup"]
            metrics[f"{name}.fwd_2bwd_s"] = r["fwd_2bwd_s"]
        append_record(
            "timer",
            metrics,
            gates={f"{args.designs[-1]}.speedup": "higher"},
            history_dir=args.history,
        )
        print(f"history: appended timer record under {args.history}")

    failed = [
        f"{name}: {check}"
        for name, r in results.items()
        for check, ok in r["bit_identical"].items()
        if not ok
    ]
    if failed:
        print("FAIL: not bit-identical to the reference: " + ", ".join(failed))
        return 1
    gate = args.designs[-1]
    speedup = results[gate]["speedup"]
    if args.min_speedup is not None and speedup < args.min_speedup:
        print(
            f"FAIL: {gate} forward + 2 backwards speedup {speedup:.2f}x "
            f"below --min-speedup {args.min_speedup:g}"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
