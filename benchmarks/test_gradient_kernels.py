"""Kernel throughput benchmarks for the placer's non-timing terms.

The differentiable timer's stages (forest build, Elmore forward and
backward, levelised propagation, golden STA) are timed - and checked bit
for bit against the reference kernels - by ``benchmarks/bench_timer.py``.
These micro benchmarks cover the two other gradient terms of every
iteration on the same mid-size design: WA wirelength and density.
"""

from repro.place import DensityModel, WAWirelength


def test_bench_wirelength_gradient(benchmark, kernel_design):
    design, x, y = kernel_design
    wa = WAWirelength(design)
    wl, gx, gy = benchmark(wa.evaluate, x, y, 2.0)
    assert wl > 0


def test_bench_density_evaluation(benchmark, kernel_design):
    design, x, y = kernel_design
    model = DensityModel(design, n_bins=32)
    result = benchmark(model.evaluate, x, y)
    assert result.overflow >= 0
