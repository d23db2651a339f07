"""Layer tracer for the benchmark's traced runs, loaded from outside.

The benchmark puts this directory first on ``PYTHONPATH`` for its traced
runs, so every Python process of the run - the CLI process, its spawn
workers and multiprocessing helpers - imports this module at start-up.
It does nothing unless ``PERFBENCH_TRACE_DIR`` is set.

When active it wraps the program's public layer functions by module
attribute, in the namespace their caller looks them up in, as soon as
that module has been imported.  Each wrapper counts calls and measures
inclusive and self time (inclusive minus the time of wrapped calls made
inside it).  Module imports are timed as the ``import`` layer by hooking
the import system's load step, which runs only for modules not yet in
``sys.modules``.  At exit the process writes ``<dir>/<pid>.json``.

Nothing here changes the program's results: wrappers call through with
the same arguments and return the same value.
"""

import atexit
import functools
import os
import sys
import threading
import time

_TRACE_DIR = os.environ.get("PERFBENCH_TRACE_DIR")

#: layer name -> ["module:qualname", ...] in the namespace the caller uses.
LAYERS = {
    "analysis.provenance": ["repro.analysis.provenance:analysis_provenance"],
    "netlist.generate": [
        "repro.harness.suite:generate_design",
        "repro.netlist.cache:generate_design",
    ],
    "netlist.cache.load_bundle": [
        "repro.netlist.cache:load_bundle",
        "repro.harness.supervisor:load_bundle",
    ],
    "sta.graph.build": ["repro.sta.graph:TimingGraph.__init__"],
    "telemetry.start_run": ["repro.harness.runners:start_run"],
    "telemetry.finalize": ["repro.telemetry.session:RunSession.finalize"],
    "place.placer.run": ["repro.place.placer:GlobalPlacer.run"],
    "place.wirelength.evaluate": [
        "repro.place.wirelength:WAWirelength.evaluate"
    ],
    "place.density.evaluate": ["repro.place.density:DensityModel.evaluate"],
    "core.difftimer.forward": [
        "repro.core.difftimer:DifferentiableTimer.forward"
    ],
    "core.difftimer.backward": [
        "repro.core.difftimer:DifferentiableTimer.backward"
    ],
    "core.cell_prop.forward_level": ["repro.core.difftimer:cell_forward_level"],
    "core.cell_prop.backward_level": [
        "repro.core.difftimer:cell_backward_level"
    ],
    "core.net_prop.forward_level": ["repro.core.difftimer:net_forward_level"],
    "core.net_prop.backward_level": ["repro.core.difftimer:net_backward_level"],
    "sta.elmore.forward": [
        "repro.core.difftimer:elmore_forward",
        "repro.sta.analysis:elmore_forward",
    ],
    "core.elmore_grad.backward": ["repro.core.difftimer:elmore_backward"],
    "route.build_forest": [
        "repro.core.difftimer:build_forest",
        "repro.sta.analysis:build_forest",
        "repro.core.objective:build_forest",
        "repro.core.objective:build_forest_from_pins",
    ],
    "sta.run": ["repro.sta.analysis:StaticTimingAnalyzer.run"],
    "harness.run_tasks": ["repro.harness.parallel:run_tasks"],
}

#: Layers counted but not timed: called too often for two clock reads.
COUNT_ONLY = {"core.backend.get_backend": ["repro.core.backend:get_backend"]}

_MAIN_THREAD = threading.get_ident()
_T0 = time.monotonic()
#: layer -> [calls, self_s, inclusive_s]
_STATS = {}
#: Per open wrapped call, the inclusive time of the wrapped calls inside it.
_STACK = []
_CACHE_HITS = [0]
_PENDING = {}
#: Targets whose module loaded without the attribute (a stale table).
_MISSING = []
_WRAPPED = "__perfbench_layer__"


def _stats(layer):
    return _STATS.setdefault(layer, [0, 0.0, 0.0])


def _timed(layer, fn, on_result=None):
    stats = _stats(layer)
    clock = time.perf_counter
    ident = threading.get_ident

    def wrapper(*args, **kwargs):
        if ident() != _MAIN_THREAD:
            return fn(*args, **kwargs)
        _STACK.append(0.0)
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = clock() - t0
            inner = _STACK.pop()
            stats[0] += 1
            stats[1] += dt - inner
            stats[2] += dt
            if _STACK:
                _STACK[-1] += dt
        if on_result is not None:
            on_result(result)
        return result

    return wrapper


def _counted(layer, fn):
    stats = _stats(layer)

    def wrapper(*args, **kwargs):
        stats[0] += 1
        return fn(*args, **kwargs)

    return wrapper


def _count_cache_hit(result):
    _CACHE_HITS[0] += bool(result[1].hit)


def _wrap(layer, fn, count_only):
    if getattr(fn, _WRAPPED, None) is not None:
        return fn  # already wrapped where it was defined
    if count_only:
        wrapper = _counted(layer, fn)
    else:
        hook = _count_cache_hit if layer == "netlist.cache.load_bundle" else None
        wrapper = _timed(layer, fn, hook)
    functools.update_wrapper(wrapper, fn)
    setattr(wrapper, _WRAPPED, layer)
    return wrapper


def _patch(module_name):
    """Wrap every pending target that lives in ``module_name``."""
    module = sys.modules.get(module_name)
    if module is None:
        return
    for layer, qualname, count_only in _PENDING.pop(module_name):
        owner = module
        *path, attr = qualname.split(".")
        try:
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
        except AttributeError:
            _MISSING.append(f"{module_name}:{qualname}")
            continue
        setattr(owner, attr, _wrap(layer, fn, count_only))


def _install_import_hook():
    import _frozen_importlib as bootstrap

    original = bootstrap._find_and_load
    stats = _stats("import")
    clock = time.perf_counter
    ident = threading.get_ident

    def _find_and_load(name, *args):
        if ident() != _MAIN_THREAD:
            module = original(name, *args)
        else:
            _STACK.append(0.0)
            t0 = clock()
            try:
                module = original(name, *args)
            finally:
                dt = clock() - t0
                inner = _STACK.pop()
                stats[0] += 1
                stats[1] += dt - inner
                stats[2] += dt
                if _STACK:
                    _STACK[-1] += dt
        if name in _PENDING:
            _patch(name)
        return module

    bootstrap._find_and_load = _find_and_load


def _role():
    if "--multiprocessing-fork" in getattr(sys, "orig_argv", sys.argv):
        return "worker"
    return "process"


def _dump():
    import json

    record = {
        "pid": os.getpid(),
        "ppid": os.getppid(),
        "role": _role(),
        "lifetime_s": time.monotonic() - _T0,
        "cache_hits": _CACHE_HITS[0],
        "layers": _STATS,
        "missing": _MISSING,
    }
    path = os.path.join(_TRACE_DIR, f"{os.getpid()}.json")
    with open(path + ".tmp", "w") as handle:
        json.dump(record, handle)
    os.replace(path + ".tmp", path)


if _TRACE_DIR:
    for _table, _count_only in ((LAYERS, False), (COUNT_ONLY, True)):
        for _layer, _targets in _table.items():
            _stats(_layer)
            for _target in _targets:
                _module, _qualname = _target.split(":")
                _PENDING.setdefault(_module, []).append(
                    (_layer, _qualname, _count_only)
                )
    _install_import_hook()
    atexit.register(_dump)
