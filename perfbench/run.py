#!/usr/bin/env python3
"""End-to-end placement benchmark, timed from outside the program.

Launches the real CLI (``python -m repro.harness run|suite ...``) as a
child process and times it from launch to exit.  Phase boundaries come
from the ``run_start``/``run_end`` events the program writes to each
task's ``events.jsonl``; final quality metrics come from its manifests.

Usage (from the repository root)::

    python3 perfbench/run.py --workload run-miniblue4-ours --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload once untraced and twice with ``perfbench/tracehook`` first on
``PYTHONPATH``, which wraps every layer's public functions in every
Python process of the run, and reports per-layer counts and self times.
``--workload all`` runs every workload in turn.

Every run is checked: each task exits 0, writes its manifest and is not
quarantined; final metrics and the exact counts listed in
``EXACT_COUNTS`` repeat exactly across the runs of one seed.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import ctypes
import glob
import hashlib
import importlib.util
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import List, NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HOOK_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracehook")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")

SUITE_DESIGNS = ["miniblue1", "miniblue4", "miniblue7", "miniblue18"]
SUITE_MODES = ["dreamplace", "netweight"]
JOBS = max(1, min(2, os.cpu_count() or 1))

class Workload(NamedTuple):
    cli: List[str]
    seed_flag: str
    #: Designs primed into the bundle cache before timing.
    prime: List[str]
    tasks: int
    #: Full untraced runs per ``--trace 0`` invocation, chosen to keep an
    #: invocation under ~45 s on 2 cores: the 15-20 s miniblue4 run gets
    #: two, the 20-37 s others one.
    repeats: int


#: Why each workload was chosen, and which layers it stresses: README.md.
WORKLOADS = {
    "run-miniblue4-ours": Workload(
        ["run", "--design", "miniblue4", "--mode", "ours",
         "--max-iters", "600", "--run-id", "task"],
        "--seed", [], 1, 2,
    ),
    "run-midiblue50-ours": Workload(
        ["run", "--design", "midiblue50", "--mode", "ours",
         "--max-iters", "120", "--run-id", "task"],
        "--seed", [], 1, 1,
    ),
    "suite-miniblue-baselines": Workload(
        ["suite", "--designs", *SUITE_DESIGNS, "--modes", *SUITE_MODES,
         "--jobs", str(JOBS)],
        "--seeds", SUITE_DESIGNS, len(SUITE_DESIGNS) * len(SUITE_MODES), 1,
    ),
}

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "place_s": "s",
    "peak_rss_mb": "MB",
    "hpwl": "um",
    "tns_ps": "ps",
    "wns_ps": "ps",
}


def _load_tracehook():
    """The tracer's layer tables, loaded without activating it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracehook", os.path.join(HOOK_DIR, "sitecustomize.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACEHOOK = _load_tracehook()
#: Layers reported as ``<layer>.calls`` and ``<layer>.busy_s``.
TIMED_LAYERS = ["import", *_TRACEHOOK.LAYERS]
#: Layers reported as ``<layer>.calls`` only.
COUNTED_LAYERS = list(_TRACEHOOK.COUNT_ONLY)

#: Per-layer metrics other than the layer counters: name -> unit.
RUN_LEVEL = {
    "signoff_s": "s",
    "place.iterations": "count",
    "netlist.cache.hit_ratio": "ratio",
    "harness.task.setup_s": "s",
    "harness.task.solve_s": "s",
    "harness.task.attempts": "count",
    "harness.worker_idle_s": "s",
    "traced_wall_s": "s",
    "attributed_share": "ratio",
    "unattributed_s": "s",
    "trace_overhead_s": "s",
}

#: Counts that must repeat exactly between traced runs of one seed.
EXACT_COUNTS = [
    "place.iterations",
    "core.difftimer.forward.calls",
    "core.difftimer.backward.calls",
    "route.build_forest.calls",
    "sta.graph.build.calls",
    "sta.run.calls",
    "core.backend.get_backend.calls",
]

#: The program's own span-tree counts, compared across every run of a seed
#: (traced or not): span name -> exact-count name.
SPAN_COUNTS = {
    "difftimer.forward.levels": "core.difftimer.forward.calls",
    "difftimer.backward.levels": "core.difftimer.backward.calls",
    "route.build_forest": "route.build_forest.calls",
}

#: Traced runs per ``--trace 1`` invocation: two, so exact counts can be
#: compared between them.
TRACED_REPEATS = 2
#: ``setup_s`` samples per ``--trace 0`` invocation: each full run gives
#: one, probes stopped at the first ``run_start`` make up the rest.
SETUP_SAMPLES = 2
GROUP_EXIT_TIMEOUT_S = 30.0
RUN_TIMEOUT_S = 170.0


class BenchError(Exception):
    """The benchmark cannot run the program at all (no result printed)."""


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def _become_subreaper():
    """Adopt orphaned grandchildren (e.g. multiprocessing helpers) so
    they can be reaped here; Linux only, harmless elsewhere."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _reap_group(pgid):
    """Wait until no process of group ``pgid`` is left; past the grace
    period, kill what remains."""
    deadline = time.monotonic() + GROUP_EXIT_TIMEOUT_S
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            pass
        late = time.monotonic() - deadline
        if late > GROUP_EXIT_TIMEOUT_S:
            raise BenchError(f"process group {pgid} did not exit")
        try:
            os.killpg(pgid, signal.SIGKILL if late > 0 else 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.01)


def _launch(argv, env, log_path):
    with open(log_path, "w") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.harness", *argv],
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
    return proc, t0


def _wait(proc, until=None):
    """Reap ``proc`` with ``wait4``, then every process left in its group.

    The group is killed once ``until()`` turns true or after
    ``RUN_TIMEOUT_S``.  Returns (exit code, monotonic exit time, peak RSS
    in MB of the process and every child it reaped).
    """
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline or (until is not None and until()):
                os.killpg(proc.pid, signal.SIGKILL)
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.005)
    except BaseException:
        # Interrupted or terminated: leave no process of the run behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
        _reap_group(proc.pid)
        raise
    t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _reap_group(proc.pid)
    return proc.returncode, t_exit, usage.ru_maxrss / 1024.0


def _first_run_start(tel):
    """Earliest ``run_start`` monotonic stamp under ``tel``, or None."""
    stamps = [
        ev["ts_mono"]
        for path in glob.glob(os.path.join(tel, "*", "events.jsonl"))
        for ev in _read_events(path)
        if ev.get("kind") == "run_start"
    ]
    return min(stamps) if stamps else None


def _read_events(path):
    events = []
    try:
        with open(path) as handle:
            for line in handle:
                try:
                    events.append(json.loads(line))
                except json.JSONDecodeError:
                    break  # torn trailing record of a killed probe
    except FileNotFoundError:
        pass
    return events


def _log_tail(path, lines=15):
    try:
        with open(path) as handle:
            return "".join(handle.readlines()[-lines:])
    except OSError:
        return ""


# ----------------------------------------------------------------------
# One invocation's hermetic environment
# ----------------------------------------------------------------------
class Bench:
    def __init__(self, workload, seed, tmp):
        self.workload = WORKLOADS[workload]
        self.argv = [*self.workload.cli, self.workload.seed_flag, str(seed)]
        self.tmp = tmp
        self.cache_dir = os.path.join(tmp, "design_cache")
        self.counter = 0
        os.makedirs(os.path.join(tmp, "tmp"), exist_ok=True)
        env = {
            k: v
            for k, v in os.environ.items()
            if not k.startswith(("REPRO_", "PERFBENCH_")) and k != "PYTHONPATH"
        }
        env.update(
            PYTHONPATH=SRC,
            TMPDIR=os.path.join(tmp, "tmp"),
            REPRO_DESIGN_CACHE=self.cache_dir,
        )
        self.env = env

    def _dir(self, kind):
        self.counter += 1
        path = os.path.join(self.tmp, f"{kind}{self.counter}")
        os.makedirs(path)
        return path

    def prepare(self):
        """Untimed: byte-compile the sources and prime the design cache."""
        res = subprocess.run(
            [sys.executable, "-m", "compileall", "-q", SRC],
            env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=RUN_TIMEOUT_S,
        )
        if res.returncode != 0:
            raise BenchError(f"compileall failed: {res.stderr.strip()}")
        if self.workload.prime:
            self._prime_cache()

    def _prime_cache(self):
        code = (
            "import sys\n"
            "from repro.harness.suite import design_spec\n"
            "from repro.netlist.cache import ensure_cached\n"
            "for name in sys.argv[2:]:\n"
            "    ensure_cached(design_spec(name), sys.argv[1])\n"
        )
        res = subprocess.run(
            [sys.executable, "-c", code, self.cache_dir, *self.workload.prime],
            env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=RUN_TIMEOUT_S,
        )
        if res.returncode != 0:
            raise BenchError(f"cache priming failed: {res.stderr.strip()}")

    def probe_setup(self):
        """Launch the workload, stop it at its first ``run_start`` event;
        returns launch-to-run_start seconds."""
        tel = self._dir("probe")
        proc, t0 = _launch(
            [*self.argv, "--telemetry", tel], self.env, tel + ".log"
        )
        _wait(proc, until=lambda: _first_run_start(tel) is not None)
        start = _first_run_start(tel)
        if start is None:
            raise BenchError(
                "setup probe saw no run_start event:\n" + _log_tail(tel + ".log")
            )
        return start - t0

    def run_once(self, traced):
        """One full launch-to-exit run; returns its measurements."""
        tel = self._dir("traced" if traced else "run")
        env = dict(self.env)
        trace_dir = None
        if traced:
            trace_dir = tel + ".trace"
            os.makedirs(trace_dir)
            env["PYTHONPATH"] = HOOK_DIR + os.pathsep + SRC
            env["PERFBENCH_TRACE_DIR"] = trace_dir
        proc, t0 = _launch([*self.argv, "--telemetry", tel], env, tel + ".log")
        rc, t_exit, rss_mb = _wait(proc)
        run = {
            "rc": rc,
            "wall_s": t_exit - t0,
            "peak_rss_mb": rss_mb,
            "log": tel + ".log",
        }
        run["tasks"], run["failed"] = _collect_tasks(tel, self.workload.tasks)
        ok = [t for t in run["tasks"].values() if t["ok"]]
        if rc != 0 and not run["failed"]:
            run["failed"] = self.workload.tasks  # the exit code says so
        if ok:
            starts = [t["start"] for t in ok]
            ends = [t["end"] for t in ok]
            run["setup_s"] = min(starts) - t0
            run["place_s"] = sum(t["end"] - t["start"] for t in ok)
            run["signoff_s"] = t_exit - max(ends)
            run["hpwl"] = sum(t["final"]["hpwl"] for t in ok)
            run["tns_ps"] = sum(t["final"]["tns"] for t in ok)
            run["wns_ps"] = min(t["final"]["wns"] for t in ok)
        run["suite"] = _load_json(os.path.join(tel, "suite_manifest.json"))
        if traced:
            run["trace"] = _merge_trace(trace_dir, proc.pid, run)
        return run


def _load_json(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None


def _span_counts(tree):
    counts = {}

    def walk(node):
        name = SPAN_COUNTS.get(node.get("name"))
        if name is not None:
            counts[name] = counts.get(name, 0) + int(node.get("calls", 0))
        for child in node.get("children", ()):
            walk(child)

    if tree:
        walk(tree)
    return counts


def _collect_tasks(tel, n_tasks):
    """Per task run directory: phase boundaries, final metrics, counts."""
    tasks = {}
    failed = 0
    for manifest_path in sorted(glob.glob(os.path.join(tel, "*", "manifest.json"))):
        run_dir = os.path.dirname(manifest_path)
        manifest = _load_json(manifest_path) or {}
        final = manifest.get("final_metrics") or {}
        events = _read_events(os.path.join(run_dir, "events.jsonl"))
        starts = [e["ts_mono"] for e in events if e.get("kind") == "run_start"]
        ends = [e for e in events if e.get("kind") == "run_end"]
        stop = str(final.get("stop_reason", ""))
        ok = (
            bool(starts) and bool(ends)
            and all(
                isinstance(final.get(k), (int, float))
                and math.isfinite(final[k])
                for k in ("hpwl", "tns", "wns", "iterations")
            )
            and not stop.startswith(("quarantined", "exception"))
            and manifest.get("supervision") is None
        )
        failed += not ok
        tasks[os.path.basename(run_dir)] = {
            "ok": ok,
            "start": starts[0] if starts else None,
            "end": ends[-1]["ts_mono"] if ends else None,
            "final": final,
            "outcome": tuple(
                final.get(k)
                for k in ("hpwl", "tns", "wns", "iterations", "stop_reason")
            ),
            "counts": _span_counts(manifest.get("span_tree")),
        }
    failed += max(0, n_tasks - len(tasks))
    return tasks, failed


def _merge_trace(trace_dir, root_pid, run):
    """Sum every process's layer counters; self times across processes."""
    layers = {name: [0, 0.0] for name in TIMED_LAYERS + COUNTED_LAYERS}
    root_self = 0.0
    worker_idle = 0.0
    hits = 0
    missing = set()
    seen_root = False
    for path in glob.glob(os.path.join(trace_dir, "*.json")):
        record = _load_json(path)
        if record is None:
            continue
        self_sum = 0.0
        for name, (calls, self_s, _incl) in record["layers"].items():
            slot = layers.setdefault(name, [0, 0.0])
            slot[0] += calls
            slot[1] += self_s
            self_sum += self_s
        hits += record["cache_hits"]
        missing.update(record["missing"])
        if record["pid"] == root_pid:
            seen_root = True
            root_self = self_sum
        elif record["role"] == "worker":
            worker_idle += record["lifetime_s"] - self_sum
    if not seen_root:
        raise BenchError("traced run wrote no trace for its root process")
    if missing:
        print(f"trace: targets not found: {sorted(missing)}", file=sys.stderr)
    metrics = {}
    for name, (calls, busy) in layers.items():
        metrics[f"{name}.calls"] = calls
        if name not in COUNTED_LAYERS:
            metrics[f"{name}.busy_s"] = busy
    loads = layers["netlist.cache.load_bundle"][0]
    metrics["netlist.cache.hit_ratio"] = hits / loads if loads else 0.0
    metrics["harness.worker_idle_s"] = worker_idle
    metrics["unattributed_s"] = run["wall_s"] - root_self
    metrics["attributed_share"] = root_self / run["wall_s"]
    metrics["traced_wall_s"] = run["wall_s"]
    return metrics


def _task_metrics(run):
    """Per-task harness metrics from the program's own records."""
    suite = run["suite"]
    tasks = run["tasks"].values()
    if suite:
        records = suite.get("runs", [])
        return {
            "harness.task.setup_s": sum(r.get("setup_s") or 0.0 for r in records),
            "harness.task.solve_s": sum(r.get("runtime") or 0.0 for r in records),
            "harness.task.attempts": sum(r.get("attempts", 1) for r in records),
        }
    return {
        "harness.task.setup_s": 0.0,
        "harness.task.solve_s": sum(t["final"].get("runtime", 0.0) for t in tasks),
        "harness.task.attempts": len(tasks),
    }


# ----------------------------------------------------------------------
# Checks and reporting
# ----------------------------------------------------------------------
def _exact_counts(run):
    counts = {"place.iterations": sum(
        int(t["final"].get("iterations", 0)) for t in run["tasks"].values()
    )}
    if "trace" in run:
        counts.update({k: run["trace"][k] for k in EXACT_COUNTS if k in run["trace"]})
    return counts


def check_runs(runs):
    """Problems across the runs of one seed (empty list = all agree)."""
    problems = []
    first = runs[0]
    for run in runs[1:]:
        for task, info in first["tasks"].items():
            other = run["tasks"].get(task)
            if other is None:
                continue  # counted as failed already
            if other["outcome"] != info["outcome"]:
                problems.append(
                    f"{task}: final metrics differ {info['outcome']} vs "
                    f"{other['outcome']}"
                )
            if other["counts"] != info["counts"]:
                problems.append(
                    f"{task}: span counts differ {info['counts']} vs "
                    f"{other['counts']}"
                )
    traced = [r for r in runs if "trace" in r]
    for run in traced[1:]:
        a, b = _exact_counts(traced[0]), _exact_counts(run)
        for key in EXACT_COUNTS:
            if a.get(key) != b.get(key):
                problems.append(f"{key} drifted: {a.get(key)} vs {b.get(key)}")
    for run in traced:
        # The wrapper's counts must agree with the program's own spans.
        spans = {}
        for info in run["tasks"].values():
            for key, value in info["counts"].items():
                spans[key] = spans.get(key, 0) + value
        for key, value in spans.items():
            if run["trace"][key] != value:
                problems.append(
                    f"{key}: traced {run['trace'][key]} vs program spans {value}"
                )
    return problems


def _git_rev():
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _src_digest():
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def environment(seed):
    versions = {}
    for module in ("numpy", "scipy"):
        try:
            versions[module] = __import__(module).__version__
        except ImportError:
            versions[module] = None
    return {
        "nproc": os.cpu_count(),
        "jobs": JOBS,
        "python": sys.version.split()[0],
        **versions,
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


def _print_table(title, rows):
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:36s} {value:>16.6g} {unit:6s} {note}")


def run_workload(name, seed, seconds, trace):
    """Measure one workload; returns (metrics, attempted, failed, problems)."""
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH)
    try:
        bench = Bench(name, seed, tmp)
        bench.prepare()
        repeats = 1 if trace else bench.workload.repeats
        probes = 0 if trace else max(0, SETUP_SAMPLES - repeats)
        setups = [bench.probe_setup() for _ in range(probes)]
        untraced = []
        started = time.monotonic()
        while len(untraced) < repeats or time.monotonic() - started < seconds:
            untraced.append(bench.run_once(traced=False))
        traced = [
            bench.run_once(traced=True)
            for _ in range(TRACED_REPEATS if trace else 0)
        ]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    runs = untraced + traced
    attempted = bench.workload.tasks * len(runs)
    failed = sum(r["failed"] for r in runs)
    if failed == attempted:
        raise BenchError(
            f"every task of {name} failed:\n" + _log_tail(runs[0]["log"])
        )
    problems = check_runs(runs)
    for run in runs:
        if run["failed"]:
            problems.append(
                f"{run['failed']} task(s) failed (exit {run['rc']}):\n"
                + _log_tail(run["log"])
            )

    phases = {}
    for metric in [*END_TO_END, "signoff_s"]:
        values = [r[metric] for r in untraced if metric in r]
        if metric == "setup_s":
            values = setups + values
        if not values:
            raise BenchError(f"no untraced run of {name} completed a task")
        phases[metric] = (statistics.median(values), len(values))
    units = {**END_TO_END, **RUN_LEVEL}
    _print_table(
        f"{name} seed={seed}: end-to-end, median over n untraced samples "
        "(signoff_s is reported per layer)",
        [(m, v, units[m], f"n={n}") for m, (v, n) in phases.items()],
    )
    if not trace:
        e2e = {m: (phases[m][0], END_TO_END[m]) for m in END_TO_END}
        return e2e, attempted, failed, problems

    traces = [r for r in traced if not r["failed"]]
    if not traces:
        raise BenchError(f"no traced run of {name} completed:\n"
                         + _log_tail(traced[0]["log"]))
    layer = {"signoff_s": phases["signoff_s"][0]}
    for key, first in traces[0]["trace"].items():
        # Counts repeat exactly (checked above); times vary run to run.
        layer[key] = first if key.endswith(".calls") else statistics.median(
            [r["trace"][key] for r in traces]
        )
    layer.update(_task_metrics(traces[0]))
    layer["place.iterations"] = _exact_counts(traces[0])["place.iterations"]
    layer["trace_overhead_s"] = layer["traced_wall_s"] - phases["wall_s"][0]
    out = {}
    for key in sorted(layer):
        unit = units.get(key, "count" if key.endswith(".calls") else "s")
        out[key] = (layer[key], unit)
    _print_table(
        f"{name} seed={seed}: per layer (self time summed over processes), "
        f"median over {len(traces)} traced runs",
        [(k, v, u, "") for k, (v, u) in out.items()],
    )
    return out, attempted, failed, problems


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "harness", "__main__.py")):
        print(f"no program to benchmark: {SRC}/repro is missing", file=sys.stderr)
        return 2
    _become_subreaper()
    signal.signal(signal.SIGTERM, _terminate)
    os.makedirs(SCRATCH, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment(args.seed)
    print("environment: " + json.dumps(env, sort_keys=True))

    metrics, attempted, failed, problems = {}, 0, 0, []
    try:
        for name in names:
            values, n_att, n_fail, found = run_workload(
                name, args.seed, args.seconds, bool(args.trace)
            )
            prefix = f"{name}/" if len(names) > 1 else ""
            for key, (value, unit) in values.items():
                metrics[prefix + key] = {"value": value, "unit": unit}
            attempted += n_att
            failed += n_fail
            problems += [f"{name}: {p}" for p in found]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
