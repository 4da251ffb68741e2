"""Repository benchmark: cold studies and daily updates, end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload study_exact_serial --seed 1 \\
        --seconds 30 --trace 0

One process drives a closed loop: it sets the workload up at least three
times and for at least two seconds (``setup_s`` is the median), then
repeats the workload's operation until ``--seconds`` have passed,
checking every output.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced operations
with traced ones and reports the per-layer metrics instead.  The last
line of standard output is the result as one JSON object; the line
before it holds the host, the checks that ran and the sample counts.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from multiprocessing import resource_tracker
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: name → (unit, better); the names and order of BENCHMARK.json.  The
#: latency and CPU metrics are 95th percentiles: on a 2-vCPU VM whose
#: speed swings by up to 1.5x over tens of seconds, a run's median moves
#: with the share of the run spent in the fast state, its tail does not.
END_TO_END = {
    "op_p95_s": ("s", "lower"),
    "cpu_p95_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

_LAYER_TIMES = (
    "synth.generate", "synth.extend", "indicators.technical",
    "core.scenarios", "core.fra", "core.shap_rank", "core.horizons",
    "core.improvement", "ml.tree_fit", "ml.forest_fit", "ml.gb_fit",
    "ml.bin", "ml.compile", "ml.predict", "ml.pfi", "ml.shap", "ml.cv",
    "cache.get", "cache.put", "cache.digest", "parallel.map",
    "incremental.pipeline", "unattributed",
)
PER_LAYER = {
    **{f"{name}_s": ("s", "lower") for name in _LAYER_TIMES},
    "setup.synth.generate_s": ("s", "lower"),
    "setup.indicators.technical_s": ("s", "lower"),
    "core.fra_iterations": ("count", "lower"),
    "ml.tree_fits": ("count", "lower"),
    "ml.tree_nodes": ("count", "lower"),
    "ml.predict_rows": ("count", "lower"),
    "ml.cv_fits": ("count", "lower"),
    "cache.gets": ("count", "lower"),
    "cache.puts": ("count", "lower"),
    "cache.hit_ratio": ("frac", "higher"),
    "cache.read_mb": ("MB", "lower"),
    "cache.write_mb": ("MB", "lower"),
    "parallel.pool_start_s": ("s", "lower"),
    "parallel.queue_wait_s": ("s", "lower"),
    "parallel.tail_s": ("s", "lower"),
    "parallel.worker_busy_frac": ("frac", "higher"),
    "parallel.bytes_shipped": ("bytes", "lower"),
    "parallel.shm_bytes": ("bytes", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}

#: Set-up repeats: at least this many, and until this many seconds pass.
SETUPS = (3, 2.0)
#: Fewest operations per run, untraced and traced (half of them traced).
MIN_OPS = {False: 3, True: 4}
#: Counts summed from the program's own metrics registry, per operation.
_COUNTERS = ("fra.iterations", "cache.hits", "cache.misses",
             "cache.bytes_read", "cache.bytes_written",
             "parallel.bytes_shipped", "parallel.shm_bytes")


def _import_program():
    """Put the checkout's ``src`` first on the path and import from it."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {ROOT / 'src'}")


@contextmanager
def _environment(jobs: int):
    """Clear every inherited ``REPRO_*`` variable and pin ``REPRO_JOBS``
    (so any ``n_jobs=None`` in the program resolves to the workload's
    worker count); the previous environment comes back afterwards."""
    saved = dict(os.environ)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_JOBS"] = str(jobs)
    try:
        yield {"REPRO_JOBS": str(jobs)}
    finally:
        os.environ.clear()
        os.environ.update(saved)


def _cpu_seconds() -> float:
    """CPU seconds of this process plus every reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """This process's peak RSS plus the largest reaped child's (Linux
    reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _reap_workers(timeout: float = 60.0) -> None:
    """Wait until every worker process has exited and been reaped, so
    its CPU time and peak RSS show in ``RUSAGE_CHILDREN``."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("worker processes did not exit")
        time.sleep(0.005)


def _stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker if the run started one."""
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def _p95(values) -> float:
    """95th percentile, interpolated between order statistics (numpy's
    default), so one slow operation among a study run's 6 to 19 does not
    set it alone."""
    return statistics.quantiles(values, n=20, method="inclusive")[18]


class _LayerTotals:
    """Per-layer sums over the traced operations."""

    def __init__(self):
        self.sums = defaultdict(float)
        self.ops = 0

    def add(self, spans, counters) -> None:
        from perfbench.layers import fanout_stats, layer_seconds

        self.ops += 1
        for layer, seconds in layer_seconds(spans).items():
            self.sums[f"{layer}_s"] += seconds
        for key, value in fanout_stats(spans).items():
            self.sums[f"parallel.{key}"] += value
        for s in spans:
            if "pid" not in s.attrs:
                continue
            if s.name == "ml.tree_fit":
                self.sums["ml.tree_fits"] += 1
                self.sums["ml.tree_nodes"] += s.attrs["nodes"]
            elif s.name == "ml.predict":
                self.sums["ml.predict_rows"] += s.attrs["rows"]
            elif s.name == "ml.cv":
                self.sums["ml.cv_fits"] += s.attrs["fits"]
            elif s.name == "cache.get":
                self.sums["cache.gets"] += 1
            elif s.name == "cache.put":
                self.sums["cache.puts"] += 1
        for name in _COUNTERS:
            self.sums[name] += counters.get(name, 0)

    def metrics(self, setup_layers: list[dict], overhead: float) -> dict:
        n = max(self.ops, 1)
        per_op = {key: value / n for key, value in self.sums.items()}
        out = {name: per_op.get(name, 0.0) for name in PER_LAYER}
        lookups = self.sums["cache.hits"] + self.sums["cache.misses"]
        capacity = self.sums["parallel.capacity"]
        out.update({
            "core.fra_iterations": per_op.get("fra.iterations", 0.0),
            "cache.hit_ratio": (self.sums["cache.hits"] / lookups
                                if lookups else 0.0),
            "cache.read_mb": per_op.get("cache.bytes_read", 0.0) / 1e6,
            "cache.write_mb": per_op.get("cache.bytes_written", 0.0) / 1e6,
            "parallel.worker_busy_frac": (self.sums["parallel.busy"]
                                          / capacity if capacity else 0.0),
            "trace.overhead_frac": overhead,
        })
        for layer in ("synth.generate", "indicators.technical"):
            out[f"setup.{layer}_s"] = statistics.fmean(
                d.get(layer, 0.0) for d in setup_layers)
        return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: str = "bench", setups: tuple = SETUPS) -> tuple[dict, dict]:
    """Set up and measure one workload; returns ``(result, detail)``.

    ``size="tiny"`` shrinks the study grid for smoke tests.
    """
    from repro.obs import Tracer, span, use_tracer

    from perfbench.layers import ROOT_SPAN, LayerPatches, layer_seconds
    from perfbench.workloads import (
        host_info,
        load_reference,
        make_workload,
        workload_jobs,
    )

    nproc = len(os.sched_getaffinity(0))
    jobs = workload_jobs(workload, nproc)
    host = host_info(nproc)
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)

    def traced_call(fn):
        """``fn(tracer)`` under the layer wrappers; returns its result
        and the spans it produced."""
        tracer = Tracer()
        with LayerPatches(), use_tracer(tracer), span(ROOT_SPAN):
            out = fn(tracer)
        return out, tracer.spans

    try:
        with _environment(jobs) as env_set:
            reference = (load_reference(workload, seed, host)
                         if size == "bench" else None)
            wl = make_workload(workload, seed, size, workdir, jobs,
                               reference)
            setup_times, setup_layers, setup_problems = [], [], []
            setup_until = time.perf_counter() + setups[1]
            while len(setup_times) + len(setup_layers) < setups[0] or (
                    time.perf_counter() < setup_until):
                if trace:
                    problems, spans = traced_call(wl.setup)
                    setup_layers.append(layer_seconds(spans))
                else:
                    started = time.perf_counter()
                    problems = wl.setup()
                    setup_times.append(time.perf_counter() - started)
                setup_problems += problems
                _reap_workers()

            walls = {False: [], True: []}
            cpus, failures, checks_ran = [], [], set()
            totals = _LayerTotals()
            deadline = time.perf_counter() + seconds
            attempted = failed = 0
            while attempted < MIN_OPS[trace] or (
                    time.perf_counter() < deadline):
                traced = trace and attempted % 2 == 1
                attempted += 1
                cpu0 = _cpu_seconds()
                started = time.perf_counter()
                try:
                    if traced:
                        out, spans = traced_call(wl.op)
                    else:
                        out = wl.op()
                    wall = time.perf_counter() - started
                    _reap_workers()
                    problems, checks = wl.check(out)
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    wall = time.perf_counter() - started
                    _reap_workers()
                    problems, checks = [f"{type(exc).__name__}: {exc}"], []
                cpus.append(_cpu_seconds() - cpu0)
                walls[traced].append(wall)
                checks_ran.update(checks)
                failed += bool(problems)
                failures += [f"op {attempted}: {p}" for p in problems]
                if traced and not problems:
                    counters = wl.results_of(out).run_summary.metrics.get(
                        "counters", {})
                    totals.add(spans, counters)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
        _stop_resource_tracker()

    plain = walls[False]
    if trace:
        overhead = (statistics.median(walls[True]) / statistics.median(plain)
                    - 1.0) if walls[True] and plain else 0.0
        metrics = totals.metrics(setup_layers, overhead)
        units = PER_LAYER
    else:
        metrics = {
            "op_p95_s": _p95(plain),
            "cpu_p95_s": _p95(cpus),
            "peak_rss_mb": _peak_rss_mb(),
            "setup_s": statistics.median(setup_times),
        }
        units = END_TO_END
    result = {
        "correct": not failures and not setup_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]}
                    for name in units},
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "host": host,
        "jobs": jobs,
        "env_set": env_set,
        "setups": len(setup_times) + len(setup_layers),
        "samples": {"untraced": len(plain), "traced": len(walls[True])},
        "op_p50_s": statistics.median(plain) if plain else None,
        "ops_per_s": len(plain) / sum(plain) if plain else None,
        "cpu_p50_s": statistics.median(cpus),
        "op_walls_s": plain,
        "fail_frac": failed / attempted,
        "checks": sorted(checks_ran),
        "problems": setup_problems + failures[:20],
        "peak_rss": "parent peak + largest worker peak (ru_maxrss)",
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")
    try:
        _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}",
              file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result, detail = run(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
