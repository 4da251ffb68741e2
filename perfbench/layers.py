"""Layer spans for the traced run, and the per-layer accounting over them.

:class:`LayerPatches` wraps the public entry points of every layer the
benchmark reports on, from outside ``src/``: class methods are replaced
on their class, and a module-level function is replaced in every loaded
``repro`` or ``perfbench`` module that binds it (``bin_features`` is
imported by name into both ``repro.ml.forest`` and
``repro.ml.boosting``, for example).
Each wrapper records one span through the public :func:`repro.obs.span`,
so a span made in a forked worker reaches the parent's tracer the way
``ParallelMap`` already merges worker spans.  Every benchmark span
carries ``pid`` and ``fn`` (the wrapped function) attributes, which
also tell it apart from the program's own spans (some share a name).

:func:`layer_seconds` turns the spans of one operation into self
times: a span's self time is its duration minus the part of it that its
children cover, and it is credited to the nearest enclosing benchmark
span.  A ``parallel.map`` that ran inline (one worker, or a map inside a
worker) is no layer of its own: its time stays with the layer that
called it.  What no layer span encloses is ``unattributed_s``.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import defaultdict

from repro.cache.store import CacheStore
from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.forest import RandomForestRegressor
from repro.ml.model_selection import GridSearchCV
from repro.ml.tree import DecisionTreeRegressor
from repro.obs import span
from repro.parallel import ParallelMap

ROOT_SPAN = "bench.op"


def _tree_attrs(attrs, args, result):
    attrs["nodes"] = result.tree_.node_count


def _predict_attrs(attrs, args, result):
    attrs["rows"] = len(result)


def _cv_attrs(attrs, args, result):
    attrs["fits"] = sum(len(r["fold_scores"]) for r in result.cv_results_)


def _map_attrs(attrs, args, result):
    # ParallelMap.map(self, fn, items, ...): the fan-out width it asked for.
    attrs["width"] = min(args[0].n_jobs, len(result))


#: (owner, attribute, span name, attrs hook).  A class owner patches the
#: method on the class; a module name patches that module's function in
#: every module binding the same object.  ``run_experiment`` is
#: patched only where the update path calls it, so it marks the pipeline
#: part of an update and nothing else.
PATCHES = (
    ("repro.synth.dataset", "generate_raw_dataset", "synth.generate", None),
    ("repro.synth.extend", "extend_raw_dataset", "synth.extend", None),
    ("repro.indicators.suite", "technical_indicator_frame",
     "indicators.technical", None),
    ("repro.core.scenarios", "build_all_scenarios", "core.scenarios", None),
    ("repro.core.fra", "fra_reduce", "core.fra", None),
    ("repro.core.selection", "shap_ranking", "core.shap_rank", None),
    ("repro.core.horizons", "rf_feature_importance", "core.horizons", None),
    ("repro.core.improvement", "scenario_improvements", "core.improvement",
     None),
    (DecisionTreeRegressor, "fit", "ml.tree_fit", _tree_attrs),
    (RandomForestRegressor, "fit", "ml.forest_fit", None),
    (RandomForestRegressor, "predict", "ml.predict", _predict_attrs),
    (GradientBoostingRegressor, "fit", "ml.gb_fit", None),
    (GradientBoostingRegressor, "predict", "ml.predict", _predict_attrs),
    ("repro.ml.tree", "bin_features", "ml.bin", None),
    ("repro.ml.compiled", "compile_ensemble", "ml.compile", None),
    ("repro.ml.importance", "permutation_importance", "ml.pfi", None),
    ("repro.ml.shap", "shap_importance", "ml.shap", None),
    (GridSearchCV, "fit", "ml.cv", _cv_attrs),
    (CacheStore, "get", "cache.get", None),
    (CacheStore, "put", "cache.put", None),
    ("repro.cache.keys", "array_digest", "cache.digest", None),
    ("repro.cache.keys", "frame_digest", "cache.digest", None),
    ("repro.cache.keys", "range_digest", "cache.digest", None),
    (ParallelMap, "map", "parallel.map", _map_attrs),
    ("repro.incremental.update", "run_experiment", "incremental.pipeline",
     None),
)

#: Span names that are layers; every other span's self time goes to the
#: nearest enclosing layer span.
LAYER_SPANS = frozenset(name for _, _, name, _ in PATCHES)


def _wrap(fn, name, hook):
    qualname = fn.__qualname__

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with span(name, pid=os.getpid(), fn=qualname) as record:
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(record.attrs, args, result)
        return result
    return wrapper


class LayerPatches:
    """Install the layer wrappers on ``with`` entry; restore on exit."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "LayerPatches":
        for owner, attr, name, hook in PATCHES:
            if isinstance(owner, type):
                targets = [owner]
                original = owner.__dict__[attr]
            else:
                original = getattr(sys.modules[owner], attr)
                targets = [sys.modules[owner]] if attr == "run_experiment" \
                    else self._modules_binding(attr, original)
            wrapper = _wrap(original, name, hook)
            for target in targets:
                self._saved.append((target, attr, original))
                setattr(target, attr, wrapper)
        return self

    @staticmethod
    def _modules_binding(attr, original) -> list:
        return [
            module for mod_name, module in list(sys.modules.items())
            if mod_name.split(".")[0] in ("repro", "perfbench")
            and getattr(module, attr, None) is original
        ]

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)


# ----------------------------------------------------------------------
def _union_length(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_seconds(spans) -> dict[str, float]:
    """Self seconds per layer for one operation's spans.

    The root span (:data:`ROOT_SPAN`) collects whatever no layer span
    encloses; it is returned as ``"unattributed"``.  On a serial run the
    values sum to the root span's duration.  Spans from parallel workers
    overlap in time, so there the sum exceeds wall-clock by the time
    workers ran at once.
    """
    by_id = {s.span_id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent_id in by_id:
            children[s.parent_id].append((s.start, s.end))
    inline_maps = {m.span_id for m in spans if m.name == "parallel.map"} \
        - set(_fanned_out(spans))

    def layer_of(s):
        while s is not None:
            if s.name == ROOT_SPAN:
                return "unattributed"
            if (s.name in LAYER_SPANS and "pid" in s.attrs
                    and s.span_id not in inline_maps):
                return s.name
            s = by_id.get(s.parent_id)
        return "unattributed"

    out: dict[str, float] = defaultdict(float)
    for s in spans:
        covered = _union_length(children.get(s.span_id, ()), s.start, s.end)
        out[layer_of(s)] += max(0.0, s.duration - covered)
    return dict(out)


def _worker_pid(s, children_of):
    """The pid recorded on ``s`` or its first descendant that has one."""
    stack = [s]
    while stack:
        node = stack.pop()
        if "pid" in node.attrs:
            return node.attrs["pid"]
        stack.extend(children_of.get(node.span_id, ()))
    return None


def _fanned_out(spans) -> dict:
    """``parallel.map`` span → {worker pid: (first start, last end,
    busy seconds)} for every map whose tasks ran in other processes."""
    children_of = defaultdict(list)
    for s in spans:
        children_of[s.parent_id].append(s)
    out = {}
    for m in spans:
        if m.name != "parallel.map" or "pid" not in m.attrs:
            continue
        workers: dict[int, tuple] = {}
        for child in children_of.get(m.span_id, ()):
            pid = _worker_pid(child, children_of)
            if pid is None or pid == m.attrs["pid"]:
                continue
            first, last, busy = workers.get(pid, (child.start, child.end, 0.0))
            workers[pid] = (min(first, child.start), max(last, child.end),
                            busy + child.duration)
        if workers:
            out[m.span_id] = (m, workers)
    return out


def fanout_stats(spans) -> dict[str, float]:
    """Pool timings of every ``parallel.map`` that ran on workers.

    Per map: ``pool_start_s`` is the wait from the map call to the first
    task starting on any worker (fork, warm-up, shipping);
    ``queue_wait_s`` sums that wait over workers; ``tail_s`` runs from
    the first worker going idle for good to the map returning; ``busy``
    and ``capacity`` give the busy fraction as worker-seconds over
    ``width`` × map seconds.
    """
    out = {"pool_start_s": 0.0, "queue_wait_s": 0.0, "tail_s": 0.0,
           "busy": 0.0, "capacity": 0.0}
    for m, workers in _fanned_out(spans).values():
        waits = [first - m.start for first, _, _ in workers.values()]
        out["pool_start_s"] += min(waits)
        out["queue_wait_s"] += sum(waits)
        out["tail_s"] += m.end - min(last for _, last, _ in workers.values())
        out["busy"] += sum(busy for _, _, busy in workers.values())
        out["capacity"] += m.attrs.get("width", len(workers)) * m.duration
    return out
