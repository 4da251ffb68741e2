"""Tests of the repository benchmark itself.

Run from the repository root::

    python -m pytest perfbench/tests -q

Every workload runs at ``size="tiny"`` here, so the file takes well
under a minute.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run as bench
from perfbench.layers import PATCHES, ROOT_SPAN, LayerPatches, layer_seconds
from perfbench.workloads import (
    WORKLOADS,
    make_workload,
    table_digest,
    workload_jobs,
)
from repro.obs import Tracer, span, use_tracer

ROOT = Path(__file__).resolve().parents[2]
SEED = 3

#: Wrapped function → the workload it is meant for.
FIRES_ON = {
    "generate_raw_dataset": "daily_update",
    "extend_raw_dataset": "daily_update",
    "technical_indicator_frame": "daily_update",
    "run_experiment": "daily_update",
    "build_all_scenarios": "study_exact_serial",
    "fra_reduce": "study_exact_serial",
    "shap_ranking": "study_exact_serial",
    "rf_feature_importance": "study_exact_serial",
    "scenario_improvements": "study_exact_serial",
    "DecisionTreeRegressor.fit": "study_exact_serial",
    "RandomForestRegressor.fit": "study_exact_serial",
    "RandomForestRegressor.predict": "study_exact_serial",
    "GradientBoostingRegressor.fit": "study_exact_serial",
    "GradientBoostingRegressor.predict": "study_exact_serial",
    "compile_ensemble": "study_exact_serial",
    "permutation_importance": "study_exact_serial",
    "shap_importance": "study_exact_serial",
    "GridSearchCV.fit": "study_exact_serial",
    "CacheStore.get": "daily_update",
    "CacheStore.put": "study_exact_serial",
    "array_digest": "study_exact_serial",
    "frame_digest": "study_exact_serial",
    "range_digest": "daily_update",
    "ParallelMap.map": "study_hist_parallel",
    "bin_features": "study_hist_parallel",
}


def _bindings():
    """Every (owner, attribute) a patch may touch, with its current value."""
    out = {}
    for owner, attr, _, _ in PATCHES:
        if isinstance(owner, type):
            out[(owner, attr)] = owner.__dict__[attr]
            continue
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] in ("repro", "perfbench") and hasattr(
                    module, attr):
                out[(module, attr)] = getattr(module, attr)
    return out


@pytest.fixture(scope="module")
def ops(tmp_path_factory):
    """Per workload: the workload, one untraced and one traced operation's
    output, and the traced operation's spans."""
    out = {}
    for name in WORKLOADS:
        nproc = len(os.sched_getaffinity(0))
        jobs = workload_jobs(name, nproc)
        with bench._environment(jobs):
            wl = make_workload(name, SEED, "tiny",
                               tmp_path_factory.mktemp(name), jobs)
            wl.setup()
            plain = wl.op()
            bench._reap_workers()
            tracer = Tracer()
            with LayerPatches(), use_tracer(tracer), span(ROOT_SPAN):
                traced = wl.op(tracer)
            bench._reap_workers()
        out[name] = (wl, plain, traced, tracer.spans)
    return out


def test_every_patch_is_expected():
    wrapped = set()
    for owner, attr, _, _ in PATCHES:
        fn = (owner.__dict__[attr] if isinstance(owner, type)
              else getattr(sys.modules[owner], attr))
        wrapped.add(fn.__qualname__)
    assert wrapped == set(FIRES_ON)


@pytest.mark.parametrize("qualname", sorted(FIRES_ON))
def test_wrapper_fires_on_its_workload(ops, qualname):
    spans = ops[FIRES_ON[qualname]][3]
    assert any(s.attrs.get("fn") == qualname for s in spans), qualname


def test_patches_are_restored():
    before = _bindings()
    with LayerPatches():
        during = _bindings()
    after = _bindings()
    assert after == before
    changed = [key for key in before if during[key] is not before[key]]
    assert len(changed) >= len(PATCHES)


def test_tracing_keeps_table_digests(ops):
    for name in ("study_exact_serial", "study_hist_parallel"):
        wl, plain, traced, _ = ops[name]
        assert table_digest(traced) == table_digest(plain), name
    wl, plain, traced, _ = ops["daily_update"]
    assert wl.check(traced)[0] == []
    assert table_digest(traced.results) == table_digest(plain.results)


def test_serial_layer_times_sum_to_the_operation(ops):
    spans = ops["study_exact_serial"][3]
    root = next(s for s in spans if s.name == ROOT_SPAN)
    layers = layer_seconds(spans)
    assert sum(layers.values()) == pytest.approx(root.duration, rel=1e-9)
    assert layers["ml.tree_fit"] > layers["unattributed"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke_run(workload, trace):
    result, detail = bench.run(workload, SEED, 0, trace, size="tiny",
                               setups=(1, 0.0))
    assert result["correct"], detail["problems"]
    assert result["failed"] == 0 and detail["fail_frac"] == 0
    assert result["attempted"] == bench.MIN_OPS[trace]
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert list(result["metrics"]) == list(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name][0]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert detail["env_set"] == {"REPRO_JOBS": str(detail["jobs"])}
    assert not (ROOT / ".perfbench_work").exists()


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, reported in (("end_to_end", bench.END_TO_END),
                          ("per_layer", bench.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert listed == reported
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "daily_update",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
