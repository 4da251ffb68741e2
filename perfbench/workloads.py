"""The benchmark's workloads: what each sets up, runs and checks.

``study_exact_serial`` and ``study_hist_parallel`` run one cold study
(:func:`repro.core.pipeline.run_experiment`) per operation, into a fresh
cache directory.  ``daily_update`` runs one cold study in set-up and
then chains one-day updates (:func:`repro.incremental.update_experiment`).
The study grid is the ``fast`` preset cut down so that one operation
takes seconds, not minutes; see ``README.md`` in this directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
from dataclasses import replace
from pathlib import Path

import numpy

from repro.core.improvement import ImprovementConfig
from repro.core.pipeline import ExperimentConfig, run_experiment
from repro.incremental import update_experiment
from repro.synth.config import SimulationConfig
from repro.synth.dataset import generate_raw_dataset

WORKLOADS = ("study_exact_serial", "study_hist_parallel", "daily_update")
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: (trees, depth, FRA iterations, SHAP trees, SHAP rows) per size.
_STUDY_MODELS = {"bench": (3, 8, 3, 10, 40), "tiny": (2, 4, 1, 3, 10)}
_DAILY_MODELS = (2, 4, 1, 3, 10)


def _shrunk(config: ExperimentConfig, trees, depth, fra_iterations,
            shap_trees, shap_rows) -> ExperimentConfig:
    """``config`` with one prediction window, two CV folds and the given
    ensemble sizes.  FRA always stops at ``fra_iterations`` (its target
    is out of reach), so the work per study does not depend on the seed.
    """
    rf = {"n_estimators": trees, "max_depth": depth,
          "max_features": "sqrt", "min_samples_leaf": 2}
    gb = {"n_estimators": 2 * trees, "max_depth": 3, "learning_rate": 0.15,
          "max_features": "sqrt", "subsample": 0.8, "reg_lambda": 1.0}
    return replace(
        config,
        fra=replace(config.fra, target_size=8,
                    max_iterations=fra_iterations,
                    rf_params=rf, gb_params=gb),
        shap=replace(config.shap, max_rows=shap_rows, gb_params={
            "n_estimators": shap_trees, "max_depth": 3,
            "learning_rate": 0.15, "subsample": 0.8, "reg_lambda": 1.0}),
        improvement_rf=ImprovementConfig(
            model="rf", cv_folds=2, param_grid={
                "n_estimators": [trees], "max_depth": [depth],
                "max_features": ["sqrt"]}),
        improvement_gb=ImprovementConfig(
            model="gb", cv_folds=2, param_grid={
                "n_estimators": [2 * trees], "max_depth": [3]}),
        rf_importance_params=rf,
        windows=(7,),
    )


def study_config(seed: int, splitter: str, n_jobs: int,
                 size: str = "bench") -> ExperimentConfig:
    """The ``fast`` preset's market up to 2019-12-31, shrunk."""
    base = ExperimentConfig.fast(seed=seed)
    base = replace(base, simulation=replace(base.simulation,
                                            end="2019-12-31"))
    return replace(_shrunk(base, *_STUDY_MODELS[size]),
                   splitter=splitter, n_jobs=n_jobs)


def daily_config(seed: int) -> ExperimentConfig:
    """The full default calendar (ends 2023-06-30, where both study
    periods end), a small hist-splitter grid, serial."""
    base = replace(ExperimentConfig.fast(seed=seed),
                   simulation=SimulationConfig(seed=seed))
    return replace(_shrunk(base, *_DAILY_MODELS), splitter="hist",
                   n_jobs=1)


def table_rows(results) -> list:
    """Every improvement as a float-exact ``(model, period, window,
    diverse MSE, category MSEs)`` row: equal rows mean identical
    improvement tables (Tables 5-6 and the overall numbers)."""
    rows = []
    for model in ("rf", "gb"):
        for imp in getattr(results, f"improvements_{model}"):
            rows.append([model, imp.period, imp.window, imp.diverse_mse,
                         sorted([str(cat), mse]
                                for cat, mse in imp.category_mse.items())])
    return sorted(rows)


def table_digest(results) -> str:
    """sha256 of :func:`table_rows` (``json`` writes floats exactly)."""
    return hashlib.sha256(
        json.dumps(table_rows(results)).encode()).hexdigest()


def load_reference(workload: str, seed: int, host: dict) -> str | None:
    """The recorded digest for ``seed``, when one was recorded on the
    same Python and numpy versions and machine type."""
    try:
        doc = json.loads(REFERENCE_PATH.read_text())
    except FileNotFoundError:
        return None
    if any(doc.get(k) != host[k] for k in ("python", "numpy", "machine")):
        return None
    return doc["digests"].get(workload, {}).get(str(seed))


def _study_problems(results, config) -> list[str]:
    problems = [f"scenario {key} failed: {failure}"
                for key, failure in results.failures.items()]
    expected = {f"{p}_{w}" for p in config.periods for w in config.windows}
    if set(results.artifacts) != expected:
        problems.append(f"scenarios {sorted(results.artifacts)} != "
                        f"{sorted(expected)}")
    return problems


class StudyWorkload:
    """One cold study per operation.

    Set-up generates the dataset (the synth and indicator layers); each
    operation runs the study on it into a fresh cache directory, so the
    cache layer only writes.
    """

    def __init__(self, seed: int, splitter: str, n_jobs: int, size: str,
                 workdir: Path, reference: str | None):
        self.config = study_config(seed, splitter, n_jobs, size)
        self.workdir = workdir
        self.reference = reference
        self.first_digest: str | None = None
        self.raw = None
        self._ops = 0

    def setup(self, tracer=None) -> list[str]:
        self.raw = generate_raw_dataset(self.config.simulation)
        return []

    def op(self, tracer=None):
        self._ops += 1
        cache_dir = self.workdir / f"study-{self._ops}"
        try:
            return run_experiment(self.config, raw=self.raw, tracer=tracer,
                                  cache_dir=str(cache_dir))
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    @staticmethod
    def results_of(out):
        return out

    def check(self, results) -> tuple[list[str], list[str]]:
        """(problems, names of the checks that ran)."""
        problems = _study_problems(results, self.config)
        checks = ["complete", "repeat"]
        digest = table_digest(results)
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            problems.append("tables differ from this run's first study")
        if self.reference is not None:
            checks.append("reference")
            if digest != self.reference:
                problems.append("tables differ from the recorded reference")
        return problems, checks


class DailyWorkload:
    """A closed loop with one client, chaining one-day updates.

    Set-up runs a cold study into a fresh cache; each operation extends
    the previous operation's dataset by one day.  Both study periods end
    on the last set-up day, so every scenario comes from the cache.
    """

    def __init__(self, seed: int, workdir: Path, reference: str | None):
        self.config = daily_config(seed)
        self.workdir = workdir
        self.reference = reference
        self.rows = None
        self._setups = 0

    def setup(self, tracer=None) -> list[str]:
        self._setups += 1
        cache_dir = self.workdir / f"daily-{self._setups}"
        shutil.rmtree(self.workdir / f"daily-{self._setups - 1}",
                      ignore_errors=True)
        results = run_experiment(self.config, tracer=tracer,
                                 cache_dir=str(cache_dir))
        self.cache_dir = str(cache_dir)
        self.current, self.raw = self.config, results.raw
        self.rows = table_rows(results)
        self.digest = table_digest(results)
        problems = _study_problems(results, self.config)
        if self.reference is not None and self.digest != self.reference:
            problems.append("set-up tables differ from the recorded "
                            "reference")
        return problems

    def op(self, tracer=None):
        update = update_experiment(self.current, days=1, raw=self.raw,
                                   tracer=tracer, cache_dir=self.cache_dir)
        self.current, self.raw = update.config, update.results.raw
        return update

    @staticmethod
    def results_of(out):
        return out.results

    def check(self, update) -> tuple[list[str], list[str]]:
        problems = []
        if not update.scenarios_total or (
                update.scenarios_cached != update.scenarios_total):
            problems.append(f"{update.scenarios_cached} of "
                            f"{update.scenarios_total} scenarios cached")
        if not update.dataset_reused:
            problems.append("dataset was regenerated, not extended")
        if table_rows(update.results) != self.rows:
            problems.append("tables differ from the set-up study's")
        checks = ["cached", "reused", "tables"]
        if self.reference is not None:
            checks.append("reference")  # made on the set-up study
        return problems, checks


def make_workload(name: str, seed: int, size: str, workdir: Path,
                  jobs: int, reference: str | None = None):
    """The workload ``name``; ``reference`` is the table digest its
    studies must match, when one is recorded."""
    if name == "study_exact_serial":
        return StudyWorkload(seed, "exact", 1, size, workdir, reference)
    if name == "study_hist_parallel":
        return StudyWorkload(seed, "hist", jobs, size, workdir, reference)
    if name == "daily_update":
        return DailyWorkload(seed, workdir, reference)
    raise ValueError(f"unknown workload {name!r}")


def workload_jobs(name: str, nproc: int) -> int:
    """Worker count: all usable cores on the parallel study, capped at
    its two scenarios (more workers would sit idle); 1 elsewhere."""
    return min(nproc, 2) if name == "study_hist_parallel" else 1


def host_info(nproc: int) -> dict:
    """What a result depends on besides the code: cores, versions, CPU."""
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }
