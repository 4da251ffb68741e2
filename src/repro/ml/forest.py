"""Random forest regression built on :mod:`repro.ml.tree`.

Random forests are one of the paper's two model families (§3.2): they are
fine-tuned with 5-fold cross-validation grid search, provide MDI feature
importances for the Feature Reduction Algorithm, and measure the
performance-improvement results of §4.3.

Tree fitting is embarrassingly parallel: each tree's bootstrap draw and
node-level feature subsampling run off an independent
``SeedSequence.spawn`` child, so ``n_jobs=1`` and ``n_jobs=N`` produce
bit-identical forests (see :mod:`repro.parallel`).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..obs import current_metrics, span
from ..parallel import ParallelMap, spawn_seeds
from .compiled import current_predictor, ensemble_compiled
from .tree import DecisionTreeRegressor, bin_features, rank_features
from .warm import fit_signature, reusable_members

__all__ = ["RandomForestRegressor"]


def _fit_tree(seed, X, y, tree_params, bootstrap, bins):
    """Fit one tree from its own seed sequence (a pure work unit).

    ``bins`` is the forest-shared feature encoding — a
    :class:`~repro.ml.tree.FeatureBins` for ``splitter="hist"``, a
    :class:`~repro.ml.tree.FeatureRanks` for ``splitter="exact"``: it
    is computed once per forest and each bootstrap draw just gathers
    its rows' codes.
    """
    rng = np.random.default_rng(seed)
    tree = DecisionTreeRegressor(
        random_state=int(rng.integers(0, 2**32 - 1)), **tree_params
    )
    if bootstrap:
        n_samples = X.shape[0]
        sample = rng.integers(0, n_samples, size=n_samples)
        return tree.fit(X[sample], y[sample], bins=bins.take(sample))
    return tree.fit(X, y, bins=bins)


class RandomForestRegressor:
    """Bagged ensemble of CART trees with per-node feature subsampling.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth, min_samples_split, min_samples_leaf, max_features,
    min_impurity_decrease:
        Passed through to every :class:`DecisionTreeRegressor`. The default
        ``max_features=1.0`` (all features) matches sklearn's regression
        default; ``"sqrt"`` gives classic decorrelated forests.
    bootstrap:
        Draw each tree's training set with replacement (size ``n``).
    splitter:
        Split-finding kernel for every tree: ``"exact"`` (default) or
        ``"hist"`` (quantile-binned histogram splits). Either way the
        features are encoded once per forest (rank codes for exact, bin
        codes for hist) and the codes shared across trees.
    random_state:
        Seed controlling bootstrap draws and per-node feature subsets.
        Results do not depend on ``n_jobs``.
    n_jobs:
        Trees fitted concurrently. ``1`` (default) is strictly serial;
        ``None`` resolves via ``REPRO_JOBS`` → all cores; negative
        counts back from the CPU total.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=1.0,
        min_impurity_decrease: float = 0.0,
        bootstrap: bool = True,
        splitter: str = "exact",
        random_state=None,
        n_jobs: int | None = 1,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.min_impurity_decrease = min_impurity_decrease
        self.bootstrap = bootstrap
        self.splitter = splitter
        self.random_state = random_state
        self.n_jobs = n_jobs
        self.estimators_: list[DecisionTreeRegressor] = []
        self.n_features_in_: int | None = None
        self.bin_cuts_: tuple | None = None
        self._compiled_ = None
        self._fit_signature_: tuple | None = None
        self._compile_reuse_ = None

    # ------------------------------------------------------------------
    def get_params(self) -> dict:
        """Constructor parameters (the clone/grid-search protocol)."""
        return {
            "n_estimators": self.n_estimators,
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
            "min_impurity_decrease": self.min_impurity_decrease,
            "bootstrap": self.bootstrap,
            "splitter": self.splitter,
            "random_state": self.random_state,
            "n_jobs": self.n_jobs,
        }

    def set_params(self, **params) -> "RandomForestRegressor":
        """Update constructor parameters in place; returns self."""
        for key, value in params.items():
            if not hasattr(self, key):
                raise ValueError(f"unknown parameter {key!r}")
            setattr(self, key, value)
        return self

    # ------------------------------------------------------------------
    def fit(self, X, y, warm_start_from=None) -> "RandomForestRegressor":
        """Fit the estimator on (X, y); returns self.

        ``warm_start_from`` may be a previously fitted forest: when its
        fit signature matches this fit's — same parameters apart from
        ``n_estimators``/``n_jobs`` and the same training bytes (see
        :mod:`repro.ml.warm`) — its member trees are reused verbatim
        and only the seed-tail trees are fitted. ``spawn_seeds`` is
        prefix-stable, so the warm result is bit-identical to a cold
        fit at the new ``n_estimators``; signature mismatches fall back
        to a full cold fit.
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if X.shape[0] != y.size:
            raise ValueError("X and y have inconsistent lengths")
        self.n_features_in_ = X.shape[1]
        tree_params = {
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
            "min_impurity_decrease": self.min_impurity_decrease,
            "splitter": self.splitter,
        }
        signature = fit_signature(self, X, y)
        reused = reusable_members(self, warm_start_from, signature)
        with span("ml.forest_fit", splitter=self.splitter,
                  n_estimators=self.n_estimators,
                  reused=0 if reused is None else len(reused)):
            self._compiled_ = None
            self._compile_reuse_ = None
            if reused is not None and len(reused) == self.n_estimators:
                self.bin_cuts_ = warm_start_from.bin_cuts_
                self.estimators_ = reused
            else:
                if self.splitter == "hist":
                    bins = bin_features(X)
                    self.bin_cuts_ = bins.cuts
                else:
                    bins = rank_features(X)
                    self.bin_cuts_ = None
                seeds = spawn_seeds(self.random_state, self.n_estimators)
                fit_one = partial(
                    _fit_tree, X=X, y=y, tree_params=tree_params,
                    bootstrap=self.bootstrap, bins=bins,
                )
                fresh = ParallelMap(self.n_jobs).map(
                    fit_one, seeds[len(reused or ()):]
                )
                self.estimators_ = (reused or []) + fresh
            self._fit_signature_ = signature
            if reused is not None and len(reused) == len(
                    warm_start_from.estimators_):
                prev_compiled = getattr(warm_start_from, "_compiled_", None)
                if prev_compiled is not None:
                    self._compile_reuse_ = (prev_compiled, len(reused))
        return self

    def predict(self, X) -> np.ndarray:
        """Mean prediction across all trees.

        Under the ``"compiled"`` predictor mode (see
        :mod:`repro.ml.compiled`) the flattened level-wise kernel runs
        instead of the per-tree loop; outputs are bit-identical.
        """
        self._check_fitted()
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X must be 2-D with {self.n_features_in_} features"
            )
        if current_predictor() == "compiled":
            return ensemble_compiled(self).predict(X, n_jobs=self.n_jobs)
        metrics = current_metrics()
        metrics.counter("predict.naive_calls").inc()
        metrics.counter("predict.naive_rows").inc(X.shape[0])
        stacked = np.empty((len(self.estimators_), X.shape[0]),
                           dtype=np.float64)
        for i, tree in enumerate(self.estimators_):
            stacked[i] = tree.tree_.predict(X)
        return stacked.mean(axis=0)

    @property
    def feature_importances_(self) -> np.ndarray:
        """MDI importances averaged over trees and normalised to sum 1."""
        self._check_fitted()
        stacked = np.empty((len(self.estimators_), self.n_features_in_),
                           dtype=np.float64)
        for i, tree in enumerate(self.estimators_):
            stacked[i] = tree.feature_importances_
        acc = stacked.sum(axis=0)
        total = acc.sum()
        return acc / total if total > 0 else acc

    def _check_fitted(self):
        if not self.estimators_:
            raise RuntimeError("estimator is not fitted; call fit() first")
