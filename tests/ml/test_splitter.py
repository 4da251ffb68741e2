"""Equivalence tests for the two tree-growth kernels.

The ``exact`` splitter is the seed algorithm and must stay bit-identical
to it — including across worker counts, since the forest's per-tree
seeds are drawn up front. The ``hist`` splitter trades exactness on the
split grid for speed and only has to match statistically (MSE within a
tolerance of exact on the same data).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import (
    DecisionTreeRegressor,
    GradientBoostingRegressor,
    RandomForestRegressor,
    mean_squared_error,
)
from repro.ml.tree import (
    MAX_BINS,
    FeatureBins,
    FeatureRanks,
    bin_features,
    rank_features,
)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(400, 12))
    y = (2.0 * X[:, 0] - 1.5 * X[:, 1] + X[:, 2] * X[:, 3]
         + 0.3 * rng.normal(size=400))
    return X, y


def _tree_arrays(tree):
    s = tree.tree_
    return (s.children_left, s.children_right, s.feature, s.threshold,
            s.value, s.n_node_samples, s.impurity)


def _forests_identical(a, b):
    if len(a.estimators_) != len(b.estimators_):
        return False
    for ta, tb in zip(a.estimators_, b.estimators_):
        for xa, xb in zip(_tree_arrays(ta), _tree_arrays(tb)):
            if not np.array_equal(xa, xb, equal_nan=True):
                return False
    return True


class TestExactAcrossWorkers:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_forest_bit_identical_vs_serial(self, data, jobs):
        X, y = data
        params = dict(n_estimators=6, max_depth=6, max_features="sqrt",
                      random_state=11, splitter="exact")
        serial = RandomForestRegressor(n_jobs=1, **params).fit(X, y)
        fanned = RandomForestRegressor(n_jobs=jobs, **params).fit(X, y)
        assert _forests_identical(serial, fanned)
        assert np.array_equal(serial.predict(X), fanned.predict(X))

    def test_hist_forest_identical_across_workers(self, data):
        X, y = data
        params = dict(n_estimators=6, max_depth=6, max_features="sqrt",
                      random_state=11, splitter="hist")
        serial = RandomForestRegressor(n_jobs=1, **params).fit(X, y)
        fanned = RandomForestRegressor(n_jobs=2, **params).fit(X, y)
        assert _forests_identical(serial, fanned)


class TestHistStatisticalEquivalence:
    def test_forest_mse_within_tolerance(self, data):
        X, y = data
        mses = {}
        for splitter in ("exact", "hist"):
            model = RandomForestRegressor(
                n_estimators=10, max_depth=8, max_features="sqrt",
                random_state=3, splitter=splitter,
            ).fit(X, y)
            mses[splitter] = mean_squared_error(y, model.predict(X))
        # Both kernels fit the same signal; neither may be degenerate.
        assert mses["hist"] < np.var(y) * 0.5
        assert mses["hist"] <= mses["exact"] * 1.5 + 1e-12

    def test_boosting_mse_within_tolerance(self, data):
        X, y = data
        mses = {}
        for splitter in ("exact", "hist"):
            model = GradientBoostingRegressor(
                n_estimators=25, max_depth=3, random_state=3,
                splitter=splitter,
            ).fit(X, y)
            mses[splitter] = mean_squared_error(y, model.predict(X))
        assert mses["hist"] <= mses["exact"] * 1.5 + 1e-12

    def test_low_cardinality_hist_matches_exact_grid(self):
        # With <= MAX_BINS distinct values per feature the binning uses
        # exact midpoint cuts, so hist sees the same candidate grid.
        rng = np.random.default_rng(0)
        X = rng.integers(0, 8, size=(200, 4)).astype(float)
        y = X[:, 0] * 2 - X[:, 1] + 0.1 * rng.normal(size=200)
        exact = DecisionTreeRegressor(max_depth=4, random_state=0).fit(X, y)
        hist = DecisionTreeRegressor(max_depth=4, random_state=0,
                                     splitter="hist").fit(X, y)
        assert mean_squared_error(y, hist.predict(X)) == pytest.approx(
            mean_squared_error(y, exact.predict(X)), rel=0.25, abs=1e-9
        )


class TestHistInvariants:
    def test_leaf_constraints_respected(self, data):
        X, y = data
        tree = DecisionTreeRegressor(
            max_depth=5, min_samples_leaf=7, splitter="hist",
            random_state=0,
        ).fit(X, y)
        s = tree.tree_
        leaves = s.children_left == -1
        assert s.n_node_samples[leaves].min() >= 7

    def test_parent_counts_equal_child_sum(self, data):
        X, y = data
        tree = DecisionTreeRegressor(max_depth=6, splitter="hist",
                                     random_state=0).fit(X, y)
        s = tree.tree_
        for node in range(s.node_count):
            left = s.children_left[node]
            if left != -1:
                right = s.children_right[node]
                assert (s.n_node_samples[node]
                        == s.n_node_samples[left] + s.n_node_samples[right])

    def test_shared_bins_match_per_fit_binning(self, data):
        X, y = data
        bins = bin_features(X)
        assert isinstance(bins, FeatureBins)
        assert bins.n_features == X.shape[1]
        a = DecisionTreeRegressor(max_depth=5, splitter="hist",
                                  random_state=1).fit(X, y)
        b = DecisionTreeRegressor(max_depth=5, splitter="hist",
                                  random_state=1).fit(X, y, bins=bins)
        for xa, xb in zip(_tree_arrays(a), _tree_arrays(b)):
            assert np.array_equal(xa, xb, equal_nan=True)

    def test_bin_count_bounded(self, data):
        X, _ = data
        bins = bin_features(X)
        assert int(bins.codes.max()) < MAX_BINS
        assert all(len(c) <= MAX_BINS for c in bins.cuts)

    def test_bins_for_exact_splitter_rejected(self, data):
        X, y = data
        bins = bin_features(X)
        with pytest.raises(ValueError, match="splitter"):
            DecisionTreeRegressor(splitter="exact").fit(X, y, bins=bins)
        ranks = rank_features(X)
        with pytest.raises(ValueError, match="splitter"):
            DecisionTreeRegressor(splitter="hist").fit(X, y, bins=ranks)

    def test_ranks_shape_must_match(self, data):
        X, y = data
        ranks = rank_features(X[:, :5])
        with pytest.raises(ValueError, match="shape"):
            DecisionTreeRegressor().fit(X, y, bins=ranks)

    def test_unknown_splitter_rejected(self):
        with pytest.raises(ValueError, match="splitter"):
            DecisionTreeRegressor(splitter="fancy")


_RANK_VALUES = st.one_of(
    st.floats(allow_nan=False, width=64),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, float("inf"), float("-inf")]),
)


class TestFeatureRanks:
    """``rank_features`` codes must sort exactly as the values do."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_stable_order_matches_float_argsort_on_any_rows(self, data):
        n = data.draw(st.integers(1, 40))
        n_features = data.draw(st.integers(1, 4))
        pool = data.draw(st.lists(_RANK_VALUES, min_size=1, max_size=6))
        X = np.array(data.draw(st.lists(
            st.sampled_from(pool), min_size=n * n_features,
            max_size=n * n_features)), dtype=np.float64
        ).reshape(n, n_features)
        rows = np.array(data.draw(st.lists(
            st.integers(0, n - 1), min_size=1, max_size=60)))
        codes = rank_features(X).take(rows).codes
        assert codes.dtype == np.uint16
        got = np.argsort(codes, axis=1, kind="stable")
        want = np.argsort(X[rows].T, axis=1, kind="stable")
        assert np.array_equal(got, want)

    def test_dense_ranks_tie_signed_zeros(self):
        X = np.array([[2.0], [-0.0], [0.0], [-np.inf], [2.0], [np.inf]])
        codes = rank_features(X).codes
        assert codes.tolist() == [[2, 1, 1, 0, 2, 3]]

    def test_int64_codes_above_uint16_rows(self):
        rng = np.random.default_rng(0)
        X = rng.choice([-0.0, 0.0, 1.5], size=(70_000, 1))
        ranks = rank_features(X)
        assert ranks.codes.dtype == np.int64
        assert ranks.codes.shape == (1, 70_000)
        assert np.array_equal(ranks.codes[0], (X[:, 0] > 0).astype(np.int64))
        assert np.array_equal(
            np.argsort(ranks.codes[0], kind="stable"),
            np.argsort(X[:, 0], kind="stable"))

    def test_take_and_share_keep_type(self, data):
        X, _ = data
        ranks = rank_features(X)
        assert isinstance(ranks, FeatureRanks)
        rows = np.array([3, 3, 0])
        assert np.array_equal(ranks.take(rows).codes, ranks.codes[:, rows])
        shared = ranks.__shm_share__(lambda a: a.copy())
        assert isinstance(shared, FeatureRanks)
        assert np.array_equal(shared.codes, ranks.codes)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            rank_features(np.array([[1.0], [np.nan]]))


class TestConstantFeatures:
    """Regression tests for the all-``-inf`` gain row in ``_best_split``.

    ``np.argmax`` over an all ``-inf`` matrix returns index 0; before the
    explicit ``valid.any()`` guard the exact splitter relied on a later
    finiteness check to discard that bogus winner. The guard must keep
    constant-feature nodes split-free in both kernels.
    """

    @pytest.mark.parametrize("splitter", ["exact", "hist"])
    def test_all_features_constant_single_node(self, splitter):
        X = np.full((60, 5), 3.25)
        y = np.arange(60, dtype=float)
        tree = DecisionTreeRegressor(splitter=splitter,
                                     random_state=0).fit(X, y)
        assert tree.tree_.node_count == 1
        assert np.allclose(tree.predict(X), y.mean())

    @pytest.mark.parametrize("splitter", ["exact", "hist"])
    def test_constant_columns_never_chosen(self, splitter):
        rng = np.random.default_rng(5)
        X = np.zeros((150, 6))
        X[:, 2] = rng.normal(size=150)  # the single informative column
        y = 3.0 * X[:, 2]
        tree = DecisionTreeRegressor(max_depth=4, splitter=splitter,
                                     random_state=0).fit(X, y)
        s = tree.tree_
        used = set(s.feature[s.children_left != -1].tolist())
        assert used == {2}

    def test_min_samples_leaf_blocks_every_candidate(self):
        # Two distinct values but min_samples_leaf too large for any
        # legal partition: the gain row is entirely invalid.
        X = np.array([[0.0], [0.0], [0.0], [1.0]])
        y = np.array([0.0, 0.0, 0.0, 10.0])
        tree = DecisionTreeRegressor(min_samples_leaf=2,
                                     random_state=0).fit(X, y)
        assert tree.tree_.node_count == 1
