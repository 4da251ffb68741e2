"""Oracle tests for the rank-coded exact splitter.

The exact kernel sorts per-feature rank codes (:class:`FeatureRanks`)
in place of the float values. Codes sort exactly as the values do, so
every fitted tree must be the one the float-sorting seed kernel grows,
byte for byte. :class:`SeedExactTree` keeps that seed kernel verbatim
(its ``fit`` is the seed ``fit`` with the hist branch removed) and
hypothesis compares all seven :class:`TreeStructure` arrays on inputs
built to stress the ordering: small value pools (ties), signed zeros,
infinities, values whose midpoint overflows, constant columns and
duplicate rows.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ml import GradientBoostingRegressor, RandomForestRegressor
from repro.ml.tree import (
    DecisionTreeRegressor,
    TreeStructure,
    _resolve_max_features,
    rank_features,
)
from repro.parallel import spawn_seeds

_LEAF = -1
_FIELDS = ("children_left", "children_right", "feature", "threshold",
           "value", "n_node_samples", "impurity")


class SeedExactTree(DecisionTreeRegressor):
    """The seed float-sorting exact kernel, kept as the test oracle."""

    def fit(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        n_samples, n_features = X.shape
        self.n_features_in_ = n_features
        rng = np.random.default_rng(self.random_state)
        k_features = _resolve_max_features(self.max_features, n_features)

        lam = float(self.reg_lambda)

        children_left: list[int] = []
        children_right: list[int] = []
        feature: list[int] = []
        threshold: list[float] = []
        value: list[float] = []
        n_node: list[int] = []
        impurity: list[float] = []

        def new_node(idx: np.ndarray) -> int:
            node_id = len(value)
            y_node = y[idx]
            total = float(y_node.sum())
            n = idx.size
            children_left.append(_LEAF)
            children_right.append(_LEAF)
            feature.append(_LEAF)
            threshold.append(np.nan)
            value.append(total / (n + lam))
            n_node.append(n)
            impurity.append(float(np.mean((y_node - total / n) ** 2)))
            return node_id

        def splittable(node_id: int, idx: np.ndarray, depth: int) -> bool:
            n = idx.size
            return not (
                n < self.min_samples_split
                or n < 2 * self.min_samples_leaf
                or (self.max_depth is not None and depth >= self.max_depth)
                or impurity[node_id] == 0.0
            )

        def draw_feats() -> np.ndarray:
            if k_features < n_features:
                return rng.choice(n_features, size=k_features,
                                  replace=False)
            return np.arange(n_features)

        nodes = (children_left, children_right, feature, threshold)
        self._grow_exact(X, y, lam, new_node, splittable, draw_feats, nodes)

        self.tree_ = TreeStructure(
            children_left=np.asarray(children_left, dtype=np.int64),
            children_right=np.asarray(children_right, dtype=np.int64),
            feature=np.asarray(feature, dtype=np.int64),
            threshold=np.asarray(threshold, dtype=np.float64),
            value=np.asarray(value, dtype=np.float64),
            n_node_samples=np.asarray(n_node, dtype=np.int64),
            impurity=np.asarray(impurity, dtype=np.float64),
        )
        return self

    def _grow_exact(self, X, y, lam, new_node, splittable, draw_feats,
                    nodes) -> None:
        """Depth-first growth with an explicit stack of (id, idx, depth)."""
        children_left, children_right, feature, threshold = nodes
        n_samples = X.shape[0]
        # Feature-major copy: per-node gathers read contiguous
        # per-feature rows instead of scattering across the sample-major
        # layout (same values, so fitted trees are bit-identical).
        XT = np.ascontiguousarray(X.T)
        root = new_node(np.arange(n_samples))
        stack: list[tuple[int, np.ndarray, int]] = [
            (root, np.arange(n_samples), 0)
        ]
        while stack:
            node_id, idx, depth = stack.pop()
            if not splittable(node_id, idx, depth):
                continue
            feats = draw_feats()
            best = self._best_split(XT, y, idx, feats, lam)
            if best is None:
                continue
            gain, feat, thr, left_mask = best
            if gain / n_samples < self.min_impurity_decrease:
                continue

            left_idx = idx[left_mask]
            right_idx = idx[~left_mask]
            left_id = new_node(left_idx)
            right_id = new_node(right_idx)
            children_left[node_id] = left_id
            children_right[node_id] = right_id
            feature[node_id] = int(feat)
            threshold[node_id] = float(thr)
            stack.append((left_id, left_idx, depth + 1))
            stack.append((right_id, right_idx, depth + 1))

    def _best_split(self, XT, y, idx, feats, lam):
        """Vectorised search over all (feature, position) candidates.

        ``XT`` is the feature-major (transposed, C-contiguous) training
        matrix. Returns ``(gain, feature, threshold, left_mask)`` for
        the best valid split, or ``None`` when no candidate satisfies
        the ``min_samples_leaf`` and strict-ordering constraints.
        """
        n = idx.size
        Xs = XT[np.ix_(feats, idx)]                    # (f, n)
        order = np.argsort(Xs, axis=1, kind="stable")  # (f, n)
        sorted_x = np.take_along_axis(Xs, order, axis=1)
        sorted_y = y[idx][order]                       # (f, n)

        cum = np.cumsum(sorted_y, axis=1)              # prefix target sums
        total = cum[:, -1]                             # (f,)

        # Candidate split after position i: left = [0..i], right = [i+1..].
        counts_left = np.arange(1, n, dtype=np.float64)[None, :]
        counts_right = n - counts_left
        sum_left = cum[:, :-1]
        sum_right = total[:, None] - sum_left

        with np.errstate(divide="ignore", invalid="ignore"):
            gain = (
                sum_left**2 / (counts_left + lam)
                + sum_right**2 / (counts_right + lam)
                - total[:, None] ** 2 / (n + lam)
            )

        # Invalid where equal adjacent values (can't separate) or leaf-size
        # constraints would be violated.
        valid = sorted_x[:, :-1] < sorted_x[:, 1:]
        msl = self.min_samples_leaf
        if msl > 1:
            pos = np.arange(1, n)[None, :]
            valid &= (pos >= msl) & ((n - pos) >= msl)
        if not valid.any():
            # Degenerate node (e.g. every candidate feature constant):
            # the whole gain matrix is -inf. Bail out explicitly rather
            # than relying on argmax: argmax over an all--inf array
            # returns index 0, which was only ever safe because the
            # finite-gain check below rejected it.
            return None
        gain = np.where(valid, gain, -np.inf)

        # Scan the transposed view so ties break in (position, feature)
        # order — the same flat order the sample-major layout used, which
        # keeps exact-mode trees bit-identical across kernel refactors.
        flat = int(np.argmax(gain.T))
        row, col = np.unravel_index(flat, (n - 1, len(feats)))
        best_gain = gain[col, row]
        if not np.isfinite(best_gain) or best_gain <= 0.0:
            return None
        thr = 0.5 * (sorted_x[col, row] + sorted_x[col, row + 1])
        # Guard against midpoint rounding onto the upper value.
        if thr >= sorted_x[col, row + 1]:
            thr = sorted_x[col, row]
        left_mask = Xs[col, :] <= thr
        return float(best_gain), int(feats[col]), float(thr), left_mask


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
#: Values that tie, carry a sign on zero, are infinite, are subnormal
#: neighbours of zero, or overflow when two of them are added.
POOL = (0.0, -0.0, 1.0, -1.0, 2.5, 5e-324, -5e-324, float("inf"),
        float("-inf"), 1.5e308, 1.7e308, -1.5e308, -1.7e308)
#: The pool without the values that can put a NaN or infinite midpoint
#: on a split (the seed kernel then sends no row left and the fit
#: fails; the single-tree tests check that it still fails the same way).
SAFE_POOL = POOL[:7]
Y_POOL = (0.0, -0.0, 1.0, 3.0, 1e200)


@st.composite
def column(draw, n, pool):
    kind = draw(st.sampled_from(["pool", "floats", "constant"]))
    if kind == "constant":
        return [draw(st.sampled_from(pool))] * n
    if kind == "pool":
        some = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
        return draw(st.lists(st.sampled_from(some), min_size=n, max_size=n))
    return draw(st.lists(
        st.one_of(st.floats(-1e3, 1e3, width=64), st.sampled_from(pool)),
        min_size=n, max_size=n))


@st.composite
def matrices(draw, max_rows=40, pool=POOL, y_pool=Y_POOL):
    """(X, y) with ties, ±0.0, ±inf and duplicated rows."""
    n = draw(st.integers(1, max_rows))
    n_features = draw(st.integers(1, 5))
    X = np.array([draw(column(n, pool)) for _ in range(n_features)],
                 dtype=np.float64).T.reshape(n, n_features)
    y = np.array(draw(st.lists(
        st.one_of(st.floats(-1e6, 1e6, width=64), st.sampled_from(y_pool)),
        min_size=n, max_size=n)), dtype=np.float64)
    dup = draw(st.lists(st.integers(0, n - 1), max_size=n))
    if dup:
        X = np.vstack([X, X[dup]])
        y = np.concatenate([y, y[dup]])
    return X, y


@st.composite
def tree_params(draw, n_features):
    return dict(
        max_depth=draw(st.one_of(st.none(), st.integers(0, 6))),
        min_samples_split=draw(st.integers(2, 4)),
        min_samples_leaf=draw(st.integers(1, 3)),
        max_features=draw(st.one_of(
            st.none(), st.just("sqrt"), st.integers(1, n_features))),
        reg_lambda=draw(st.sampled_from([0.0, 1.0])),
        random_state=draw(st.integers(0, 2**32 - 1)),
    )


def _outcome(fit):
    """Tree arrays as bytes, or the exception type the fit raised."""
    try:
        tree = fit()
    except Exception as exc:  # the oracle decides what is legal
        return type(exc)
    return tuple(
        (getattr(tree.tree_, name).dtype.str,
         getattr(tree.tree_, name).tobytes())
        for name in _FIELDS
    )


def _same_trees(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in _FIELDS:
            x, w = getattr(a.tree_, name), getattr(b.tree_, name)
            assert x.dtype == w.dtype and x.tobytes() == w.tobytes(), name


_SETTINGS = settings(max_examples=300, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# Single trees
# ----------------------------------------------------------------------
@_SETTINGS
@given(data=st.data())
def test_tree_matches_seed_kernel(data):
    X, y = data.draw(matrices())
    params = data.draw(tree_params(X.shape[1]))
    got = _outcome(lambda: DecisionTreeRegressor(**params).fit(X, y))
    want = _outcome(lambda: SeedExactTree(**params).fit(X, y))
    assert got == want


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(20, 200), n_values=st.integers(2, 5),
       seed=st.integers(0, 2**32 - 1), min_samples_leaf=st.integers(1, 3))
def test_large_tied_nodes_match_seed_kernel(n, n_values, seed,
                                            min_samples_leaf):
    """A tied column next to a jittered copy that offers the same
    partitions. Both sum the same targets at every group boundary, in
    different orders, so their gains differ only by rounding, and which
    feature wins depends on the tied column's sums being accumulated in
    the stable order. An unstable sort shows up as a different split
    feature."""
    rng = np.random.default_rng(seed)
    tied = rng.integers(0, n_values, size=n).astype(np.float64)
    X = np.column_stack([tied, tied + rng.uniform(0.0, 0.5, size=n)])
    y = rng.normal(size=n)
    params = dict(min_samples_leaf=min_samples_leaf, random_state=seed)
    got = _outcome(lambda: DecisionTreeRegressor(**params).fit(X, y))
    want = _outcome(lambda: SeedExactTree(**params).fit(X, y))
    assert got == want


def test_int64_ranks_match_seed_kernel():
    """Above 65,535 rows the codes are int64; the trees are unchanged."""
    rng = np.random.default_rng(3)
    X = rng.choice([-0.0, 0.0, 1.5, 2.0, 7.0], size=(70_000, 2))
    y = X[:, 0] + rng.normal(size=70_000)
    assert rank_features(X).codes.dtype == np.int64
    got = _outcome(lambda: DecisionTreeRegressor(max_depth=3).fit(X, y))
    want = _outcome(lambda: SeedExactTree(max_depth=3).fit(X, y))
    assert got == want


@pytest.mark.parametrize("column", [
    [-1.7e308, -1.5e308],          # midpoint overflows to -inf
    [1.5e308, 1.7e308],            # midpoint overflows to +inf
    [float("-inf"), float("inf")],  # midpoint is NaN
    [-5e-324, -0.0, 0.0, 5e-324],  # midpoints round onto signed zeros
    [1.0, np.nextafter(1.0, 2.0)],  # midpoint rounds onto a neighbour
])
def test_threshold_corners_match_seed_kernel(column):
    X = np.array(column * 3, dtype=np.float64)[:, None]
    y = np.arange(X.shape[0], dtype=np.float64) % len(column)
    got = _outcome(lambda: DecisionTreeRegressor().fit(X, y))
    want = _outcome(lambda: SeedExactTree().fit(X, y))
    assert got == want


@_SETTINGS
@given(data=st.data())
def test_shared_ranks_on_row_subset_match_seed_kernel(data):
    """A member fit on gathered rows, with the ensemble's ranks taken
    to those rows, grows the tree the seed grows on the same rows."""
    X, y = data.draw(matrices())
    params = data.draw(tree_params(X.shape[1]))
    rows = np.array(data.draw(st.lists(
        st.integers(0, X.shape[0] - 1), min_size=1, max_size=60)))
    ranks = rank_features(X).take(rows)
    got = _outcome(lambda: DecisionTreeRegressor(**params).fit(
        X[rows], y[rows], bins=ranks))
    want = _outcome(lambda: SeedExactTree(**params).fit(X[rows], y[rows]))
    assert got == want


# ----------------------------------------------------------------------
# Whole ensembles
# ----------------------------------------------------------------------
#: Ensemble inputs: ties, signed zeros and subnormals, but every member
#: fit succeeds (the single-tree tests cover the failing corners).
_ENSEMBLE_MATRICES = matrices(max_rows=30, pool=SAFE_POOL, y_pool=Y_POOL[:4])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_bootstrap_forest_matches_per_tree_seed_fits(data):
    X, y = data.draw(_ENSEMBLE_MATRICES)
    n = X.shape[0]
    params = data.draw(tree_params(X.shape[1]))
    random_state = params.pop("random_state")
    params.pop("reg_lambda")
    n_estimators = data.draw(st.integers(1, 4))
    forest = RandomForestRegressor(
        n_estimators=n_estimators, random_state=random_state, **params
    ).fit(X, y)
    oracle = []
    for seed in spawn_seeds(random_state, n_estimators):
        rng = np.random.default_rng(seed)
        tree = SeedExactTree(random_state=int(rng.integers(0, 2**32 - 1)),
                             **params)
        sample = rng.integers(0, n, size=n)
        oracle.append(tree.fit(X[sample], y[sample]))
    _same_trees(forest.estimators_, oracle)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_subsampled_booster_matches_per_stage_seed_fits(data):
    X, y = data.draw(_ENSEMBLE_MATRICES)
    n = X.shape[0]
    params = data.draw(tree_params(X.shape[1]))
    random_state = params.pop("random_state")
    params.pop("min_samples_split")
    max_depth = params.pop("max_depth") or 3
    subsample = data.draw(st.sampled_from([0.5, 0.8, 1.0]))
    n_estimators = data.draw(st.integers(1, 4))
    booster = GradientBoostingRegressor(
        n_estimators=n_estimators, max_depth=max_depth, subsample=subsample,
        random_state=random_state, **params,
    ).fit(X, y)
    rng = np.random.default_rng(random_state)
    current = np.full(n, float(y.mean()))
    sample_size = max(1, int(round(subsample * n)))
    oracle = []
    for _ in range(n_estimators):
        residual = y - current
        tree = SeedExactTree(max_depth=max_depth,
                             random_state=rng.integers(0, 2**32 - 1),
                             **params)
        if sample_size < n:
            rows = rng.choice(n, size=sample_size, replace=False)
            tree.fit(X[rows], residual[rows])
        else:
            tree.fit(X, residual)
        current += booster.learning_rate * tree.tree_.predict(X)
        oracle.append(tree)
    _same_trees(booster.estimators_, oracle)
