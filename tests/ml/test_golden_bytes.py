"""Golden-bytes pins for exact-splitter ensembles.

Exact-mode trees are part of the reproduction's contract: caches,
reference digests and every paper table key on their bytes. These
digests cover all seven :class:`~repro.ml.tree.TreeStructure` arrays of
every member of a random forest (bootstrap members) and a gradient
booster (subsampled and full-sample stages) on two small seeded
matrices, one of them with a discrete, heavily tied column, a signed
zero column and a constant column. They were recorded before the exact
kernel moved from float sorting to rank codes; any change to a split
choice, a threshold's bytes or the order in which a sum accumulates
shows up as a digest mismatch.

numpy's random streams and sort kernels can change bits between
releases, so the pins only hold on the numpy version they were recorded
with; on any other version the test skips and says why.
"""

import hashlib

import numpy as np
import pytest

from repro.ml import GradientBoostingRegressor, RandomForestRegressor

#: numpy version the digests below were recorded with.
RECORDED_NUMPY = "2.4.6"

_TREE_FIELDS = ("children_left", "children_right", "feature", "threshold",
                "value", "n_node_samples", "impurity")


def _gaussian():
    rng = np.random.default_rng(2024)
    X = rng.normal(size=(120, 8))
    y = X[:, 0] - 2.0 * X[:, 1] * X[:, 2] + 0.5 * rng.normal(size=120)
    return X, y


def _discrete():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(150, 6))
    X[:, 0] = rng.choice([-1.0, 0.0, 1.0, 2.5], size=150)
    X[:, 1] = rng.choice([-0.0, 0.0, 3.0], size=150)
    X[:, 5] = 4.0
    y = 3.0 * X[:, 0] + X[:, 1] - X[:, 2] + 0.2 * rng.normal(size=150)
    return X, y


MATRICES = {"gaussian": _gaussian, "discrete": _discrete}

MODELS = {
    "forest": lambda: RandomForestRegressor(
        n_estimators=4, max_features="sqrt", random_state=3),
    "forest_leaf2": lambda: RandomForestRegressor(
        n_estimators=3, max_depth=6, min_samples_leaf=2, random_state=5),
    "booster_sub": lambda: GradientBoostingRegressor(
        n_estimators=5, max_depth=3, subsample=0.7, random_state=1),
    "booster_full": lambda: GradientBoostingRegressor(
        n_estimators=4, max_depth=4, max_features=3, reg_lambda=0.0,
        random_state=2),
}

#: (matrix, model) → sha256 of every member tree's arrays.
GOLDEN = {
    ("discrete", "booster_full"):
        "4fd3f0f57cd447510f47e1cd2bacde1b7e3f927290de305db3cb6bd1a08c38e1",
    ("discrete", "booster_sub"):
        "95dff4d7b6d46d2f0ec6fda7dfd762f27c7556c73044f13f803d35db8ad3fb13",
    ("discrete", "forest"):
        "f38a2b1aaea11ab9773e18de6e3cf86c36fc81f250f223465db1dec9d045e293",
    ("discrete", "forest_leaf2"):
        "c60b5c8373dc6703ee6342c4d1b9f993a5d411d437ecfd9cc8146840075f04da",
    ("gaussian", "booster_full"):
        "5cef2fa7f57797278233ed280de99e3c322251d666562a06f47f2f3ce6dcea64",
    ("gaussian", "booster_sub"):
        "cf02277a04e67d4d1d98499bf2c13d5abf7e939e462a20c91a1707e244a795ad",
    ("gaussian", "forest"):
        "024c24ff1ddc1dd9312ed51cd8fb5f17c3f688699f01a767d26d03b4d4d216fa",
    ("gaussian", "forest_leaf2"):
        "9ef5a8466f8568bcb6574386715016174fa05080d0e82feaa11abdb713780374",
}


def ensemble_digest(model) -> str:
    """sha256 over name, dtype and bytes of every member tree array."""
    h = hashlib.sha256()
    for tree in model.estimators_:
        for name in _TREE_FIELDS:
            values = np.ascontiguousarray(getattr(tree.tree_, name))
            h.update(name.encode())
            h.update(str(values.dtype).encode())
            h.update(values.tobytes())
    return h.hexdigest()


@pytest.mark.skipif(
    np.__version__ != RECORDED_NUMPY,
    reason=f"golden digests were recorded with numpy {RECORDED_NUMPY}; "
           f"this is numpy {np.__version__}",
)
@pytest.mark.parametrize("matrix,model", sorted(GOLDEN))
def test_exact_ensemble_bytes_match_golden(matrix, model):
    X, y = MATRICES[matrix]()
    fitted = MODELS[model]().fit(X, y)
    assert ensemble_digest(fitted) == GOLDEN[(matrix, model)]
