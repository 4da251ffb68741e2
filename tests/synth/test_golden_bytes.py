"""Golden-bytes pins for the dataset generator.

The generator's per-day recurrences are written as plain-float loops
whose floating-point operations run in a fixed order, so every byte the
simulator emits is part of its contract: caches, reference digests and
the update-vs-cold bit-identity all key on it. These digests were
recorded before those loops were rewritten; any change to the order of
an operation shows up here as a digest mismatch.

numpy's random streams and ufunc kernels can change bits between
releases, so the pins only hold on the numpy version they were recorded
with; on any other version the test skips and says why.
"""

import hashlib

import numpy as np
import pytest

from repro.synth import SimulationConfig, generate_raw_dataset

#: numpy version the digests below were recorded with.
RECORDED_NUMPY = "2.4.6"

#: name → (config, sha256 of feature columns, sha256 of latent arrays).
GOLDEN = {
    "btc_usdc_2018": (
        SimulationConfig(start="2018-01-01", end="2019-06-30", seed=0,
                         n_assets=101),
        "78482b49674c2c19a1d0bc282887dfdb33cec2bba5df15bc540455a7fd4e6bd5",
        "a494703a501eef10a0a6428f72e91023aa6c7f6f6643323e3de2a8e735e31977",
    ),
    "with_eth": (
        SimulationConfig(start="2017-06-01", end="2019-03-31", seed=7,
                         n_assets=104, include_eth=True),
        "92629c48d5589629e006e7ccf376e764e02f33bba8aab5a10c4bd92ef7b9e729",
        "8a80000e53cf1610eaff3f708b7a426917ee46463dca7ca3d7ec1643155831e9",
    ),
    "short_macro_lag": (
        SimulationConfig(start="2018-06-01", end="2019-12-31", seed=1,
                         n_assets=101, macro_lag=3),
        "bc39f21cb15cbdc357c6c944ae681ae77c61112544f0fa46910d36682694e4ba",
        "86d678f919e928a1f3a441f9c678b74eb9d4f926fc08862438dafc29ac334dcf",
    ),
}

_LATENT_FIELDS = (
    "regimes", "macro", "adoption", "flows", "sentiment",
    "market_log_return", "market_log_level",
)


def _digest(named_arrays) -> str:
    h = hashlib.sha256()
    for name, values in named_arrays:
        values = np.ascontiguousarray(values)
        h.update(name.encode())
        h.update(str(values.dtype).encode())
        h.update(values.tobytes())
    return h.hexdigest()


def dataset_digests(config: SimulationConfig) -> tuple[str, str]:
    """(feature digest, latent digest) of one generated dataset."""
    raw = generate_raw_dataset(config)
    features = _digest(
        (name, raw.features[name]) for name in raw.features.columns
    )
    latent = _digest(
        (name, getattr(raw.latent, name)) for name in _LATENT_FIELDS
    )
    return features, latent


@pytest.mark.skipif(
    np.__version__ != RECORDED_NUMPY,
    reason=f"golden digests were recorded with numpy {RECORDED_NUMPY}; "
           f"this is numpy {np.__version__}",
)
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_generator_bytes_match_golden(name):
    config, features, latent = GOLDEN[name]
    assert dataset_digests(config) == (features, latent)
