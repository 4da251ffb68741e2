"""Oracle tests for the plain-float indicator recurrences.

``ema`` and the Wilder loop in ``rsi`` run over Python floats. Each
oracle below is the element-indexed numpy loop they replaced, kept
verbatim; the kernels must reproduce its output byte for byte,
including NaN gaps, signed zeros and infinities.

See :mod:`tests.float_oracles` for the one thing the byte contract
leaves out: the sign of a NaN made from two NaNs of different sign.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indicators import ema, rsi
from tests.float_oracles import (
    NAN,
    SAME_SIGN_NANS,
    same_bytes,
    same_up_to_nan_sign,
    series,
)


# -- verbatim oracles -------------------------------------------------------

def ema_oracle(values: np.ndarray, span: int) -> np.ndarray:
    if span < 1:
        raise ValueError("span must be >= 1")
    values = np.asarray(values, dtype=np.float64)
    alpha = 2.0 / (span + 1.0)
    out = np.full(values.size, np.nan)
    state = np.nan
    for i, x in enumerate(values):
        if np.isnan(state):
            state = x if not np.isnan(x) else np.nan
        elif not np.isnan(x):
            state = alpha * x + (1.0 - alpha) * state
        out[i] = state
    return out


def rsi_oracle(values: np.ndarray, window: int = 14) -> np.ndarray:
    if window < 1:
        raise ValueError("window must be >= 1")
    values = np.asarray(values, dtype=np.float64)
    out = np.full(values.size, np.nan)
    if values.size <= window:
        return out
    delta = np.diff(values)
    gains = np.clip(delta, 0.0, None)
    losses = np.clip(-delta, 0.0, None)
    # Wilder: first average is plain mean, then recursive smoothing.
    avg_gain = gains[:window].mean()
    avg_loss = losses[:window].mean()
    out[window] = _rsi_from_averages(avg_gain, avg_loss)
    for i in range(window, delta.size):
        avg_gain = (avg_gain * (window - 1) + gains[i]) / window
        avg_loss = (avg_loss * (window - 1) + losses[i]) / window
        out[i + 1] = _rsi_from_averages(avg_gain, avg_loss)
    return out


def _rsi_from_averages(avg_gain: float, avg_loss: float) -> float:
    if avg_loss == 0.0 and avg_gain == 0.0:
        return 50.0  # flat market: neutral
    if avg_loss == 0.0:
        return 100.0
    return 100.0 - 100.0 / (1.0 + avg_gain / avg_loss)


# -- properties -------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(values=series(), span=st.integers(1, 250))
def test_ema_matches_oracle_bytes(values, span):
    with np.errstate(all="ignore"):
        want = ema_oracle(values, span)
    assert same_bytes(ema(values, span), want)


@settings(max_examples=200, deadline=None)
@given(values=SAME_SIGN_NANS, window=st.integers(1, 250))
def test_rsi_matches_oracle_bytes(values, window):
    with np.errstate(all="ignore"):
        want = rsi_oracle(values, window)
        got = rsi(values, window)
    assert same_bytes(got, want)


@settings(max_examples=200, deadline=None)
@given(values=series(), window=st.integers(1, 250))
def test_rsi_matches_oracle_up_to_nan_sign(values, window):
    with np.errstate(all="ignore"):
        want = rsi_oracle(values, window)
        got = rsi(values, window)
    assert same_up_to_nan_sign(got, want)


@settings(max_examples=100, deadline=None)
@given(walk=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=400),
       window=st.integers(1, 250))
def test_rsi_matches_oracle_on_price_paths(walk, window):
    # Finite random-walk prices: the regime the indicator suite sees.
    values = 1000.0 + np.cumsum(walk)
    assert same_bytes(rsi(values, window), rsi_oracle(values, window))


def test_ema_all_nan_and_empty():
    assert same_bytes(ema(np.array([]), 5), ema_oracle(np.array([]), 5))
    nan3 = np.full(3, NAN)
    assert same_bytes(ema(nan3, 5), ema_oracle(nan3, 5))
