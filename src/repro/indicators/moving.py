"""Moving averages: SMA, EMA, WMA.

Moving averages are the backbone of the paper's technical-indicator
category — Tables 3-4 show ``EMA100_market-cap``, ``EMA200_close-price``
and friends among the top short-term driving factors.
"""

from __future__ import annotations

import math

import numpy as np

from ..frame.ops import rolling_mean

__all__ = ["sma", "ema", "wma"]


def sma(values: np.ndarray, window: int) -> np.ndarray:
    """Simple moving average over a trailing ``window``; NaN warm-up."""
    return rolling_mean(values, window)


def ema(values: np.ndarray, span: int) -> np.ndarray:
    """Exponential moving average with smoothing ``alpha = 2/(span+1)``.

    Seeded with the first valid observation (standard convention); outputs
    before the first observation are NaN. Interior NaNs hold the previous
    EMA value (the series "coasts" through the gap).
    """
    if span < 1:
        raise ValueError("span must be >= 1")
    values = np.asarray(values, dtype=np.float64)
    alpha = 2.0 / (span + 1.0)
    # Plain-float recursion (``x != x`` is the NaN test): the same IEEE
    # operations in the same order as an element-indexed numpy loop, so
    # the output bytes match it exactly, at a fraction of the cost.
    out = []
    state = math.nan
    for x in values.tolist():
        if state != state:
            state = x if x == x else math.nan
        elif x == x:
            state = alpha * x + (1.0 - alpha) * state
        out.append(state)
    return np.array(out, dtype=np.float64)


def wma(values: np.ndarray, window: int) -> np.ndarray:
    """Linearly-weighted moving average (most recent weighs ``window``)."""
    if window < 1:
        raise ValueError("window must be >= 1")
    values = np.asarray(values, dtype=np.float64)
    out = np.full(values.size, np.nan)
    if values.size < window:
        return out
    weights = np.arange(1, window + 1, dtype=np.float64)
    weights /= weights.sum()
    windows = np.lib.stride_tricks.sliding_window_view(values, window)
    out[window - 1:] = windows @ weights
    return out
