"""Oracle tests for the generator's plain-float per-day loops.

The synth recurrences (latent market, regime chain, macro factor, flows,
volatility state, wealth concentration, internal EMA, policy rates,
month ids) run over Python floats. Each oracle below is the
element-indexed numpy loop it replaced, kept verbatim; the new code must
reproduce its output byte for byte. See :mod:`tests.float_oracles` for
the one thing the byte contract leaves out: the sign of a NaN made from
two NaNs of different sign.
"""

import datetime as dt

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frame.index import date_range
from repro.synth import RegimeProcess, SeedBank, SimulationConfig
from repro.synth import latent as latent_mod
from repro.synth.latent import _small_mean, generate_latent_market
from repro.synth.macro import _monthly_hold, _policy_rate
from repro.synth.onchain import _concentration_path, _ema_like
from repro.synth.sentiment import _month_ids
from tests.float_oracles import (
    ANY,
    NO_NAN,
    SAME_SIGN_NANS,
    same_bytes,
    same_up_to_nan_sign,
    series,
)

_lengths = st.integers(0, 400)
_seeds = st.integers(0, 2**32 - 1)


def _rng(seed):
    return np.random.default_rng(seed)


# -- verbatim oracles -------------------------------------------------------

def vol_modulation_oracle(n: int, rng: np.random.Generator) -> np.ndarray:
    out = np.empty(n)
    state = 0.0
    shocks = rng.normal(scale=0.10, size=n)
    for t in range(n):
        state = 0.97 * state + shocks[t]
        out[t] = np.exp(state - 0.17)  # -sigma^2/2-ish: mean ~1
    return out


def macro_factor_oracle(n: int, bank: SeedBank) -> np.ndarray:
    out = np.zeros(n)
    state = 0.0
    shocks = bank.substream("macro", "shocks").normal(scale=0.018, size=n)
    shift_days = bank.substream("macro", "shift_days").random(n) < 1.0 / 400.0
    shift_sizes = bank.substream("macro", "shift_sizes").normal(
        scale=0.8, size=n
    )
    for t in range(n):
        state = 0.998 * state + shocks[t]
        if shift_days[t]:
            state += shift_sizes[t]
        out[t] = state
    return out


def flow_process_oracle(n: int, regimes: np.ndarray,
                        rng: np.random.Generator) -> np.ndarray:
    target = np.select(
        [regimes == 0, regimes == 1, regimes == 3],
        [0.75, -0.75, -1.8],
        default=0.05,
    )
    out = np.zeros(n)
    state = 0.0
    noise = rng.normal(scale=0.16, size=n)
    for t in range(n):
        state = 0.965 * state + 0.035 * target[t] + noise[t]
        out[t] = state
    return out


def regime_sample_oracle(transitions, n_days, rng, initial=2):
    path = np.empty(n_days, dtype=np.int64)
    state = int(initial)
    cdf = np.cumsum(transitions, axis=1)
    draws = rng.random(n_days)
    for t in range(n_days):
        path[t] = state
        state = int(np.searchsorted(cdf[state], draws[t], side="right"))
        state = min(state, 3)
    return path


def concentration_path_oracle(n: int, rng: np.random.Generator) -> np.ndarray:
    out = np.empty(n)
    state = 1.55
    noise = rng.normal(scale=0.0018, size=n)
    for t in range(n):
        # gentle mean reversion toward 1.20 plus a slow secular decline
        state += -0.0002 * (state - 1.20) - 0.00008 + noise[t]
        state = min(max(state, 1.12), 1.9)
        out[t] = state
    return out


def ema_like_oracle(values: np.ndarray, span: int) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    out = np.empty_like(values)
    if values.size == 0:
        return out
    alpha = 2.0 / (span + 1.0)
    state = values[0]
    for i, x in enumerate(values):
        state = alpha * x + (1 - alpha) * state
        out[i] = state
    return out


def monthly_hold_oracle(values: np.ndarray,
                        block_ids: np.ndarray) -> np.ndarray:
    out = np.empty_like(values, dtype=np.float64)
    change = np.ones(values.size, dtype=bool)
    change[1:] = block_ids[1:] != block_ids[:-1]
    current = values[0]
    for i in range(values.size):
        if change[i]:
            current = values[i]
        out[i] = current
    return out


def policy_rate_oracle(lagged_macro: np.ndarray, base: float,
                       sensitivity: float,
                       rng: np.random.Generator) -> np.ndarray:
    n = lagged_macro.size
    rate = base
    out = np.empty(n)
    meeting_noise = rng.normal(scale=0.1, size=n)
    for t in range(n):
        if t % 42 == 0:  # policy meeting
            target = base + sensitivity * lagged_macro[t] + meeting_noise[t]
            step = np.clip(round((target - rate) / 0.25), -2, 2) * 0.25
            rate = max(rate + step, -0.75)
        out[t] = rate
    return out


def month_ids_oracle(ordinals: np.ndarray) -> np.ndarray:
    ids = np.empty(ordinals.size, dtype=np.int64)
    for i, o in enumerate(ordinals):
        d = dt.date.fromordinal(int(o))
        ids[i] = d.year * 12 + d.month
    return ids


def latent_oracle(config: SimulationConfig) -> dict[str, np.ndarray]:
    """The seed ``generate_latent_market`` main loop, verbatim."""
    index = date_range(config.start, end=config.end)
    n = len(index)
    bank = SeedBank(config.seed)

    regimes = RegimeProcess().sample(n, bank.generator("regimes"))
    drift = RegimeProcess.drift(regimes)
    vol = RegimeProcess.vol(regimes)

    macro = latent_mod._macro_factor(n, bank)
    flows = latent_mod._flow_process(n, regimes, bank.generator("flows"))
    adoption = latent_mod._adoption_curve(
        n, regimes, flows, bank.generator("adoption")
    )

    eps = bank.generator("returns").normal(size=n)
    sent_noise = bank.generator("sentiment").normal(size=n)
    vol_state = latent_mod._vol_modulation(n, bank.generator("vol_state"))
    jumps = latent_mod._jump_component(n, bank)

    sentiment = np.zeros(n)
    log_ret = np.zeros(n)
    log_lvl = np.zeros(n)
    fair = 0.5 * adoption  # fundamental log value implied by adoption

    lag = config.macro_lag
    level = 0.0
    for t in range(n):
        mom = log_ret[max(0, t - 5):t].mean() if t > 0 else 0.0
        sen = sentiment[t - 1] if t > 0 else 0.0
        flo = flows[max(0, t - 30):t].mean() if t > 0 else 0.0
        mac = macro[t - lag] if t >= lag else 0.0
        rev = config.reversion_speed * (fair[t] - level)
        ret = (
            drift[t]
            + config.momentum_coupling * mom
            + config.sentiment_coupling * sen
            + config.flow_coupling * flo
            + config.macro_coupling * mac
            + rev
            + vol[t] * vol_state[t] * eps[t]
            + jumps[t]
        )
        log_ret[t] = ret
        level += ret
        log_lvl[t] = level
        # Sentiment chases the recent tape but has its own persistent mood.
        recent = log_ret[max(0, t - 6):t + 1].mean()
        prev = sentiment[t - 1] if t > 0 else 0.0
        sentiment[t] = 0.90 * prev + 8.0 * recent + 0.30 * sent_noise[t]

    return {
        "sentiment": sentiment,
        "market_log_return": log_ret,
        "market_log_level": log_lvl,
    }


# -- properties -------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(n=_lengths, seed=_seeds)
def test_vol_modulation_matches_oracle(n, seed):
    assert same_bytes(latent_mod._vol_modulation(n, _rng(seed)),
                       vol_modulation_oracle(n, _rng(seed)))


@settings(max_examples=100, deadline=None)
@given(n=_lengths, seed=_seeds)
def test_macro_factor_matches_oracle(n, seed):
    assert same_bytes(latent_mod._macro_factor(n, SeedBank(seed)),
                       macro_factor_oracle(n, SeedBank(seed)))


@settings(max_examples=100, deadline=None)
@given(regimes=st.lists(st.integers(0, 3), max_size=400), seed=_seeds)
def test_flow_process_matches_oracle(regimes, seed):
    regimes = np.array(regimes, dtype=np.int64)
    n = regimes.size
    assert same_bytes(latent_mod._flow_process(n, regimes, _rng(seed)),
                       flow_process_oracle(n, regimes, _rng(seed)))


@settings(max_examples=100, deadline=None)
@given(n=_lengths, seed=_seeds, initial=st.integers(0, 3),
       rows=st.lists(
           st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
           min_size=4, max_size=4,
       ))
def test_regime_sample_matches_oracle(n, seed, initial, rows):
    # Random row-stochastic matrices, including zero-probability states
    # (repeated cdf values, where the right-sided search matters).
    matrix = np.array(rows)
    matrix[matrix.sum(axis=1) == 0.0, 0] = 1.0
    matrix /= matrix.sum(axis=1, keepdims=True)
    process = RegimeProcess(matrix)
    got = process.sample(n, _rng(seed), initial=initial)
    assert same_bytes(
        got, regime_sample_oracle(process.transitions, n, _rng(seed),
                                  initial)
    )


@settings(max_examples=100, deadline=None)
@given(n=_lengths, seed=_seeds)
def test_regime_sample_default_matrix_matches_oracle(n, seed):
    process = RegimeProcess()
    assert same_bytes(
        process.sample(n, _rng(seed)),
        regime_sample_oracle(process.transitions, n, _rng(seed)),
    )


@settings(max_examples=100, deadline=None)
@given(n=_lengths, seed=_seeds)
def test_concentration_path_matches_oracle(n, seed):
    assert same_bytes(_concentration_path(n, _rng(seed)),
                       concentration_path_oracle(n, _rng(seed)))


@settings(max_examples=200, deadline=None)
@given(values=SAME_SIGN_NANS, span=st.integers(1, 250))
def test_ema_like_matches_oracle(values, span):
    with np.errstate(all="ignore"):
        want = ema_like_oracle(values, span)
    assert same_bytes(_ema_like(values, span), want)


@settings(max_examples=200, deadline=None)
@given(values=series(), span=st.integers(1, 250))
def test_ema_like_matches_oracle_up_to_nan_sign(values, span):
    with np.errstate(all="ignore"):
        want = ema_like_oracle(values, span)
    assert same_up_to_nan_sign(_ema_like(values, span), want)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(ANY, min_size=1, max_size=400), data=st.data())
def test_monthly_hold_matches_oracle(values, data):
    values = np.array(values, dtype=np.float64)
    steps = data.draw(st.lists(st.integers(0, 2), min_size=values.size,
                               max_size=values.size))
    block_ids = np.cumsum(steps)
    assert same_bytes(_monthly_hold(values, block_ids),
                       monthly_hold_oracle(values, block_ids))


def test_monthly_hold_empty():
    empty = np.array([], dtype=np.float64)
    assert _monthly_hold(empty, np.array([], dtype=np.int64)).size == 0


@settings(max_examples=100, deadline=None)
@given(lagged=st.lists(st.floats(-1e6, 1e6), max_size=400),
       base=st.floats(-2.0, 5.0), sensitivity=st.floats(-3.0, 3.0),
       seed=_seeds)
def test_policy_rate_matches_oracle(lagged, base, sensitivity, seed):
    lagged = np.array(lagged, dtype=np.float64)
    assert same_bytes(
        _policy_rate(lagged, base, sensitivity, _rng(seed)),
        policy_rate_oracle(lagged, base, sensitivity, _rng(seed)),
    )


@settings(max_examples=100, deadline=None)
@given(ordinals=st.lists(st.integers(1, dt.date.max.toordinal()),
                         max_size=400))
def test_month_ids_matches_oracle(ordinals):
    ordinals = np.array(ordinals, dtype=np.int64)
    assert same_bytes(_month_ids(ordinals), month_ids_oracle(ordinals))


@settings(max_examples=300, deadline=None)
@given(values=st.one_of(
    st.lists(NO_NAN, min_size=1, max_size=7),
    # return-sized values, where the summation order shows in rounding
    st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=7),
))
def test_small_mean_equals_numpy_mean(values):
    with np.errstate(all="ignore"):
        want = np.array(values, dtype=np.float64).mean()
    assert same_bytes(np.float64(_small_mean(values)), want)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(ANY, min_size=1, max_size=7))
def test_small_mean_equals_numpy_mean_up_to_nan_sign(values):
    with np.errstate(all="ignore"):
        want = np.array(values, dtype=np.float64).mean()
    assert same_up_to_nan_sign(np.float64(_small_mean(values)), want)


@settings(max_examples=40, deadline=None)
@given(seed=_seeds, days=st.integers(1, 400),
       macro_lag=st.integers(0, 120),
       momentum=st.floats(-0.5, 0.5), sentiment=st.floats(-0.05, 0.05),
       flow=st.floats(-0.05, 0.05), macro=st.floats(-0.05, 0.05))
def test_latent_market_matches_oracle(seed, days, macro_lag, momentum,
                                      sentiment, flow, macro):
    start = dt.date(2017, 1, 1)
    config = SimulationConfig(
        start=start.isoformat(),
        end=(start + dt.timedelta(days=days - 1)).isoformat(),
        seed=seed, macro_lag=macro_lag, momentum_coupling=momentum,
        sentiment_coupling=sentiment, flow_coupling=flow,
        macro_coupling=macro,
    )
    got = generate_latent_market(config)
    for name, want in latent_oracle(config).items():
        assert same_bytes(getattr(got, name), want), name
