"""The latent state of the synthetic crypto market.

Everything the simulator publishes — prices, market caps, on-chain
metrics, sentiment feeds, traditional indices, macro series — is a noisy
*view* of the latent state generated here. The state has five components,
each engineered to carry predictive signal at a specific horizon, which
is precisely the property the paper's experiments measure:

==================  =====================================================
component           role
==================  =====================================================
``regimes``         sticky bull/bear/sideways/crash chain → multi-month
                    trends (baseline drift & vol)
``macro``           very slow AR(1) factor entering returns with a
                    ``macro_lag``-day delay → long-horizon signal, seen
                    (noisily) by macro indicators and tradfi indices
``adoption``        monotone stochastic adoption curve setting the
                    fundamental value that prices revert toward → the
                    long-run anchor on-chain supply metrics encode
``flows``           persistent stablecoin net-inflow process whose
                    trailing 30-day mean enters daily drift → the
                    medium/long-horizon signal USDC metrics encode
``sentiment``       fast-reverting mood process feeding next-day returns
                    and chasing recent returns → short-horizon signal
==================  =====================================================

Daily market log-returns combine all five plus momentum (trailing 5-day
return re-entering drift, which is what makes technical indicators
genuinely predictive short-term).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..frame.index import DateIndex, date_range
from .config import SimulationConfig
from .regimes import RegimeProcess
from .rng import SeedBank

__all__ = ["LatentMarket", "generate_latent_market"]


@dataclass(frozen=True)
class LatentMarket:
    """Sampled latent state over a daily index (all arrays same length)."""

    index: DateIndex
    regimes: np.ndarray        # int in {0..3}
    macro: np.ndarray          # slow macro factor, roughly N(0, 1) scale
    adoption: np.ndarray       # monotone log-adoption level
    flows: np.ndarray          # stablecoin net inflow intensity
    sentiment: np.ndarray      # fast mood process, roughly N(0, 1) scale
    market_log_return: np.ndarray
    market_log_level: np.ndarray  # cumulative log level (starts near 0)

    @property
    def n_days(self) -> int:
        """Number of simulated days."""
        return len(self.index)

    def market_level(self) -> np.ndarray:
        """exp(log level) — the aggregate market size multiplier."""
        return np.exp(self.market_log_level)


def generate_latent_market(config: SimulationConfig) -> LatentMarket:
    """Simulate the latent market described in the module docstring."""
    index = date_range(config.start, end=config.end)
    n = len(index)
    bank = SeedBank(config.seed)

    regimes = RegimeProcess().sample(n, bank.generator("regimes"))
    drift = RegimeProcess.drift(regimes)
    vol = RegimeProcess.vol(regimes)

    macro = _macro_factor(n, bank)
    flows = _flow_process(n, regimes, bank.generator("flows"))
    adoption = _adoption_curve(n, regimes, flows, bank.generator("adoption"))

    eps = bank.generator("returns").normal(size=n)
    sent_noise = bank.generator("sentiment").normal(size=n)
    vol_state = _vol_modulation(n, bank.generator("vol_state"))
    jumps = _jump_component(n, bank)

    # The loop below runs over plain floats, in the same operation order
    # as an element-indexed numpy loop, so every output byte matches it.
    # Elementwise products are exact either way, so ``shock`` is
    # precomputed. The trailing 30-day flow mean does not depend on the
    # loop; it stays a per-slice ``mean``, whose summation order is fixed
    # by the slice, rather than a reduction over a strided window view,
    # whose order is up to numpy's iterator.
    fair = (0.5 * adoption).tolist()  # fundamental log value
    shock = (vol * vol_state * eps).tolist()
    flow_mean = [0.0] + [
        float(flows[max(0, t - 30):t].mean()) for t in range(1, n)
    ]
    drift = drift.tolist()
    jumps = jumps.tolist()
    sent_noise = sent_noise.tolist()
    macro_path = macro.tolist()

    lag = config.macro_lag
    sentiment: list[float] = []
    log_ret: list[float] = []
    log_lvl: list[float] = []
    level = 0.0
    sen = 0.0
    for t in range(n):
        mom = _small_mean(log_ret[max(0, t - 5):t]) if t > 0 else 0.0
        mac = macro_path[t - lag] if t >= lag else 0.0
        rev = config.reversion_speed * (fair[t] - level)
        ret = (
            drift[t]
            + config.momentum_coupling * mom
            + config.sentiment_coupling * sen
            + config.flow_coupling * flow_mean[t]
            + config.macro_coupling * mac
            + rev
            + shock[t]
            + jumps[t]
        )
        log_ret.append(ret)
        level += ret
        log_lvl.append(level)
        # Sentiment chases the recent tape but has its own persistent mood.
        recent = _small_mean(log_ret[max(0, t - 6):t + 1])
        sen = 0.90 * sen + 8.0 * recent + 0.30 * sent_noise[t]
        sentiment.append(sen)

    return LatentMarket(
        index=index,
        regimes=regimes,
        macro=macro,
        adoption=adoption,
        flows=flows,
        sentiment=np.array(sentiment, dtype=np.float64),
        market_log_return=np.array(log_ret, dtype=np.float64),
        market_log_level=np.array(log_lvl, dtype=np.float64),
    )


def _small_mean(values: list[float]) -> float:
    """numpy's float64 mean of a short (< 8 element) list, bit for bit.

    Below eight elements numpy's pairwise sum is a plain left-to-right
    accumulation onto the 0.0 identity. Python's ``sum`` is not: from
    3.12 it compensates float rounding.
    """
    total = 0.0
    for x in values:
        total += x
    return total / len(values)


def _vol_modulation(n: int, rng: np.random.Generator) -> np.ndarray:
    """GARCH-flavoured multiplicative volatility state.

    A persistent AR(1) on log-volatility produces the clustering of
    |returns| that real crypto markets show — calm months alternate with
    turbulent ones even within a single regime.
    """
    states = []
    state = 0.0
    for shock in rng.normal(scale=0.10, size=n).tolist():
        state = 0.97 * state + shock
        states.append(state)
    # numpy's exp of a scalar and of an array agree bit for bit;
    # math.exp does not.
    return np.exp(np.array(states, dtype=np.float64) - 0.17)  # mean ~1


def _jump_component(n: int, bank: SeedBank) -> np.ndarray:
    """Rare idiosyncratic shock days (exchange failures, forks, hacks).

    Roughly one jump per 150 trading days, sized 5-20 % with a negative
    skew — the isolated outliers behind crypto's fat return tails.
    One substream per draw keeps each array prefix-stable under
    extension (see :mod:`repro.synth.rng`).
    """
    jumps = np.zeros(n)
    hit = bank.substream("jumps", "hit").random(n) < 1.0 / 150.0
    sizes = bank.substream("jumps", "size").normal(
        loc=-0.02, scale=0.07, size=n
    )
    jumps[hit] = sizes[hit]
    return jumps


def _macro_factor(n: int, bank: SeedBank) -> np.ndarray:
    """Slow AR(1) with rare persistent level shifts (policy moves).

    One substream per draw keeps each array prefix-stable under
    extension (see :mod:`repro.synth.rng`).
    """
    out = []
    state = 0.0
    shocks = bank.substream("macro", "shocks").normal(scale=0.018, size=n)
    shift_days = bank.substream("macro", "shift_days").random(n) < 1.0 / 400.0
    shift_sizes = bank.substream("macro", "shift_sizes").normal(
        scale=0.8, size=n
    )
    for shock, shift, size in zip(
        shocks.tolist(), shift_days.tolist(), shift_sizes.tolist()
    ):
        state = 0.998 * state + shock
        if shift:
            state += size
        out.append(state)
    return np.array(out, dtype=np.float64)


def _adoption_curve(n: int, regimes: np.ndarray, flows: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """Monotone log-adoption: growth is faster in bull markets.

    Sustained capital inflows (the ``flows`` process) accelerate adoption,
    giving stablecoin flows a *permanent* effect on the fundamental value
    — the mechanism behind the long-horizon predictive power of USDC
    on-chain metrics the paper reports.
    """
    base = 0.0009
    bonus = np.where(regimes == 0, 0.0016, 0.0)   # bull accelerates
    penalty = np.where(regimes == 3, -0.0006, 0.0)  # crash stalls
    inflow_boost = 0.0012 * np.clip(flows, 0.0, None)
    increments = np.clip(
        base + bonus + penalty + inflow_boost
        + rng.normal(scale=0.0012, size=n),
        0.0, None,
    )
    return np.cumsum(increments)


def _flow_process(n: int, regimes: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Persistent stablecoin net inflows; bulls attract capital."""
    target = np.select(
        [regimes == 0, regimes == 1, regimes == 3],
        [0.75, -0.75, -1.8],
        default=0.05,
    )
    out = []
    state = 0.0
    noise = rng.normal(scale=0.16, size=n)
    for pull, shock in zip(target.tolist(), noise.tolist()):
        state = 0.965 * state + 0.035 * pull + shock
        out.append(state)
    return np.array(out, dtype=np.float64)
