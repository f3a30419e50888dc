"""Empirical VaR and expected shortfall from scenario returns.

Sign convention: returns are log returns, losses are negative numbers. The
alpha-level VaR is the empirical alpha-quantile of the scenario return
distribution (linear interpolation between order statistics), and ES is the
mean of the scenarios at or below that quantile, so es <= var always.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    InsufficientDataError,
    ShapeError,
    TailEmptyError,
    ValidationError,
)


@dataclass(frozen=True, eq=False)
class PortfolioSpec:
    """Fixed portfolio weights, one per ticker; shorts are permitted."""

    tickers: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tickers", tuple(self.tickers))
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or w.shape[0] != len(self.tickers):
            raise ShapeError(
                f"{w.shape} weights for {len(self.tickers)} tickers"
            )
        if len(set(self.tickers)) != len(self.tickers):
            raise ValidationError("duplicate tickers in portfolio")
        if not np.all(np.isfinite(w)):
            raise ValidationError("weights must be finite")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValidationError(f"weights sum to {w.sum()!r}, not 1")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def equal(cls, tickers) -> "PortfolioSpec":
        tickers = tuple(tickers)
        n = len(tickers)
        if n == 0:
            raise ValidationError("portfolio needs at least one ticker")
        return cls(tickers=tickers, weights=np.full(n, 1.0 / n))


@dataclass(frozen=True)
class RiskEstimate:
    """One VaR/ES figure with its provenance.

    n_tail counts the scenarios that entered the ES average; closed-form
    estimates (no scenario tail) carry n_tail = 0. seed is the simulation
    seed for Monte Carlo estimates and -1 for deterministic ones.
    """

    alpha: float
    var: float
    es: float
    n_tail: int
    model_tag: str
    seed: int

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError(f"alpha must be in (0, 1), got {self.alpha}")
        if not (np.isfinite(self.var) and np.isfinite(self.es)):
            raise ValidationError("var/es must be finite")
        if self.es > self.var + 1e-12 * max(1.0, abs(self.var)):
            raise ValidationError(
                f"es {self.es} exceeds var {self.var}; tail mean cannot sit "
                f"above its quantile"
            )
        if self.n_tail < 0:
            raise ValidationError(f"n_tail must be >= 0, got {self.n_tail}")


def quantile(samples, alpha: float) -> float:
    """Empirical quantile with linear interpolation between order stats.

    Uses the rank h = alpha * (n - 1) + 1 convention (the same one numpy
    calls "linear"): the result interpolates between the floor(h)-th and
    (floor(h)+1)-th smallest observations.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < 2:
        raise InsufficientDataError(
            f"quantile needs at least 2 samples, got {x.size}"
        )
    if not np.all(np.isfinite(x)):
        raise ValidationError("samples contain non-finite entries")
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    s = np.sort(x)
    g = alpha * (x.size - 1)
    lo = int(g)
    if lo + 1 >= x.size:
        return float(s[-1])
    frac = g - lo
    return float(s[lo] + frac * (s[lo + 1] - s[lo]))


def var_es(
    scenario_returns,
    alpha: float,
    model_tag: str = "sample",
    seed: int = -1,
) -> RiskEstimate:
    """Empirical VaR and ES of a scenario return vector.

    Requires at least ceil(1/alpha) scenarios so the tail holds at least one
    expected point. ES averages every scenario <= VaR (inclusive), which is
    never empty under the interpolation convention; TailEmptyError guards
    the impossible case anyway.
    """
    x = np.asarray(scenario_returns, dtype=float).ravel()
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    need = int(np.ceil(1.0 / alpha))
    if x.size < need:
        raise InsufficientDataError(
            f"need at least ceil(1/alpha) = {need} scenarios for "
            f"alpha={alpha}, got {x.size}"
        )
    v = quantile(x, alpha)
    tail = x[x <= v]
    if tail.size == 0:
        raise TailEmptyError(f"no scenarios at or below the VaR quantile {v}")
    return RiskEstimate(
        alpha=alpha,
        var=v,
        es=float(tail.mean()),
        n_tail=int(tail.size),
        model_tag=model_tag,
        seed=seed,
    )


def adjust(estimate: RiskEstimate, ratio: float) -> RiskEstimate:
    """Scale an estimate's var and es by a volatility ratio.

    Equivalent to rescaling the underlying scenarios by the same factor and
    re-estimating, since both quantile and tail mean are positively
    homogeneous. ratio is a positive float.
    """
    c = float(ratio)
    if not np.isfinite(c) or c <= 0:
        raise ValidationError(f"adjustment ratio must be positive, got {c}")
    return replace(estimate, var=estimate.var * c, es=estimate.es * c)
