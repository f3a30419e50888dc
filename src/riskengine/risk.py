"""Empirical VaR and expected shortfall from scenario returns.

Sign convention: returns are log returns, losses are negative numbers. The
alpha-level VaR is the empirical alpha-quantile of the scenario return
distribution (linear interpolation between order statistics), and ES is the
mean of the n_tail smallest scenarios, those at or below that quantile,
summed in ascending order, so es <= var always. VaR is Hyndman-Fan type 7:
at an integer rank h = alpha (n - 1), a new draw from the n scenarios'
continuous distribution falls below it with chance (h + 1) / (n + 1) > alpha
(1.485% at alpha 1%, n = 201).

Estimates are plain (column, alpha) arrays from var_es_columns, a checking
wrapper over _var_es_rows, the row kernel the engine calls once per
model-day. Both are positively homogeneous, so scaling them by a volatility
ratio equals re-estimating from the scenarios times that ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, ShapeError, TailEmptyError, ValidationError


@dataclass(frozen=True, eq=False)
class PortfolioSpec:
    """Fixed portfolio weights, one per ticker; shorts are permitted.

    Tickers must be strings and weights real numbers: a weight given as a
    string or a bool is rejected rather than coerced to float.
    """

    tickers: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self):
        if isinstance(self.tickers, str):
            raise ValidationError(f"tickers must be a list of names, got {self.tickers!r}")
        object.__setattr__(self, "tickers", tuple(self.tickers))
        bad = [t for t in self.tickers if not isinstance(t, str)]
        if bad:
            raise ValidationError(f"tickers must be strings, got {bad[0]!r}")
        # an object array keeps each weight's own type, which a float one would coerce
        w = np.array(self.weights, dtype=object)
        if w.ndim != 1 or w.shape[0] != len(self.tickers):
            raise ShapeError(
                f"{w.shape} weights for {len(self.tickers)} tickers"
            )
        bad = [v for v in w if isinstance(v, bool)
               or not isinstance(v, (int, float, np.integer, np.floating))]
        if bad:
            raise ValidationError(f"weights must be numbers, got {bad[0]!r}")
        w = w.astype(float)
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


def _quantiles(rows: np.ndarray, alphas):
    """(top, var): the alphas-quantiles of each row (numpy "linear") in var,
    shaped (..., len(alphas)), after sorting each row in place only up to
    top, the largest rank read; a partition at top leaves later entries >= it."""
    m = rows.shape[-1]
    ranks = [int(alpha * (m - 1)) for alpha in alphas]  # each <= m - 2, as alpha < 1
    top = max(ranks, default=-1) + 1
    if top < m - 1:
        rows.partition(top, axis=-1)  # one kth: a tuple of kths costs more than a sort
    rows[..., : top + 1].sort(axis=-1)
    var = np.empty(rows.shape[:-1] + (len(ranks),))
    for a, (alpha, lo) in enumerate(zip(alphas, ranks)):
        low, high = rows[..., lo], rows[..., lo + 1]
        var[..., a] = low + (alpha * (m - 1) - lo) * (high - low)
    return top, var


def var_es_columns(samples, alphas):
    """Empirical VaR, ES and tail counts of every column of a sample matrix.

    samples is (n, cols); returns float arrays var and es and an int array
    n_tail, each shaped (cols, len(alphas)). A single series is the
    one-column case, samples[:, None]. Needs ceil(1/alpha) rows per alpha.
    Checks its input, then reads a transposed copy with _var_es_rows, so
    samples is left untouched.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2:
        raise ShapeError(f"samples must be (n, cols), got ndim={x.ndim}")
    for alpha in alphas:
        if not 0.0 < alpha < 1.0:
            raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
        need = math.ceil(1.0 / alpha)
        if x.shape[0] < need:
            raise InsufficientDataError(
                f"need at least ceil(1/alpha) = {need} scenarios for "
                f"alpha={alpha}, got {x.shape[0]}"
            )
    return _var_es_rows(x.T.copy(), alphas)


def _var_es_rows(ordered, alphas):
    """var, es and n_tail, each (rows, len(alphas)), of every row of a
    C-contiguous float array, read in place: each row is partitioned once
    and sorted up to the largest rank any alpha reads, so VaR is the
    full-sort quantile. ES is the mean of the n_tail smallest scenarios,
    those <= VaR (inclusive), summed in ascending order; a row whose ties
    run past the sorted ranks is sorted in full. Each row reads as it would
    alone. The caller has checked alphas and the row length; a non-finite
    entry is a ValidationError, and TailEmptyError marks a nan VaR, from an
    overflowing gap between ranks.
    """
    if not np.isfinite(ordered).all():
        raise ValidationError("samples contain non-finite entries")
    top, var = _quantiles(ordered, alphas)
    head = ordered[:, None, : top + 1]
    below = head <= var[:, :, None]
    n_tail = below.sum(axis=-1)
    # entries past rank top are >= it, so only a row whose whole head is
    # tail can have more, through ties: sort those in full, read every rank
    if n_tail.max(initial=0) > top:
        spill = (n_tail > top).any(axis=-1)
        ordered[spill] = np.sort(ordered[spill], axis=-1)
        head = ordered[:, None, :]
        below = head <= var[:, :, None]
        n_tail = below.sum(axis=-1)
    if not n_tail.all():
        raise TailEmptyError(f"no scenarios at or below the VaR quantile in {var}")
    # a masked sum adds each row's leading run of n_tail entries alone
    es = head.repeat(len(alphas), axis=1).sum(axis=-1, where=below) / n_tail
    return var, es, n_tail
