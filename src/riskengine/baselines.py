"""Classical one-day VaR baselines: historical, parametric normal, GBM-MC.

Each calibrates on a rolling window of log returns and returns VaR/ES as
plain (column, alpha) arrays. Historical simulation is risk.var_es_columns
over the window itself, so there is exactly one quantile implementation in
the package; parametric_columns is the closed-form normal, a checking
wrapper over the row kernel _parametric_rows. A portfolio is one more
series, w . r per window day or path, like its realized return.
"""

from __future__ import annotations

import numpy as np

from .distributions import normal_pdf, normal_ppf
from .errors import DegenerateDataError, InsufficientDataError, ShapeError, ValidationError
from .risk import var_es_columns
from .scenario import simulate_gbm_portfolio


def parametric_columns(window, alphas):
    """Normal VaR and closed-form ES of every column of a (rows, cols) window.

    var = mu + sigma z_alpha, es = mu - sigma phi(z_alpha)/alpha, with mu and
    sigma a column's population moments; returns (cols, len(alphas)) arrays.
    Checks the window's shape, then reads a transposed copy with
    _parametric_rows.
    """
    x = np.asarray(window, dtype=float)
    if x.ndim != 2:
        raise ValidationError(f"expected a (rows, cols) window, got ndim={x.ndim}")
    return _parametric_rows(np.ascontiguousarray(x.T), alphas)


def _parametric_rows(rows, alphas):
    """parametric_columns of every row of a C-contiguous float array: one
    pass over the rows, which numpy reduces in the same order as a 1-D
    series, so every entry is the closed form of that row's own np.mean and
    np.std bit for bit. Needs finite rows of 2 points or more, not constant.
    """
    if not np.all(np.isfinite(rows)):
        raise ValidationError("window contains non-finite returns")
    if rows.shape[1] < 2:
        raise InsufficientDataError(
            f"parametric window needs at least 2 points, got {rows.shape[1]}"
        )
    mu = np.mean(rows, axis=1)
    sigma = np.std(rows, axis=1)
    if np.any(sigma == 0.0):
        raise DegenerateDataError("window has zero variance")
    shape = (rows.shape[0], len(alphas))
    var, es = np.empty(shape), np.empty(shape)
    for a, alpha in enumerate(alphas):
        z = normal_ppf(alpha)
        var[:, a] = mu + sigma * z
        es[:, a] = mu - sigma * normal_pdf(z) / alpha
    return var, es


def calibrate_gbm(window_returns):
    """Per-asset one-day drift/volatility and shock correlation from a window.

    Drifts are the mean log returns, volatilities the population stds. The
    correlation matrix comes from the same window; a single asset gets the
    1x1 identity.
    """
    X = np.asarray(window_returns, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2 or X.shape[0] < 2:
        raise InsufficientDataError("calibration window needs >= 2 rows")
    if not np.all(np.isfinite(X)):
        raise ValidationError("window contains non-finite returns")
    sigmas = np.std(X, axis=0)
    if np.any(sigmas == 0.0):
        bad = int(np.argmax(sigmas == 0.0))
        raise DegenerateDataError(f"asset column {bad} has zero variance")
    mus = X.mean(axis=0)
    if X.shape[1] == 1:
        corr = np.ones((1, 1))
    else:
        corr = np.corrcoef(X, rowvar=False)
    return mus, sigmas, corr


def gbm_mc_var(series, alphas, m: int, seed: int):
    """One-day GBM Monte Carlo VaR/ES calibrated on one return series.

    series is a window of log returns, 1-D or one column; a portfolio is
    the series of its window returns w . r. Simulates m arithmetic-Euler
    days of one asset and returns var_es_columns of their log returns,
    arrays shaped (1, len(alphas)). ShapeError for a multi-column window.
    """
    x = np.asarray(series, dtype=float)
    if x.shape[1:] not in ((), (1,)):
        raise ShapeError(
            f"gbm_mc_var takes one return series, got shape {x.shape}; "
            f"aggregate a multi-asset window to its portfolio series w . r first"
        )
    return var_es_columns(simulate_gbm_portfolio(*calibrate_gbm(x), m, seed), alphas)
