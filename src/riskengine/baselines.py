"""Classical one-day VaR baselines: historical, parametric normal, GBM-MC.

Each calibrates on a rolling window of log returns and returns VaR/ES as
plain (column, alpha) arrays. Historical simulation is risk.var_es_columns
over the window itself, so there is exactly one quantile implementation in
the package; parametric_columns is the closed-form normal.
"""

from __future__ import annotations

import numpy as np

from .distributions import normal_pdf, normal_ppf
from .errors import DegenerateDataError, InsufficientDataError, NumericError, ValidationError, _scratch
from .risk import PortfolioSpec, var_es_columns
from .scenario import simulate_gbm_portfolio


def parametric_columns(window, alphas):
    """Normal VaR and closed-form ES of every column of a (rows, cols) window.

    var = mu + sigma z_alpha, es = mu - sigma phi(z_alpha)/alpha, with mu and
    sigma a column's population moments; returns (cols, len(alphas)) arrays.
    The moments come from one pass over the transposed window, whose rows
    numpy reduces in the same order as a 1-D column, so every entry is the
    closed form of that column's own np.mean and np.std bit for bit.
    """
    x = np.asarray(window, dtype=float)
    if x.ndim != 2:
        raise ValidationError(f"expected a (rows, cols) window, got ndim={x.ndim}")
    cols = np.ascontiguousarray(x.T)
    if not np.all(np.isfinite(cols)):
        raise ValidationError("window contains non-finite returns")
    if cols.shape[1] < 2:
        raise InsufficientDataError(
            f"parametric window needs at least 2 points, got {cols.shape[1]}"
        )
    mu = np.mean(cols, axis=1)
    sigma = np.std(cols, axis=1)
    if np.any(sigma == 0.0):
        raise DegenerateDataError("window has zero variance")
    shape = (cols.shape[0], len(alphas))
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


def gbm_mc_var(window, alphas, m: int, seed: int, portfolio: PortfolioSpec | None = None):
    """One-day GBM Monte Carlo VaR/ES calibrated on a return window.

    Simulates one correlated arithmetic-Euler day from unit initial prices
    and evaluates the portfolio log return ln(w . S_1) (price-space
    aggregation; w . S_0 = 1 when weights sum to one). A single asset, or
    portfolio=None with a one-column window, reduces to the asset itself.
    Returns var_es_columns of that series, arrays shaped (1, len(alphas)).
    """
    mus, sigmas, corr = calibrate_gbm(window)
    n_assets = mus.shape[0]
    weights = np.ones(1) if portfolio is None else portfolio.weights
    if weights.shape[0] != n_assets:
        raise ValidationError(
            f"{weights.shape[0]} portfolio weights for {n_assets} window assets; "
            f"a multi-asset window needs a portfolio spec"
        )
    try:
        scen = simulate_gbm_portfolio(np.ones(n_assets), mus, sigmas, corr, m, seed)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"shock correlation matrix is not positive definite ({exc}); "
            f"check the window for collinear or constant assets"
        ) from exc
    return var_es_columns(price_space_returns(scen, weights)[:, None], alphas)


def price_space_returns(holding, weights, *, out=None, work=None) -> np.ndarray:
    """Per-path portfolio log return ln(w . exp(H)) from unit initial prices.

    holding is the (paths, assets) matrix of holding-period log returns H.
    Raises NumericError when a path's portfolio value is not positive, where
    the log return is undefined. out, when given, is a float64 (paths,)
    array that receives the returns and is returned. work, when given, is a
    flat float64 array of at least paths * assets entries that holds exp(H)
    and is overwritten. Without them each call returns a new array; the
    result is the same bits either way.
    """
    holding = np.asarray(holding, dtype=float)
    growth = _scratch(work, holding.shape, "work")
    out = _scratch(out, holding.shape[:1], "out")
    value = np.matmul(np.exp(holding, out=growth), weights, out=out)
    if np.any(value <= 0.0):
        raise NumericError(
            "portfolio value went non-positive in simulation; log return "
            "undefined (short weights with coarse steps?)"
        )
    return np.log(value, out=value)
