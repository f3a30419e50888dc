"""Classical one-day VaR baselines: historical, parametric normal, GBM-MC.

Each calibrates on a rolling window of log returns and returns a
RiskEstimate tagged "hs", "param" or "gbm_mc". The historical estimator is
the empirical quantile of the window itself and deliberately delegates to
risk.var_es so there is exactly one quantile implementation in the package.
"""

from __future__ import annotations

import numpy as np

from .distributions import normal_pdf, normal_ppf
from .errors import DegenerateDataError, InsufficientDataError, NumericError, ValidationError
from .risk import PortfolioSpec, RiskEstimate, var_es
from .scenario import simulate_gbm_portfolio


def _as_series(window_returns) -> np.ndarray:
    x = np.asarray(window_returns, dtype=float)
    if x.ndim == 2 and x.shape[1] == 1:
        x = x[:, 0]
    if x.ndim != 1:
        raise ValidationError(f"expected a 1-D return series, got ndim={x.ndim}")
    if not np.all(np.isfinite(x)):
        raise ValidationError("window contains non-finite returns")
    return x


def historical_var(window_returns, alpha: float, min_len: int = 100) -> RiskEstimate:
    """Historical-simulation VaR/ES: the window's own empirical quantile."""
    x = _as_series(window_returns)
    if x.size < min_len:
        raise InsufficientDataError(
            f"historical window has {x.size} points, need {min_len}"
        )
    est = var_es(x, alpha, model_tag="hs", seed=-1)
    return est


def parametric_var(window_returns, alpha: float) -> RiskEstimate:
    """Normal (variance-covariance) VaR with closed-form ES.

    var = mu + sigma z_alpha, es = mu - sigma phi(z_alpha)/alpha, with mu and
    sigma the window's population moments. n_tail is 0: the ES here is
    analytic, no scenario tail exists. The one-column case of
    parametric_columns.
    """
    x = _as_series(window_returns)
    var, es = parametric_columns(x[:, None], (alpha,))
    return RiskEstimate(
        alpha=alpha,
        var=float(var[0, 0]),
        es=float(es[0, 0]),
        n_tail=0,
        model_tag="param",
        seed=-1,
    )


def parametric_columns(window, alphas):
    """parametric_var of every column of a (rows, cols) window at every alpha.

    Returns var and es arrays shaped (cols, len(alphas)). The moments come
    from one pass over the transposed window, whose rows numpy reduces in
    the same order as a 1-D column, so every entry equals parametric_var of
    that column bit for bit.
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


def gbm_mc_var(
    window_returns,
    alpha: float,
    m: int,
    seed: int,
    portfolio: PortfolioSpec | None = None,
) -> RiskEstimate:
    """One-day GBM Monte Carlo VaR/ES calibrated on a return window.

    Simulates one correlated arithmetic-Euler day from unit initial prices
    and evaluates the portfolio log return ln(w . S_1) (price-space
    aggregation; w . S_0 = 1 when weights sum to one). A single asset, or
    portfolio=None with a one-column window, reduces to the asset itself.
    """
    mus, sigmas, corr = calibrate_gbm(window_returns)
    n_assets = mus.shape[0]
    if portfolio is None:
        if n_assets != 1:
            raise ValidationError(
                f"window has {n_assets} assets; a portfolio spec is required"
            )
        weights = np.ones(1)
    else:
        if portfolio.weights.shape[0] != n_assets:
            raise ValidationError(
                f"{portfolio.weights.shape[0]} portfolio weights for "
                f"{n_assets} window assets"
            )
        weights = portfolio.weights
    try:
        scen = simulate_gbm_portfolio(np.ones(n_assets), mus, sigmas, corr, m, seed)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"shock correlation matrix is not positive definite ({exc}); "
            f"check the window for collinear or constant assets"
        ) from exc
    return var_es(
        price_space_returns(scen, weights),
        alpha, model_tag="gbm_mc", seed=seed,
    )


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
    growth = None if work is None else work[: holding.size].reshape(holding.shape)
    value = np.matmul(np.exp(holding, out=growth), weights, out=out)
    if np.any(value <= 0.0):
        raise NumericError(
            "portfolio value went non-positive in simulation; log return "
            "undefined (short weights with coarse steps?)"
        )
    return np.log(value, out=value)
