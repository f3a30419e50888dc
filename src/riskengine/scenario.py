"""Scenario generation: the GBM step and volatility rescaling.

Scenarios are one-day log returns in plain float arrays shaped (paths,
assets); mixture scenarios are gmm.sample's draws. simulate_gbm_portfolio
rejects non-finite output with ValidationError, and rescale multiplies the
last axis of any array by one positive ratio per asset. Every public
function returns a new array. simulate_gbm_portfolio checks its parameters
and calls _gbm_day_into, the kernel that writes the same bits into arrays
the caller owns and that the engine's day loop calls with its own.

The one GBM discretization is the arithmetic Euler step over one day,
ln(S_1 / S_0) = ln(1 + mu + sigma xi) whatever S_0, with correlated shocks
xi = A eps, where A is the Cholesky factor of the shock correlation matrix;
a single asset is its one-column case. A portfolio is w . r of the log
returns, as for every scenario array.

Reproducibility: simulate_gbm_portfolio takes an integer seed and draws
from one numpy default Generator seeded with it.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ShapeError, ValidationError


def column_std(w: np.ndarray) -> np.ndarray:
    """Population std of each column of a 2-D array, in one reduction.

    Equal bit for bit to np.std of each column on its own: the transposed
    copy puts every column in one contiguous row, which numpy reduces in
    the same order as a 1-D array. np.std(w, axis=0) sums in another order
    and can differ in the last bit.
    """
    return np.std(np.ascontiguousarray(w.T), axis=1)


def _check_paths(m: int):
    if m < 1:
        raise ValidationError(f"need at least one path, got {m}")


def _finite(returns: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(returns)):
        raise ValidationError("scenario returns contain non-finite entries")
    return returns


def simulate_gbm_portfolio(mus, sigmas, corr, m: int, seed: int) -> np.ndarray:
    """One arithmetic-Euler GBM day for several correlated assets.

    Returns the log returns ln(S_1 / S_0) = ln(1 + mu + sigma xi), shaped
    (m, n_assets), with xi = A eps, A the Cholesky factor of corr and eps
    one (m, n_assets) block of standard normals; the initial price cancels.
    Raises numpy.linalg.LinAlgError when corr cannot be factorized (no
    repair is attempted), NumericError if any path's price hits zero or
    below, which the arithmetic step does not preclude, and ValidationError
    if a price overflows, so that a log return is not finite.
    """
    mus = np.atleast_1d(np.asarray(mus, dtype=float))
    sigmas = np.atleast_1d(np.asarray(sigmas, dtype=float))
    corr = np.atleast_2d(np.asarray(corr, dtype=float))
    n = mus.shape[0]
    if mus.shape != (n,) or sigmas.shape != (n,) or corr.shape != (n, n):
        raise ShapeError(
            f"parameter shapes disagree: mus {mus.shape}, "
            f"sigmas {sigmas.shape}, corr {corr.shape}"
        )
    if np.any(sigmas < 0) or not np.all(np.isfinite(sigmas)) or not np.all(np.isfinite(mus)):
        raise ValidationError("mus/sigmas must be finite, sigmas non-negative")
    if np.max(np.abs(corr - corr.T)) > 1e-12:
        raise ValidationError("correlation matrix must be symmetric")
    if np.max(np.abs(np.diag(corr) - 1.0)) > 1e-12:
        raise ValidationError("correlation matrix must have a unit diagonal")
    _check_paths(m)
    return _gbm_day_into(mus, sigmas, corr, seed, np.empty((m, n)), np.empty((m, n)))


def _gbm_day_into(mus, sigmas, corr, seed, out, eps):
    """simulate_gbm_portfolio's log returns for float arrays mus and sigmas
    (n,) and corr (n, n), written into out and returned; eps holds the
    shocks and is overwritten. out and eps are distinct C-contiguous float64
    (m, n) arrays, and no argument is checked; the price errors still raise.
    """
    A = np.linalg.cholesky(corr)
    eps = np.random.default_rng(seed).standard_normal(eps.shape, out=eps)
    growth = np.matmul(eps, A.T, out=out)  # xi, turned into S_1 / S_0 in place
    growth *= sigmas
    growth += 1.0 + mus
    if np.any(growth <= 0.0):
        raise NumericError(
            "arithmetic Euler step produced a non-positive price; "
            "parameters too coarse for a one-day step"
        )
    return _finite(np.log(growth, out=growth))


def rescale(returns, ratios) -> np.ndarray:
    """Multiply the last axis of returns by one volatility ratio per asset.

    returns is any array whose last axis holds the assets, such as a
    (paths, assets) scenario array. ratios holds one positive, finite float
    per asset; returns must be finite. Returns a new array and leaves the
    input untouched.
    """
    returns = np.asarray(returns, dtype=float)
    factors = np.asarray(ratios, dtype=float)
    if returns.ndim < 1 or factors.shape != returns.shape[-1:]:
        raise ShapeError(
            f"{factors.size} ratios for returns shaped {returns.shape}"
        )
    if np.any(factors <= 0) or not np.all(np.isfinite(factors)):
        raise ValidationError("rescale factors must be positive and finite")
    return _finite(returns) * factors
