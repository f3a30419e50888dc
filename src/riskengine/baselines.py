"""Classical one-day VaR baselines: historical, parametric normal, GBM-MC.

Each calibrates on a rolling window of log returns and returns VaR/ES as
plain (column, alpha) arrays. Historical simulation is risk.var_es_columns
over the window itself, so there is exactly one quantile implementation in
the package; parametric_columns is the closed-form normal, a checking
wrapper over the row kernel _parametric_rows. A portfolio is one more
series, w . r per window day or path, like its realized return.

The GBM baseline is calibrate_gbm and the one GBM simulator,
simulate_gbm_portfolio: the arithmetic Euler step over one day,
ln(S_1 / S_0) = ln(1 + mu + sigma xi) whatever S_0, with correlated shocks
xi = A eps, where A is the Cholesky factor of the shock correlation matrix;
a single asset is its one-column case. simulate_gbm_portfolio checks its
parameters, draws its shocks from one numpy default Generator seeded with
its integer seed and calls _gbm_day_into, the kernel that turns given
shocks into log returns in an array the caller owns. The engine's day loop
calls it on its own thread, on shocks that one worker thread drew up to
two days ahead into a ring of three buffers (engine._run_days).

The kernel's product eps @ A' runs in blocks of rows, each the largest
power of two of rows, at least 16, whose size m n n stays below 2^19.
OpenBLAS 0.3.31 runs a dgemm of that size or more on its thread pool, whose
threads then spin after the call returns; at 10000 paths and 15 assets
they held the second CPU, which the shock worker needs, through every
baselines day. Each block starts on a multiple of the GEMM kernels' unroll
widths, and a property test checks that every row gets the one-shot
product's bits.
"""

from __future__ import annotations

import numpy as np

from .distributions import normal_pdf, normal_ppf
from .errors import (
    DegenerateDataError,
    InsufficientDataError,
    NumericError,
    ShapeError,
    ValidationError,
)
from .risk import var_es_columns


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
    if m < 1:
        raise ValidationError(f"need at least one path, got {m}")
    eps = np.random.default_rng(seed).standard_normal((m, n))
    return _gbm_day_into(mus, sigmas, corr, eps, np.empty((m, n)))


# the product size m n k from which OpenBLAS 0.3.31 runs a dgemm threaded
_GEMM_THREADED_MNK = 1 << 19


def _gbm_day_into(mus, sigmas, corr, eps, out):
    """simulate_gbm_portfolio's log returns on the shocks eps for float
    arrays mus and sigmas (n,) and corr (n, n), written into out and
    returned. eps and out are distinct C-contiguous float64 (m, n) arrays;
    eps is only read, and no argument is checked; the price errors still
    raise.
    """
    A = np.linalg.cholesky(corr)
    rows = 16
    while 2 * rows * A.size < _GEMM_THREADED_MNK:
        rows *= 2
    for r in range(0, len(eps), rows):  # xi, turned into S_1 / S_0 in place
        np.matmul(eps[r : r + rows], A.T, out=out[r : r + rows])
    growth = out
    growth *= sigmas
    growth += 1.0 + mus
    if np.any(growth <= 0.0):
        raise NumericError(
            "arithmetic Euler step produced a non-positive price; "
            "parameters too coarse for a one-day step"
        )
    np.log(growth, out=growth)
    if not np.all(np.isfinite(growth)):
        raise ValidationError("scenario returns contain non-finite entries")
    return growth


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
