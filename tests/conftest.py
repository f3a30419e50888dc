"""Shared synthetic-data helpers for the test suite."""

import datetime as dt

import numpy as np
import pytest

from riskengine import GaussianMixtureModel, PricePanel


def make_panel(n_rows, tickers, seed, mu=0.0002, sigma=0.012, s0=100.0):
    """Geometric random-walk price panel with calendar-day ISO dates."""
    rng = np.random.default_rng(seed)
    k = len(tickers)
    steps = rng.normal(mu, sigma, (n_rows - 1, k))
    log_paths = np.vstack([np.zeros(k), np.cumsum(steps, axis=0)])
    d0 = dt.date(2018, 1, 1)
    dates = tuple((d0 + dt.timedelta(days=i)).isoformat() for i in range(n_rows))
    return PricePanel(dates=dates, tickers=tuple(tickers), prices=s0 * np.exp(log_paths))


def random_mixture(rng, n_components, dim):
    """A valid random mixture model, covariances built as A A^T + I/2."""
    w = rng.dirichlet(np.full(n_components, 2.0))
    means = rng.normal(0.0, 3.0, (n_components, dim))
    covs = np.empty((n_components, dim, dim))
    for j in range(n_components):
        a = rng.normal(0.0, 1.0, (dim, dim))
        covs[j] = a @ a.T + 0.5 * np.eye(dim)
    return GaussianMixtureModel(weights=w, means=means, covariances=covs)


def _reference_var_es(x, alpha):
    """(var, tail, n_tail) of one series from a full sort, independent of
    the package's partial-sort kernel: the interpolated quantile (numpy
    "linear") and the ascending run of scenarios at or below it. The
    package's ES is tail.sum() / n_tail, numpy summing the ascending tail."""
    s = np.sort(np.asarray(x, dtype=float).ravel())
    g = alpha * (s.size - 1)
    lo = int(g)
    if lo + 1 >= s.size:
        v = float(s[-1])
    else:
        v = float(s[lo] + (g - lo) * (s[lo + 1] - s[lo]))
    tail = s[s <= v]
    return v, tail, int(tail.size)


@pytest.fixture
def panel_3assets():
    return make_panel(161, ("AAA", "BBB", "CCC"), seed=3)


@pytest.fixture
def mix_1d():
    # well separated two-component mixture, handy for sampling tests
    return GaussianMixtureModel(
        weights=np.array([0.7, 0.3]),
        means=np.array([[-2.0], [2.0]]),
        covariances=np.array([[[0.25]], [[0.25]]]),
    )
