"""Historical, closed-form normal, and GBM Monte Carlo VaR baselines."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from riskengine import (
    calibrate_gbm,
    gbm_mc_var,
    parametric_columns,
    var_es_columns,
)
from riskengine.distributions import normal_pdf, normal_ppf
from riskengine.errors import (
    DegenerateDataError,
    InsufficientDataError,
    ShapeError,
    ValidationError,
)


def test_historical_var_oracle():
    # historical simulation is the window's own empirical quantile
    x = np.arange(1.0, 101.0) / 1000.0
    var, es, n_tail = var_es_columns(x[:, None], (0.05,))
    assert var[0, 0] == pytest.approx(0.00595, rel=1e-13)
    assert es[0, 0] == pytest.approx(0.003, rel=1e-13)  # mean of the five smallest
    assert n_tail.tolist() == [[5]]


def _param(x, alpha):
    """(var, es) of a single series at one level."""
    var, es = parametric_columns(np.asarray(x)[:, None], (alpha,))
    return var[0, 0], es[0, 0]


def test_parametric_var_oracle():
    # window with mean 0 and population sigma sqrt(2e-4)
    var, es = _param(np.array([-0.02, -0.01, 0.0, 0.01, 0.02]), 0.05)
    assert var == pytest.approx(-0.023261743073533482, rel=1e-13)
    assert es == pytest.approx(-0.029171164276576852, rel=1e-13)


def test_parametric_var_alpha_one_percent_factors():
    x = np.array([-0.02, -0.01, 0.0, 0.01, 0.02])
    sig = np.sqrt(2e-4)
    var, es = _param(x, 0.01)
    assert var == pytest.approx(sig * -2.3263478740408411, rel=1e-12)
    assert es == pytest.approx(sig * -2.6652142203458048, rel=1e-12)


def test_parametric_var_mean_shift():
    x = np.array([-0.02, -0.01, 0.0, 0.01, 0.02]) + 0.005
    base = _param(x - 0.005, 0.05)
    var, es = _param(x, 0.05)
    assert var == pytest.approx(base[0] + 0.005, rel=1e-12)
    assert es == pytest.approx(base[1] + 0.005, rel=1e-12)


def test_parametric_var_degenerate_window():
    with pytest.raises(DegenerateDataError):
        _param(np.full(50, 0.01), 0.05)
    with pytest.raises(InsufficientDataError):
        _param(np.array([0.01]), 0.05)


def _reference_parametric(x, alpha):
    """(var, es) of one column in closed form from its own scalar moments
    of the (possibly strided) column."""
    mu = float(np.mean(x))
    sigma = float(np.std(x))
    z = normal_ppf(alpha)
    return mu + sigma * z, mu - sigma * normal_pdf(z) / alpha


@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(2, 400),
    cols=st.integers(1, 16),
    scale=st.floats(-4.0, 1.0),
    shift=st.floats(-0.05, 0.05),
    alphas=st.lists(st.floats(0.001, 0.5), min_size=1, max_size=3, unique=True),
)
@settings(max_examples=150, deadline=None)
def test_parametric_columns_matches_per_column_reference_bit_for_bit(
    seed, rows, cols, scale, shift, alphas
):
    W = shift + np.random.default_rng(seed).normal(0.0, 10.0 ** scale, (rows, cols))
    var, es = parametric_columns(W, alphas)
    assert var.shape == es.shape == (cols, len(alphas))
    for c in range(cols):
        for j, a in enumerate(alphas):
            assert (var[c, j], es[c, j]) == _reference_parametric(W[:, c], a)



@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(2, 400),
    cols=st.integers(2, 16),
    scale=st.floats(-4.0, 1.0),
    decimals=st.one_of(st.none(), st.integers(0, 4)),
    alphas=st.lists(st.floats(0.001, 0.5), min_size=1, max_size=3, unique=True),
)
@settings(max_examples=150, deadline=None)
def test_parametric_columns_reads_each_column_as_its_one_column_call(
    seed, rows, cols, scale, decimals, alphas
):
    # a multi-column call gives each column the bits of its one-column call;
    # rounding to a few decimals makes ties
    W = np.random.default_rng(seed).normal(0.0, 10.0 ** scale, (rows, cols))
    if decimals is not None:
        W = np.round(W * 10.0**4, decimals)
    assume(np.all(W.min(axis=0) < W.max(axis=0)))  # a constant column has no normal fit
    together = parametric_columns(W, alphas)
    for c in range(cols):
        alone = parametric_columns(W[:, c : c + 1], alphas)
        assert [a[c : c + 1].tobytes() for a in together] == [a.tobytes() for a in alone], c

def test_parametric_columns_errors():
    W = np.random.default_rng(2).normal(size=(30, 3))
    W[:, 2] = 0.25  # exactly representable, so its std is exactly 0
    with pytest.raises(DegenerateDataError, match="zero variance"):
        parametric_columns(W, (0.05,))
    with pytest.raises(InsufficientDataError):
        parametric_columns(W[:1], (0.05,))
    W[4, 0] = np.inf
    with pytest.raises(ValidationError, match="non-finite"):
        parametric_columns(W, (0.05,))


def test_calibrate_gbm_oracle():
    # deviations are [-1, 0, 1] and [1, -2, 1]: their dot product is zero,
    # so the estimated correlation vanishes exactly
    window = np.column_stack([[1.0, 2.0, 3.0], [1.0, -2.0, 1.0]])
    mus, sigmas, corr = calibrate_gbm(window)
    np.testing.assert_allclose(mus, [2.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(sigmas, [np.sqrt(2 / 3), np.sqrt(2.0)], rtol=1e-14)
    np.testing.assert_allclose(corr, np.eye(2), atol=1e-14)


def test_calibrate_gbm_constant_column_named():
    window = np.column_stack([np.zeros(50), np.arange(50.0)])
    with pytest.raises(DegenerateDataError, match="0"):
        calibrate_gbm(window)


def test_calibrate_gbm_single_asset_corr():
    _, _, corr = calibrate_gbm(np.arange(10.0)[:, None])
    np.testing.assert_array_equal(corr, [[1.0]])


def test_gbm_mc_var_close_to_parametric_on_gaussian_window():
    rng = np.random.default_rng(10)
    window = rng.normal(0.0, 0.01, 252)
    var, es, n_tail = gbm_mc_var(window, (0.05,), m=40000, seed=3)
    assert var.shape == es.shape == n_tail.shape == (1, 1)
    assert var[0, 0] == pytest.approx(_reference_parametric(window, 0.05)[0], abs=4e-4)
    assert n_tail[0, 0] == pytest.approx(0.05 * 40000, rel=0.2)


def test_gbm_mc_var_deterministic():
    rng = np.random.default_rng(1)
    window = rng.normal(0.0, 0.01, 150)
    a = gbm_mc_var(window, (0.05, 0.01), m=5000, seed=77)
    b = gbm_mc_var(window, (0.05, 0.01), m=5000, seed=77)
    assert [x.tobytes() for x in a] == [x.tobytes() for x in b]


def test_gbm_mc_var_multi_asset_requires_portfolio():
    # gbm_mc_var reads one series: a multi-asset window must first be
    # aggregated to its portfolio returns w . r, and a one-column window is
    # the 1-D series
    rng = np.random.default_rng(5)
    window = rng.normal(0.0, 0.01, (100, 2))
    with pytest.raises(ShapeError, match="portfolio series"):
        gbm_mc_var(window, (0.05,), m=1000, seed=0)
    series = window @ np.array([0.5, 0.5])
    a = gbm_mc_var(series, (0.05,), m=1000, seed=0)
    b = gbm_mc_var(series[:, None], (0.05,), m=1000, seed=0)
    assert [x.tobytes() for x in a] == [x.tobytes() for x in b]
