"""Historical, closed-form normal, and GBM Monte Carlo VaR baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskengine import (
    PortfolioSpec,
    calibrate_gbm,
    gbm_mc_var,
    historical_var,
    parametric_columns,
    parametric_var,
)
from riskengine.baselines import price_space_returns
from riskengine.distributions import normal_pdf, normal_ppf
from riskengine.errors import (
    DegenerateDataError,
    InsufficientDataError,
    ValidationError,
)


def test_historical_var_oracle():
    x = np.arange(1.0, 101.0) / 1000.0
    est = historical_var(x, 0.05)
    assert est.var == pytest.approx(0.00595, rel=1e-13)
    assert est.es == pytest.approx(0.003, rel=1e-13)  # mean of the five smallest
    assert est.n_tail == 5
    assert est.model_tag == "hs"
    assert est.seed == -1


def test_historical_var_window_length_gate():
    x = np.arange(99.0)
    with pytest.raises(InsufficientDataError):
        historical_var(x, 0.05)
    est = historical_var(x, 0.05, min_len=50)
    assert est.n_tail >= 1


def test_historical_var_single_asset_only():
    with pytest.raises(ValidationError):
        historical_var(np.zeros((120, 2)) + np.arange(120)[:, None], 0.05)


def test_historical_var_accepts_column_vector():
    x = (np.arange(1.0, 101.0) / 1000.0)[:, None]
    assert historical_var(x, 0.05).var == pytest.approx(0.00595, rel=1e-13)


def test_parametric_var_oracle():
    # window with mean 0 and population sigma sqrt(2e-4)
    x = np.array([-0.02, -0.01, 0.0, 0.01, 0.02])
    est = parametric_var(x, 0.05)
    assert est.var == pytest.approx(-0.023261743073533482, rel=1e-13)
    assert est.es == pytest.approx(-0.029171164276576852, rel=1e-13)
    assert est.n_tail == 0
    assert est.model_tag == "param"


def test_parametric_var_alpha_one_percent_factors():
    x = np.array([-0.02, -0.01, 0.0, 0.01, 0.02])
    sig = np.sqrt(2e-4)
    est = parametric_var(x, 0.01)
    assert est.var == pytest.approx(sig * -2.3263478740408411, rel=1e-12)
    assert est.es == pytest.approx(sig * -2.6652142203458048, rel=1e-12)


def test_parametric_var_mean_shift():
    x = np.array([-0.02, -0.01, 0.0, 0.01, 0.02]) + 0.005
    base = parametric_var(x - 0.005, 0.05)
    est = parametric_var(x, 0.05)
    assert est.var == pytest.approx(base.var + 0.005, rel=1e-12)
    assert est.es == pytest.approx(base.es + 0.005, rel=1e-12)


def test_parametric_var_degenerate_window():
    with pytest.raises(DegenerateDataError):
        parametric_var(np.full(50, 0.01), 0.05)
    with pytest.raises(InsufficientDataError):
        parametric_var(np.array([0.01]), 0.05)


def _reference_parametric(x, alpha):
    """(var, es) of one column the way parametric_var read it before the
    column kernel: scalar moments of the (possibly strided) column."""
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
            ref = _reference_parametric(W[:, c], a)
            assert (var[c, j], es[c, j]) == ref
            est = parametric_var(W[:, c], a)
            assert (est.var, est.es) == ref


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
    mc = gbm_mc_var(window, 0.05, m=40000, seed=3)
    closed = parametric_var(window, 0.05)
    assert mc.model_tag == "gbm_mc"
    assert mc.seed == 3
    assert mc.var == pytest.approx(closed.var, abs=4e-4)
    assert mc.n_tail == pytest.approx(0.05 * 40000, rel=0.2)


def test_gbm_mc_var_deterministic():
    rng = np.random.default_rng(1)
    window = rng.normal(0.0, 0.01, 150)
    a = gbm_mc_var(window, 0.05, m=5000, seed=77)
    b = gbm_mc_var(window, 0.05, m=5000, seed=77)
    assert a.var == b.var and a.es == b.es and a.n_tail == b.n_tail


def test_gbm_mc_var_portfolio_route():
    rng = np.random.default_rng(5)
    window = rng.normal(0.0002, 0.012, (252, 2))
    port = PortfolioSpec(tickers=("A", "B"), weights=np.array([0.5, 0.5]))
    est = gbm_mc_var(window, 0.05, m=8000, seed=2, portfolio=port)
    assert est.es <= est.var
    assert est.var < 0


def test_price_space_returns_writes_into_caller_arrays():
    holding = np.random.default_rng(8).normal(0.0, 0.02, (400, 3))
    weights = np.array([0.2, 0.5, 0.3])
    fresh = price_space_returns(holding, weights)
    out, work = np.full(400, np.nan), np.full(1201, np.nan)
    assert price_space_returns(holding, weights, out=out, work=work) is out
    assert out.tobytes() == fresh.tobytes()
    assert not np.shares_memory(price_space_returns(holding, weights), fresh)


def test_gbm_mc_var_multi_asset_requires_portfolio():
    rng = np.random.default_rng(5)
    window = rng.normal(0.0, 0.01, (100, 2))
    with pytest.raises(ValidationError):
        gbm_mc_var(window, 0.05, m=1000, seed=0)


def test_gbm_mc_var_collinear_assets_hint():
    rng = np.random.default_rng(6)
    a = rng.normal(0.0, 0.01, 120)
    window = np.column_stack([a, 2.0 * a])  # correlation exactly 1
    port = PortfolioSpec(tickers=("A", "B"), weights=np.array([0.5, 0.5]))
    with pytest.raises(np.linalg.LinAlgError, match="collinear"):
        gbm_mc_var(window, 0.05, m=1000, seed=0, portfolio=port)
