"""Scenario generation: mixture sampling paths, GBM, volatility rescaling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskengine import (
    rescale,
    sample,
    simulate_gbm_portfolio,
)
from riskengine.errors import NumericError, ShapeError, ValidationError
from riskengine.scenario import _gbm_day_into, column_std


# ------------------------------------------------------------- vol ratios


@given(
    n_rows=st.sampled_from([10, 70, 252]),
    n_cols=st.integers(1, 15),
    scale=st.sampled_from([1e-4, 0.01, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_column_std_equals_per_column_std_bit_for_bit(n_rows, n_cols, scale, seed):
    w = np.random.default_rng(seed).normal(0.0003, scale, (n_rows, n_cols))
    # a trailing slice, as the engine takes the short window of the long one
    for block in (w, w[n_rows // 2 :]):
        got = column_std(block)
        assert got.tolist() == [float(np.std(block[:, c])) for c in range(n_cols)]


# ------------------------------------------------------------ mixture MC


def test_simulate_gmm_shape_and_determinism(mix_1d):
    # mixture scenarios are sample's draws on a Generator seeded once
    scen = sample(mix_1d, 300, np.random.default_rng(77))
    assert type(scen) is np.ndarray and scen.dtype == float
    assert scen.shape == (300, 1)
    again = sample(mix_1d, 300, np.random.default_rng(77))
    np.testing.assert_array_equal(scen, again)
    other = sample(mix_1d, 300, np.random.default_rng(78))
    assert not np.array_equal(scen, other)


def test_simulate_gmm_moments(mix_1d):
    scen = sample(mix_1d, 20000, np.random.default_rng(5))
    flat = scen.reshape(-1)
    true_mean = float(mix_1d.weights @ mix_1d.means[:, 0])
    assert flat.mean() == pytest.approx(true_mean, abs=0.05)


# --------------------------------------------------------- portfolio GBM


def test_gbm_portfolio_shapes_and_independent_case():
    scen = simulate_gbm_portfolio(
        mus=np.array([0.0, 0.0]),
        sigmas=np.array([0.01, 0.01]),
        corr=np.eye(2),
        m=5000,
        seed=21,
    )
    assert type(scen) is np.ndarray and scen.shape == (5000, 2)
    c = np.corrcoef(scen[:, 0], scen[:, 1])[0, 1]
    assert abs(c) < 0.05


def test_gbm_portfolio_correlated_shocks():
    corr = np.array([[1.0, 0.8], [0.8, 1.0]])
    scen = simulate_gbm_portfolio(
        mus=np.zeros(2),
        sigmas=np.array([0.01, 0.01]),
        corr=corr,
        m=20000,
        seed=33,
    )
    c = np.corrcoef(scen[:, 0], scen[:, 1])[0, 1]
    assert c == pytest.approx(0.8, abs=0.05)


def test_gbm_portfolio_is_one_closed_form_step():
    # the draw contract: one (m, n) standard-normal block, one Euler step
    mus = np.array([0.001, -0.002, 0.0005])
    sigmas = np.array([0.01, 0.02, 0.015])
    corr = np.array([[1.0, 0.3, -0.2], [0.3, 1.0, 0.5], [-0.2, 0.5, 1.0]])
    got = simulate_gbm_portfolio(mus, sigmas, corr, 400, 12)
    eps = np.random.default_rng(12).standard_normal((400, 3))
    xi = eps @ np.linalg.cholesky(corr).T
    expected = np.log(1.0 + mus + sigmas * xi)
    assert got.tobytes() == expected.tobytes()
    # the kernel the engine calls gives the same bits in arrays it is handed
    out, eps = np.full((400, 3), np.nan), np.full((400, 3), np.nan)
    assert _gbm_day_into(mus, sigmas, corr, 12, out, eps) is out
    assert out.tobytes() == expected.tobytes()


def test_gbm_portfolio_validation():
    ok = dict(m=100, seed=0)
    with pytest.raises(ValidationError):
        simulate_gbm_portfolio(
            mus=np.zeros(1), sigmas=np.array([0.1]),
            corr=np.array([[0.9]]), **ok,  # diagonal must be 1
        )
    with pytest.raises(ValidationError):
        simulate_gbm_portfolio(
            mus=np.zeros(2), sigmas=np.array([0.1, 0.1]),
            corr=np.array([[1.0, 0.5], [0.4, 1.0]]), **ok,  # asymmetric
        )
    with pytest.raises(ShapeError):
        simulate_gbm_portfolio(
            mus=np.zeros(2), sigmas=np.array([0.1]),
            corr=np.eye(2), **ok,
        )
    with pytest.raises(np.linalg.LinAlgError):
        simulate_gbm_portfolio(
            mus=np.zeros(2), sigmas=np.array([0.1, 0.1]),
            corr=np.array([[1.0, 1.0], [1.0, 1.0]]), **ok,  # singular
        )
    with pytest.raises(ValidationError, match="at least one path"):
        simulate_gbm_portfolio(mus=np.zeros(1), sigmas=np.array([0.1]), corr=np.eye(1), m=0, seed=0)


def test_gbm_portfolio_blowup_names_step():
    # enormous volatility drives the arithmetic step negative immediately
    with pytest.raises(NumericError, match="step"):
        simulate_gbm_portfolio(
            mus=np.array([0.0]),
            sigmas=np.array([50.0]),
            corr=np.eye(1),
            m=2000,
            seed=1,
        )


def test_gbm_portfolio_rejects_overflowing_prices():
    # finite, valid parameters whose one step overflows the price to inf on
    # the paths with a shock above about one, so their log return is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValidationError, match="non-finite"):
            simulate_gbm_portfolio([1.7e308], [1e307], np.eye(1), 100, 0)


# ------------------------------------------------------------- rescaling


def test_rescale_multiplies_per_asset():
    # the last axis holds the assets, whatever the leading axes
    for shape in [(50, 2), (50, 3, 2)]:
        base = np.random.default_rng(2).normal(0, 0.01, shape)
        before = base.copy()
        out = rescale(base, [2.0, 0.5])
        assert out.shape == shape
        assert np.array_equal(out[..., 0], base[..., 0] * 2.0)
        assert np.array_equal(out[..., 1], base[..., 1] * 0.5)
        # the input is left untouched
        assert np.array_equal(base, before)


def test_rescale_validation():
    base = np.zeros((4, 1, 2))
    with pytest.raises(ShapeError):
        rescale(base, [1.0])  # one factor for two assets
    with pytest.raises(ShapeError):
        rescale(np.float64(0.01), 2.0)  # no asset axis
    with pytest.raises(ValidationError):
        rescale(base, [1.0, -1.0])
    with pytest.raises(ValidationError):
        rescale(base, [1.0, np.inf])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rescale_rejects_non_finite_returns(bad):
    returns = np.zeros((4, 2))
    returns[3, 1] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        rescale(returns, [1.0, 1.0])
