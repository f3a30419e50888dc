"""Historical, closed-form normal, and GBM Monte Carlo VaR baselines."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from riskengine import (
    calibrate_gbm,
    parametric_columns,
    simulate_gbm_portfolio,
    var_es_columns,
)
from riskengine.baselines import _gbm_day_into
from riskengine.distributions import normal_pdf, normal_ppf
from riskengine.errors import (
    DegenerateDataError,
    InsufficientDataError,
    NumericError,
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


def test_calibrate_gbm_takes_a_series_as_one_column():
    # one series enters as series[:, None]; a 1-D array is refused with
    # the (rows, assets) shape the window must have
    with pytest.raises(ShapeError, match=r"\(rows, assets\), got shape \(10,\)"):
        calibrate_gbm(np.arange(10.0))


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
    # the kernel the engine calls gives the same bits from the shocks it is
    # handed, written into the array it is handed, and leaves the shocks be
    shocks, out = eps.copy(), np.full((400, 3), np.nan)
    assert _gbm_day_into(mus, sigmas, corr, shocks, out) is out
    assert out.tobytes() == expected.tobytes()
    assert shocks.tobytes() == eps.tobytes()


@given(
    m=st.integers(1, 25000),
    n=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_gbm_kernel_blocks_give_the_one_shot_product_bits(m, n, seed):
    # the kernel multiplies the shocks by A' in row blocks that keep BLAS on
    # one thread; each row must come out as in the one-shot product, for
    # any path count, asset count and correlation matrix
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n + 2))
    cov = g @ g.T
    corr = cov / np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
    mus, sigmas = rng.uniform(-0.002, 0.002, n), rng.uniform(0.001, 0.03, n)
    eps = rng.standard_normal((m, n))
    expected = np.log(1 + mus + sigmas * (eps @ np.linalg.cholesky(corr).T))
    got = _gbm_day_into(mus, sigmas, corr, eps, np.empty((m, n)))
    assert got.tobytes() == expected.tobytes()


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
