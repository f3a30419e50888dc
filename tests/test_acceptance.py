"""Acceptance gates: one test per numbered criterion.

Each test prints an ACCEPTANCE <n> PASS line once its assertions hold, so a
verbose run gives a one-line verdict per criterion. Heavier shared work (the
desk-scale 15-asset backtest used by criteria 5 and 7) runs once per module.
"""

import datetime as dt
import math
import time

import numpy as np
import pytest

from riskengine import (
    GaussianMixtureModel,
    PortfolioSpec,
    PricePanel,
    RunConfig,
    christoffersen,
    fit,
    ks_test,
    mixture_cdf,
    run_backtest,
    sample,
    simulate_gbm_portfolio,
    var_es_columns,
)
from riskengine.backtest import VERDICT_NOT_REJECTED
from riskengine.baselines import calibrate_gbm
from riskengine.distributions import normal_pdf, normal_ppf
from riskengine.engine import report

from conftest import _reference_var_es


def _dates(n, start=dt.date(2015, 1, 1)):
    return tuple((start + dt.timedelta(days=i)).isoformat() for i in range(n))


def _draw_mixture(rng, weights, means, covs, n):
    # direct categorical + cholesky drawing, independent of the package sampler
    labels = rng.choice(len(weights), size=n, p=weights)
    out = np.empty((n, means.shape[1]))
    chols = [np.linalg.cholesky(c) for c in covs]
    for j in range(len(weights)):
        sel = labels == j
        z = rng.standard_normal((int(sel.sum()), means.shape[1]))
        out[sel] = means[j] + z @ chols[j].T
    return out


# --------------------------------------------------------------- criterion 1


def test_criterion_01_em_invariants_on_random_datasets():
    rng = np.random.default_rng(2024)
    combos = [(k, n, c) for k in (1, 2, 5) for n in (50, 500) for c in (1, 2, 3)]
    t0 = time.perf_counter()
    for case in range(100):
        k, n, n_c = combos[case % len(combos)]
        w = rng.dirichlet(np.full(n_c, 1.5))
        means = rng.normal(0.0, 2.0, (n_c, k))
        covs = np.empty((n_c, k, k))
        for j in range(n_c):
            a = rng.normal(size=(k, k))
            covs[j] = a @ a.T + 0.3 * np.eye(k)
        data = _draw_mixture(rng, w, means, covs, n)

        model, rep = fit(data, n_c, seed=case)

        trace = np.asarray(rep.loglik_trace)
        assert np.all(np.diff(trace) >= -1e-9), f"case {case}: decreasing trace"
        assert model.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(model.weights >= 0)
        for cov in model.covariances:  # PD check via factorization
            np.linalg.cholesky(cov)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"100 fits took {elapsed:.1f}s"
    print("ACCEPTANCE 1 PASS")


# --------------------------------------------------------------- criterion 2


def test_criterion_02_mixture_recovery():
    true_w = np.array([0.7, 0.3])
    true_mu = np.array([-2.0, 2.0])
    true_sd = np.array([0.5, 0.5])
    for seed in range(10):
        rng = np.random.default_rng(9000 + seed)
        n = 20000
        pick = rng.random(n) < true_w[1]
        x = np.where(
            pick, rng.normal(true_mu[1], true_sd[1], n), rng.normal(true_mu[0], true_sd[0], n)
        )
        model, rep = fit(x, 2, seed=seed)
        order = np.argsort(model.means[:, 0])
        got_w = model.weights[order]
        got_mu = model.means[order, 0]
        got_sd = np.sqrt(model.covariances[order, 0, 0])
        np.testing.assert_allclose(got_w, true_w, atol=0.05)
        np.testing.assert_allclose(got_mu, true_mu, atol=0.05)
        np.testing.assert_allclose(got_sd, true_sd, atol=0.05)
    print("ACCEPTANCE 2 PASS")


# --------------------------------------------------------------- criterion 3


def test_criterion_03_stratified_sampling_ks():
    mix = GaussianMixtureModel(
        weights=np.array([0.5, 0.3, 0.2]),
        means=np.array([[-1.0], [1.5], [4.0]]),
        covariances=np.array([[[0.5]], [[1.0]], [[0.25]]]),
    )
    for seed in range(10):
        draws = sample(mix, 50000, np.random.default_rng(seed))[:, 0]
        _, ks_p = ks_test(draws, lambda t: mixture_cdf(mix, t))
        assert ks_p > 0.01, f"seed {seed}: p={ks_p:.4f}"
    print("ACCEPTANCE 3 PASS")


# --------------------------------------------------------------- criterion 4


def _direct_lrs(h, a):
    n, x = len(h), int(h.sum())
    pi = x / n

    def xl(c, v):
        return 0.0 if c == 0 else c * math.log(v)

    lr_uc = max(
        -2 * (xl(n - x, 1 - a) + xl(x, a) - xl(n - x, 1 - pi) - xl(x, pi)), 0.0
    )
    n00 = n01 = n10 = n11 = 0
    for i in range(1, n):
        if h[i - 1]:
            n11, n10 = n11 + int(h[i]), n10 + int(not h[i])
        else:
            n01, n00 = n01 + int(h[i]), n00 + int(not h[i])
    pi01 = n01 / (n00 + n01) if n00 + n01 else 0.0
    pi11 = n11 / (n10 + n11) if n10 + n11 else 0.0
    pi2 = (n01 + n11) / (n - 1)
    l0 = xl(n00 + n10, 1 - pi2) + xl(n01 + n11, pi2)
    l1 = xl(n00, 1 - pi01) + xl(n01, pi01) + xl(n10, 1 - pi11) + xl(n11, pi11)
    return lr_uc, max(-2 * (l0 - l1), 0.0)


def test_criterion_04_christoffersen_oracle_equivalence():
    rng = np.random.default_rng(777)
    for case in range(200):
        a = 0.01 if case % 2 == 0 else 0.05
        h = rng.random(1000) < a * float(rng.uniform(0.3, 3.0))
        if not h.any():
            h[int(rng.integers(0, 1000))] = True
        res = christoffersen(h, a)
        ref_uc, ref_ind = _direct_lrs(h, a)
        assert abs(res.lr_uc - ref_uc) <= 1e-9, f"case {case}"
        assert abs(res.lr_ind - ref_ind) <= 1e-9, f"case {case}"

    # hit frequency equal to alpha collapses the coverage statistic to zero
    h = np.zeros(1000, dtype=bool)
    h[::20] = True  # 50 hits in 1000 days at the 5% level
    res = christoffersen(h, 0.05)
    assert res.lr_uc == 0.0
    print("ACCEPTANCE 4 PASS")


# ------------------------------------------------- criteria 5 and 7 (shared)


def _desk_panel():
    rng = np.random.default_rng(21)
    n, k = 1253, 15
    base = rng.normal(0.0, 1.0, (n - 1, 1))
    idio = rng.normal(0.0, 1.0, (n - 1, k))
    steps = 0.0002 + 0.011 * (0.5 * base + np.sqrt(0.75) * idio)
    logp = np.vstack([np.zeros(k), np.cumsum(steps, 0)])
    return PricePanel(
        dates=_dates(n),
        tickers=tuple(f"S{i:02d}" for i in range(k)),
        prices=100 * np.exp(logp),
    )


@pytest.fixture(scope="module")
def desk_run():
    panel = _desk_panel()
    cfg = RunConfig(
        models=("gmm", "param"),
        n_components=(3,),
        alphas=(0.05,),
        long_len=252,
        short_len=70,
        paths=3000,
        horizon=1,
        eval_days=1000,
        seed=101,
        portfolio=PortfolioSpec.equal(panel.tickers),
    )
    t0 = time.perf_counter()
    records, reports = run_backtest(panel, cfg)
    wall = time.perf_counter() - t0
    return records, reports, cfg, wall


def test_criterion_05_coverage_calibration(desk_run):
    _, reports, cfg, _ = desk_run
    assert len(reports) == 2 * 16  # two models, 15 stocks plus the portfolio
    for rep in reports:
        assert rep.n == 1000
        assert 31 <= rep.x <= 70, f"{rep.model_tag}/{rep.ticker}: x={rep.x}"
        assert rep.verdict == VERDICT_NOT_REJECTED, (
            f"{rep.model_tag}/{rep.ticker}: {rep.verdict}"
        )
    print("ACCEPTANCE 5 PASS")


def test_criterion_07_throughput(desk_run):
    _, _, _, wall = desk_run
    assert wall <= 120.0, f"desk-scale run took {wall:.1f}s"
    print("ACCEPTANCE 7 PASS")


# --------------------------------------------------------------- criterion 6


def test_criterion_06_warm_start_cuts_iterations():
    rng = np.random.default_rng(5)
    n = 453  # 252-day window plus 200 evaluation days
    regime = rng.random(n - 1) < 0.8
    steps = np.where(
        regime, rng.normal(0.0005, 0.008, n - 1), rng.normal(-0.001, 0.025, n - 1)
    )
    panel = PricePanel(
        dates=_dates(n, dt.date(2016, 1, 1)),
        tickers=("X",),
        prices=(100 * np.exp(np.concatenate([[0.0], np.cumsum(steps)])))[:, None],
    )
    base = dict(
        models=("gmm",), n_components=(2,), alphas=(0.05,), long_len=252,
        short_len=70, paths=100, horizon=1, eval_days=200, seed=7,
    )
    warm_records, _ = run_backtest(panel, RunConfig(**base, warm_start=True))
    cold_records, _ = run_backtest(panel, RunConfig(**base, warm_start=False))

    warm_diag = [rep for r in warm_records for _, rep in r.fit_diagnostics]
    assert warm_diag[0].init_mode == "kmeans"  # nothing to warm-start from
    warm_iters = [d.iterations for d in warm_diag if d.init_mode == "warm_start"]
    cold_iters = [rep.iterations for r in cold_records for _, rep in r.fit_diagnostics]
    assert len(warm_iters) == 199
    ratio = float(np.median(warm_iters)) / float(np.median(cold_iters))
    assert ratio <= 0.25, (
        f"warm median {np.median(warm_iters)} vs cold {np.median(cold_iters)}"
    )
    print("ACCEPTANCE 6 PASS")


# --------------------------------------------------------------- criterion 8


def test_criterion_08_volatility_adjustment_homogeneity():
    rng = np.random.default_rng(31)
    for _ in range(100):
        x = rng.standard_t(6, 500) * rng.uniform(0.005, 0.05)
        a = float(rng.uniform(0.01, 0.2))
        c = float(rng.lognormal(0.0, 0.5))
        # scaling the estimates equals estimating from the scaled scenarios
        scaled = var_es_columns((x * c)[:, None], (a,))
        var, es, _ = var_es_columns(x[:, None], (a,))
        assert var[0, 0] * c == pytest.approx(scaled[0][0, 0], rel=1e-12, abs=1e-16)
        assert es[0, 0] * c == pytest.approx(scaled[1][0, 0], rel=1e-12, abs=1e-16)
    print("ACCEPTANCE 8 PASS")


# --------------------------------------------------------------- criterion 9


def test_criterion_09_gbm_moments():
    # The engine's GBM is one arithmetic Euler step, so the simple return
    # exp(r) - 1 = mu delta + sigma sqrt(delta) xi is exactly normal; the log
    # return would carry the step's -sigma^2 delta / 2 bias instead.
    mu, sigma, delta = 0.05, 0.2, 1 / 252
    m = 100000
    scen = simulate_gbm_portfolio(
        mus=[mu * delta], sigmas=[sigma * np.sqrt(delta)], corr=[[1.0]], m=m, seed=4,
    )
    steps = np.expm1(scen[:, 0])
    se_mean = sigma * np.sqrt(delta) / np.sqrt(m)
    se_std = sigma * np.sqrt(delta) / np.sqrt(2 * m)
    assert abs(steps.mean() - mu * delta) <= 3 * se_mean
    assert abs(steps.std() - sigma * np.sqrt(delta)) <= 3 * se_std

    corr = np.array([[1.0, 0.8], [0.8, 1.0]])
    scen2 = simulate_gbm_portfolio(
        mus=np.zeros(2), sigmas=np.array([0.01, 0.01]),
        corr=corr, m=m, seed=8,
    )
    realized = np.corrcoef(scen2[:, 0], scen2[:, 1])[0, 1]
    assert realized == pytest.approx(0.8, abs=0.02)
    print("ACCEPTANCE 9 PASS")


# -------------------------------------------------------------- criterion 10


def test_criterion_10_baselines_agree_on_gaussian_window():
    rng = np.random.default_rng(42)
    window = rng.normal(0.0, 0.01, 252)
    alpha, n, m = 0.05, 252, 100000
    sig = float(np.std(window))
    z = normal_ppf(alpha)
    hs = _reference_var_es(window, alpha)[0]  # the window's full-sort quantile
    pa = float(np.mean(window)) + sig * z  # closed-form normal
    days = simulate_gbm_portfolio(*calibrate_gbm(window[:, None]), m, seed=9)
    gb = float(var_es_columns(days, (alpha,))[0][0, 0])

    dens = normal_pdf(z) / sig  # density at the alpha-quantile
    se_hs = np.sqrt(alpha * (1 - alpha) / n) / dens
    se_pa = sig * np.sqrt((1 + z * z / 2) / n)
    se_gb = np.sqrt(se_pa**2 + alpha * (1 - alpha) / m / dens**2)

    pairs = [
        (hs, pa, np.hypot(se_hs, se_pa), "hs vs param"),
        (hs, gb, np.hypot(se_hs, se_gb), "hs vs gbm_mc"),
        (pa, gb, np.hypot(se_pa, se_gb), "param vs gbm_mc"),
    ]
    for a, b, se, label in pairs:
        assert abs(a - b) <= 3 * se, f"{label}: |{a:.6f} - {b:.6f}| > 3*{se:.6f}"
    print("ACCEPTANCE 10 PASS")


# -------------------------------------------------------------- criterion 11


def test_criterion_11_determinism_byte_identical(tmp_path):
    rng = np.random.default_rng(3)
    n, k = 161, 3
    steps = rng.normal(0.0002, 0.012, (n - 1, k))
    panel = PricePanel(
        dates=_dates(n, dt.date(2020, 1, 1)),
        tickers=("AAA", "BBB", "CCC"),
        prices=100 * np.exp(np.vstack([np.zeros(k), np.cumsum(steps, 0)])),
    )
    cfg = RunConfig(
        models=("gmm", "hs", "param", "gbm_mc"), n_components=(2,),
        alphas=(0.01, 0.05), long_len=120, short_len=30, paths=400,
        horizon=1, eval_days=40, seed=11,
        portfolio=PortfolioSpec.equal(("AAA", "BBB", "CCC")),
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        records, reports = run_backtest(panel, cfg)
        report(records, reports, cfg, str(out))
    for name in ("estimates.csv", "backtest.csv", "fit_diagnostics.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    print("ACCEPTANCE 11 PASS")
