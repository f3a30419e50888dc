"""Rolling backtest orchestration: day loop, seeds, sweeps, report files."""

import csv
import json
import os
import pathlib
import re
import sys
import tempfile
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskengine import (
    PortfolioSpec,
    PricePanel,
    RunConfig,
    fit,
    log_returns,
    run_backtest,
    sample,
    simulate_gbm_portfolio,
    var_es_columns,
)
from riskengine.baselines import _parametric_rows, calibrate_gbm, parametric_columns
from riskengine.engine import (
    MODEL_CHOICES,
    PORTFOLIO_TICKER,
    _derive_seed,
    _manifest,
    column_std,
    report,
    report_sweep,
    sweep_sigma_short,
)
from riskengine.errors import ConfigError, RunFailureError
from riskengine.gmm import GaussianMixtureModel
from riskengine.risk import _var_es_rows

from conftest import _reference_var_es, make_panel

SMALL = dict(
    models=("gmm", "hs", "param", "gbm_mc"),
    n_components=(2,),
    alphas=(0.01, 0.05),
    long_len=120,
    short_len=30,
    paths=150,
    horizon=1,
    eval_days=12,
    seed=11,
)


def _reference_block(columns, alphas):
    """var, es and n_tail arrays shaped (column, alpha) from the full-sort
    reference of each column; es is the numpy sum of the ascending tail over
    its length, the order the package sums it in."""
    var, es, n_tail = [], [], []
    for col in np.asarray(columns).T:
        refs = [_reference_var_es(col, a) for a in alphas]
        var.append([v for v, _, _ in refs])
        es.append([tail.sum() / n for _, tail, n in refs])
        n_tail.append([n for _, _, n in refs])
    return np.array(var), np.array(es), np.array(n_tail)


@pytest.fixture
def small_run(panel_3assets):
    cfg = RunConfig(**SMALL, portfolio=PortfolioSpec.equal(("AAA", "BBB", "CCC")))
    records, reports = run_backtest(panel_3assets, cfg)
    return panel_3assets, cfg, records, reports


def test_derive_seed_deterministic_and_distinct():
    a = _derive_seed(7, 3, 0, 1)
    assert a == _derive_seed(7, 3, 0, 1)
    assert a != _derive_seed(7, 3, 0, 0)
    assert a != _derive_seed(7, 4, 0, 1)
    assert a != _derive_seed(8, 3, 0, 1)
    assert 0 <= a < 2**64


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(models=("nope",))
    with pytest.raises(ConfigError):
        RunConfig(paths=99)
    with pytest.raises(ConfigError):
        RunConfig(long_len=50, short_len=70)
    # one row has zero standard deviation, so a gmm vol ratio would be 0
    for short_len in (1, 0):
        with pytest.raises(ConfigError, match="need 2 <= short_len"):
            RunConfig(short_len=short_len)
    RunConfig(short_len=2)
    with pytest.raises(ConfigError):
        RunConfig(alphas=())
    with pytest.raises(ConfigError):
        RunConfig(alphas=(0.0,))
    with pytest.raises(ConfigError):
        RunConfig(eval_days=0)
    with pytest.raises(ConfigError):
        RunConfig(seed=-1)
    with pytest.raises(ConfigError):
        RunConfig(n_components=(0,))
    # a tail at alpha needs ceil(1/alpha) rows: paths for gmm and gbm_mc,
    # long_len for hs; a config that cannot have one fails before any fit
    with pytest.raises(ConfigError, match="alpha 0.001 needs paths >= ceil"):
        RunConfig(models=("gmm",), alphas=(0.001,), paths=500)
    with pytest.raises(ConfigError, match="= 1000 for gmm/gbm_mc, got 999"):
        RunConfig(models=("gbm_mc",), alphas=(0.05, 0.001), paths=999)
    with pytest.raises(ConfigError, match="alpha 0.01 needs long_len >= ceil"):
        RunConfig(models=("hs",), alphas=(0.01,), long_len=60, short_len=30)
    RunConfig(models=("gmm",), alphas=(0.001,), paths=1000)
    RunConfig(models=("hs", "param"), alphas=(0.001,), paths=100, long_len=1000)
    RunConfig(models=("gmm", "param"), alphas=(0.01,), long_len=60, short_len=30)


def test_run_config_needs_a_window_return_per_gmm_component():
    # fit needs at least as many samples as components, so a gmm count above
    # long_len fails before any fit instead of invalidating every day
    with pytest.raises(ConfigError, match="cannot fit 300 components to long_len 252"):
        RunConfig(models=("hs", "gmm"), n_components=(2, 300))
    with pytest.raises(ConfigError, match="cannot fit 61 components to long_len 60"):
        RunConfig(models=("gmm",), n_components=(61,), alphas=(0.05,), long_len=60, short_len=30)
    RunConfig(models=("gmm",), n_components=(60,), alphas=(0.05,), long_len=60, short_len=30)
    RunConfig(models=("hs", "param"), n_components=(300,))  # the counts serve gmm only


def test_run_config_model_keys():
    cfg = RunConfig(models=("gmm", "hs"), n_components=(2, 4))
    assert cfg.model_keys() == ["gmm2", "gmm4", "hs"]


def test_run_config_dict_round_trip():
    cfg = RunConfig(
        **SMALL, portfolio=PortfolioSpec(tickers=("A", "B"), weights=np.array([0.3, 0.7]))
    )
    assert cfg.to_dict() == {
        "models": ["gmm", "hs", "param", "gbm_mc"],
        "n_components": [2],
        "alphas": [0.01, 0.05],
        "long_len": 120,
        "short_len": 30,
        "paths": 150,
        "horizon": 1,
        "eval_days": 12,
        "seed": 11,
        "portfolio": {"tickers": ["A", "B"], "weights": [0.3, 0.7]},
        "warm_start": True,
    }
    again = RunConfig.from_dict(cfg.to_dict())
    assert again.models == cfg.models
    assert again.portfolio.tickers == ("A", "B")
    np.testing.assert_allclose(again.portfolio.weights, [0.3, 0.7], rtol=1e-15)
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"models": ["gmm"], "mystery_knob": 3})


@pytest.mark.parametrize("key, value", [
    ("paths", 150.5),
    ("seed", 1.5),
    ("long_len", 120.0),
    ("short_len", True),
    ("eval_days", "12"),
    ("horizon", 1.0),
    ("n_components", [2.5]),
    ("n_components", [True]),
    ("warm_start", "no"),
    ("warm_start", 0),
    ("alphas", ["0.05", "1e-2"]),
    ("alphas", "0.05"),
    ("n_components", "2"),
    ("models", "gmm"),
    ("portfolio", {"tickers": "AB", "weights": [0.5, 0.5]}),
    ("portfolio", {"tickers": ["A", "B"], "weights": ["0.5", "0.5"]}),
    ("portfolio", {"tickers": ["A", "B"], "weights": [True, False]}),
    ("portfolio", {"tickers": ["A", "B"], "weights": [1, False]}),
    ("portfolio", {"tickers": [1, 2], "weights": [0.5, 0.5]}),
])
def test_run_config_from_dict_rejects_mistyped_values(key, value):
    # JSON numbers and strings must not be truncated or coerced into a run
    with pytest.raises(ConfigError, match=key):
        RunConfig.from_dict({**SMALL, key: value})


def test_run_config_accepts_numpy_ints():
    cfg = RunConfig(**{**SMALL, "paths": np.int64(150), "n_components": np.array([2])})
    assert type(cfg.paths) is int and cfg.n_components == (2,)
    json.dumps(cfg.to_dict())


@pytest.mark.parametrize("weights", [
    [0.25, 0.75], [1, 0], np.array([0.25, 0.75]), np.array([0.25, 0.75], dtype=np.float32),
    [np.float64(0.25), np.int64(1) - 0.25],
])
def test_portfolio_weights_accept_python_and_numpy_numbers(weights):
    cfg = RunConfig.from_dict({**SMALL, "portfolio": {"tickers": ["A", "B"], "weights": weights}})
    assert cfg.portfolio.weights.dtype == np.float64
    assert cfg.portfolio.weights.tolist() == np.asarray(weights, dtype=float).tolist()
    assert PortfolioSpec.equal(("A", "B")).weights.tolist() == [0.5, 0.5]


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


def test_run_backtest_day_bookkeeping(small_run):
    panel, cfg, records, reports = small_run
    rets = log_returns(panel)
    assert len(records) == cfg.eval_days
    for i, rec in enumerate(records):
        anchor = cfg.long_len + i
        assert rec.anchor == anchor
        assert rec.date == panel.dates[anchor + 1]
        assert rec.error is None
        realized = dict(rec.realized)
        for j, tkr in enumerate(panel.tickers):
            assert realized[tkr] == pytest.approx(rets[anchor, j], rel=1e-15)
        # portfolio realization is the weighted sum of the per-asset returns
        assert realized[PORTFOLIO_TICKER] == pytest.approx(
            float(rets[anchor] @ np.full(3, 1 / 3)), rel=1e-12
        )


def test_run_backtest_report_grid(small_run):
    panel, cfg, records, reports = small_run
    targets = len(panel.tickers) + 1  # plus the portfolio
    expected = len(cfg.model_keys()) * targets * len(cfg.alphas)
    assert len(reports) == expected
    for rep in reports:
        assert rep.n == cfg.eval_days
        assert rep.christoffersen is not None


def test_run_backtest_es_never_above_var(small_run):
    _, _, records, _ = small_run
    for rec in records:
        assert np.all(rec.es <= rec.var + 1e-12)


def test_run_backtest_hs_estimates_match_direct_computation(small_run):
    panel, cfg, records, _ = small_run
    rets = log_returns(panel)
    rec = records[4]
    long_w = rets[rec.anchor - cfg.long_len : rec.anchor]
    m = cfg.model_keys().index("hs")
    assert [t for t, _ in rec.realized] == [*panel.tickers, PORTFOLIO_TICKER]
    var, es, n_tail = _reference_block(long_w, cfg.alphas)
    assert rec.var[m, :-1].tolist() == var.tolist()
    assert rec.es[m, :-1].tolist() == es.tolist()
    assert rec.n_tail[m, :-1].tolist() == n_tail.tolist()


def test_run_backtest_gbm_portfolio_matches_simulate_gbm_portfolio(panel_3assets):
    # the engine's gbm_mc portfolio rows are the full-sort reference of the
    # return-space portfolio H @ w of the day's simulated holding H, which
    # simulate_gbm_portfolio recomputes from the same window and seed
    spec = PortfolioSpec.equal(("AAA", "BBB", "CCC"))
    cfg = RunConfig(**{**SMALL, "models": ("gbm_mc",)}, portfolio=spec)
    records, _ = run_backtest(panel_3assets, cfg)
    rets = log_returns(panel_3assets)
    for i in (0, 5, 11):
        rec = records[i]
        long_w = rets[rec.anchor - cfg.long_len : rec.anchor]
        seed = _derive_seed(cfg.seed, i, 0, 1)
        assert rec.seeds == (seed,)
        assert rec.realized[-1][0] == PORTFOLIO_TICKER
        holding = simulate_gbm_portfolio(*calibrate_gbm(long_w), cfg.paths, seed)
        expected = _reference_block((holding @ spec.weights)[:, None], cfg.alphas)
        row = [rec.var[0, -1:], rec.es[0, -1:], rec.n_tail[0, -1:]]
        assert [r.tolist() for r in row] == [e.tolist() for e in expected]


def test_every_portfolio_row_reads_the_realized_aggregation(panel_3assets, tmp_path):
    # the realized PORTFOLIO return is r @ w, and every model's PORTFOLIO row
    # is its own estimator over M @ w, with M the day's sample matrix: the
    # long window for hs/param, the holding the run saves for gbm_mc, and
    # for gmm the vol-ratio-scaled holding, computed as
    # holding @ (ratios * w) from the unscaled holding of the fit chain
    spec = PortfolioSpec.equal(("AAA", "BBB", "CCC"))
    cfg = RunConfig(**{**SMALL, "eval_days": 4}, portfolio=spec)
    assert cfg.model_keys() == ["gmm2", "hs", "param", "gbm_mc"]
    records, _ = run_backtest(panel_3assets, cfg, scenario_dir=str(tmp_path))
    returns = log_returns(panel_3assets)
    chain = "kmeans"
    for i, rec in enumerate(records):
        assert rec.realized[-1] == (PORTFOLIO_TICKER, float(returns[rec.anchor] @ spec.weights))
        long_w = returns[rec.anchor - cfg.long_len : rec.anchor]
        ratios = np.array(
            [np.std(long_w[-cfg.short_len :, c]) / np.std(long_w[:, c]) for c in range(3)]
        )
        chain, _ = fit(long_w, 2, init=chain, seed=_derive_seed(cfg.seed, i, 0, 0))
        unscaled = sample(chain, cfg.paths, np.random.default_rng(_derive_seed(cfg.seed, i, 0, 1)))
        for mi, key in enumerate(cfg.model_keys()):
            if key == "gmm2":
                series = (unscaled @ (ratios * spec.weights))[:, None]
            else:
                matrix = (long_w if key in ("hs", "param")
                          else np.load(tmp_path / f"{rec.date}_{key}.npy"))
                series = (matrix @ spec.weights)[:, None]
            if key == "param":
                var, es = parametric_columns(series, cfg.alphas)
                expected = (var, es, np.zeros(var.shape, dtype=int))
            else:
                expected = var_es_columns(series, cfg.alphas)
            got = (rec.var[mi, -1:], rec.es[mi, -1:], rec.n_tail[mi, -1:])
            assert [g.tolist() for g in got] == [e.tolist() for e in expected], key


def test_run_backtest_deterministic(small_run):
    panel, cfg, records, _ = small_run
    records2, _ = run_backtest(panel, cfg)
    for a, b in zip(records, records2):
        assert a.date == b.date
        assert a.realized == b.realized and a.seeds == b.seeds
        assert a.var.tobytes() == b.var.tobytes() and a.es.tobytes() == b.es.tobytes()


def test_run_backtest_warm_start_modes(panel_3assets):
    cfg = RunConfig(**{**SMALL, "models": ("gmm",), "alphas": (0.05,)})
    records, _ = run_backtest(panel_3assets, cfg)
    modes = [rep.init_mode for r in records for _, rep in r.fit_diagnostics]
    assert modes[0] == "kmeans"
    assert set(modes[1:]) == {"warm_start"}

    cold = RunConfig(**{**SMALL, "models": ("gmm",), "alphas": (0.05,), "warm_start": False})
    records_c, _ = run_backtest(panel_3assets, cold)
    assert {rep.init_mode for r in records_c for _, rep in r.fit_diagnostics} == {"kmeans"}


def test_run_backtest_model_sink_collects_final_models(panel_3assets):
    cfg = RunConfig(**{**SMALL, "models": ("gmm",), "n_components": (2, 3), "alphas": (0.05,)})
    sink = {}
    run_backtest(panel_3assets, cfg, model_sink=sink)
    assert set(sink) == {"gmm2", "gmm3"}
    for model in sink.values():
        assert isinstance(model, GaussianMixtureModel)
        assert model.dim == 3


def test_run_backtest_panel_too_short():
    panel = make_panel(100, ("X",), seed=1)
    with pytest.raises(ConfigError):
        run_backtest(panel, RunConfig(**SMALL))


def test_run_backtest_rejects_multi_day_horizon():
    # the realized return is one day, so an h-day VaR cannot be scored on it;
    # the config fails as it is built, before any run or sweep starts
    with pytest.raises(ConfigError, match="horizon 10"):
        RunConfig(**{**SMALL, "horizon": 10})
    with pytest.raises(ConfigError, match="horizon 10"):
        RunConfig.from_dict({**SMALL, "horizon": 10})


def test_run_backtest_portfolio_ticker_mismatch(panel_3assets):
    cfg = RunConfig(**SMALL, portfolio=PortfolioSpec.equal(("AAA", "BBB", "WRONG")))
    with pytest.raises(ConfigError):
        run_backtest(panel_3assets, cfg)


def _panel_with_flat_head(n_flat, n_total):
    # price path flat for the first n_flat+1 rows, then a seeded random walk;
    # the first rolling window sees zero variance and the rest do not
    rng = np.random.default_rng(44)
    steps = np.concatenate([np.zeros(n_flat), rng.normal(0.0005, 0.01, n_total - 1 - n_flat)])
    prices = 100 * np.exp(np.concatenate([[0.0], np.cumsum(steps)]))[:, None]
    import datetime as dt

    d0 = dt.date(2019, 1, 1)
    dates = tuple((d0 + dt.timedelta(days=i)).isoformat() for i in range(n_total))
    return PricePanel(dates=dates, tickers=("X",), prices=prices)


def test_run_backtest_tolerates_rare_invalid_days():
    panel = _panel_with_flat_head(n_flat=99, n_total=121)
    cfg = RunConfig(
        models=("param",), alphas=(0.05,), long_len=99, short_len=30,
        paths=100, eval_days=21, seed=0,
    )
    records, reports = run_backtest(panel, cfg)
    assert records[0].error is not None
    assert "DegenerateDataError" in records[0].error
    assert records[0].var is None and records[0].es is None and records[0].n_tail is None
    assert all(r.error is None for r in records[1:])
    # reports aggregate only the valid days
    assert reports[0].n == 20


def test_run_backtest_es_above_var_invalidates_only_that_day(panel_3assets, monkeypatch):
    # the run checks every estimate block as it is read: an es above its var
    # marks that one day invalid and leaves the others valid
    calls = []

    def es_above_var_on_day_3(rows, alphas):
        var, es, n_tail = _var_es_rows(rows, alphas)
        calls.append(None)
        return (es, var, n_tail) if len(calls) == 4 else (var, es, n_tail)

    monkeypatch.setattr("riskengine.engine._var_es_rows", es_above_var_on_day_3)
    cfg = RunConfig(**{**SMALL, "models": ("hs",), "alphas": (0.05,), "eval_days": 20})
    records, reports = run_backtest(panel_3assets, cfg)
    assert len(calls) == 20
    assert records[3].error.startswith("ValidationError: es ")
    assert "exceeds var" in records[3].error
    assert records[3].var is None
    assert all(r.error is None for i, r in enumerate(records) if i != 3)
    assert reports[0].n == 19


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["var", "es"])
def test_run_backtest_non_finite_estimate_invalidates_only_that_day(
    panel_3assets, monkeypatch, field, bad
):
    # a var or es block that is not finite marks that one day invalid
    calls = []

    def non_finite_on_day_3(rows, alphas):
        var, es, n_tail = _var_es_rows(rows, alphas)
        calls.append(None)
        if len(calls) == 4:
            {"var": var, "es": es}[field][0, 0] = bad
        return var, es, n_tail

    monkeypatch.setattr("riskengine.engine._var_es_rows", non_finite_on_day_3)
    cfg = RunConfig(**{**SMALL, "models": ("hs",), "alphas": (0.05,), "eval_days": 20})
    records, _ = run_backtest(panel_3assets, cfg)
    assert records[3].error == "ValidationError: var/es must be finite"
    assert all(r.error is None for i, r in enumerate(records) if i != 3)


def test_run_backtest_zero_long_vol_invalidates_day_before_fitting():
    panel = _panel_with_flat_head(n_flat=99, n_total=121)
    cfg = RunConfig(
        models=("gmm",), n_components=(2,), long_len=99, short_len=30,
        paths=100, eval_days=21, seed=0,
    )
    records, _ = run_backtest(panel, cfg)
    assert records[0].error == "DegenerateDataError: long-window volatility is zero"
    # the check runs before any fit, so the failed day starts no warm chain
    assert records[0].fit_diagnostics == ()
    assert [(tag, rep.init_mode) for tag, rep in records[1].fit_diagnostics] == [("gmm2", "kmeans")]
    assert all(r.error is None for r in records[1:])


def test_run_backtest_fails_when_too_many_days_invalid():
    panel = _panel_with_flat_head(n_flat=104, n_total=121)
    cfg = RunConfig(
        models=("param",), alphas=(0.05,), long_len=99, short_len=30,
        paths=100, eval_days=21, seed=0,
    )
    with pytest.raises(RunFailureError, match="DegenerateDataError"):
        run_backtest(panel, cfg)


# ------------------------------------------------------------------ sweep


def test_sweep_shares_fits_and_scales_single_asset_var():
    panel = make_panel(200, ("SOLO",), seed=9)
    cfg = RunConfig(
        models=("gmm",), n_components=(2,), alphas=(0.05,), long_len=120,
        short_len=30, paths=400, eval_days=25, seed=3,
    )
    results = sweep_sigma_short(panel, cfg, [20, 40, 80])
    assert sorted(results) == [20, 40, 80]

    rets = log_returns(panel)
    # single asset, one-day horizon: the rescale factor multiplies every
    # scenario, so VaR across grid entries differs exactly by the vol ratio
    day = 6
    anchor = cfg.long_len + day

    def ratio(short_len):
        w = rets[anchor - cfg.long_len : anchor, 0]
        return float(np.std(w[-short_len:]) / np.std(w))

    var_by_grid = {}
    for g, (records, _) in results.items():
        var_by_grid[g] = records[day].var[0, 0, 0]  # gmm2, SOLO, 0.05
    assert var_by_grid[20] / var_by_grid[80] == pytest.approx(
        ratio(20) / ratio(80), rel=1e-9
    )


def test_sweep_grid_validation(panel_3assets):
    cfg = RunConfig(**SMALL)
    with pytest.raises(ConfigError):
        sweep_sigma_short(panel_3assets, cfg, [0])
    with pytest.raises(ConfigError):
        sweep_sigma_short(panel_3assets, cfg, [500])  # beyond long_len
    # a one-row short window has zero volatility: rejected before any fit
    with pytest.raises(ConfigError, match=r"grid value 1 outside \[2, long_len"):
        sweep_sigma_short(panel_3assets, cfg, [1, 30])
    with pytest.raises(ConfigError):
        sweep_sigma_short(panel_3assets, cfg, [])


def test_sweep_grid_rejects_a_repeated_value(panel_3assets):
    # as RunConfig rejects a repeated alpha, a repeated grid value is an
    # error, not merged into one grid point; a numpy integer repeats an int
    cfg = RunConfig(**SMALL)
    for grid in ([30, 30, 20], [np.int64(30), 30]):
        with pytest.raises(ConfigError, match="duplicate entries in grid"):
            sweep_sigma_short(panel_3assets, cfg, grid)


@pytest.mark.parametrize(
    "grid", [[20.9, 30], [30.0], ["25"], [True, 30], 30, "30", {"a": 1}],
    ids=["float", "integral float", "str", "bool", "bare int", "bare str", "dict"])
def test_sweep_grid_values_must_be_integers(panel_3assets, grid):
    # as for RunConfig.short_len, a value is never truncated or coerced, and
    # as for RunConfig's list fields, a bare value is not read item by item
    cfg = RunConfig(**SMALL)
    message = f"grid must be a non-empty list of int, got {grid!r}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        sweep_sigma_short(panel_3assets, cfg, grid)


def test_sweep_grid_accepts_numpy_integers(panel_3assets):
    cfg = RunConfig(**{**SMALL, "models": ("hs",), "eval_days": 2})
    results = sweep_sigma_short(panel_3assets, cfg, np.array([30, 20]))
    assert list(results) == [20, 30] and all(type(g) is int for g in results)
    assert list(sweep_sigma_short(panel_3assets, cfg, (g for g in [30, 20]))) == [20, 30]
    plain = sweep_sigma_short(panel_3assets, cfg, [20, 30])
    assert [r.var.tobytes() for g in results for r in results[g][0]] == [
        r.var.tobytes() for g in plain for r in plain[g][0]]


def test_run_failure_names_its_short_window():
    # return rows 42-44 are zero, so a 2-row short window is flat on the
    # days anchored at 44 and 45: 2 of 21 days invalid fail g = 2 and with it
    # the whole sweep, whose message must say which grid value failed
    base = make_panel(62, ("A", "B"), seed=0)
    steps = np.diff(np.log(base.prices), axis=0)
    steps[42:45] = 0.0
    prices = 100 * np.exp(np.vstack([np.zeros(2), np.cumsum(steps, axis=0)]))
    panel = PricePanel(dates=base.dates, tickers=base.tickers, prices=prices)
    cfg = RunConfig(models=("gmm",), n_components=(2,), alphas=(0.05,), long_len=40,
                    short_len=30, paths=100, eval_days=21, seed=0)
    results = sweep_sigma_short(panel, cfg, [30])
    assert [r.error for r in results[30][0]] == [None] * 21
    expected = r"^short_len 2: 2 of 21 evaluation days invalid \(> 5%\)"
    with pytest.raises(RunFailureError, match=expected):
        sweep_sigma_short(panel, cfg, [2, 30])
    with pytest.raises(RunFailureError, match=expected):
        run_backtest(panel, replace(cfg, short_len=2))


def test_run_backtest_rejects_a_ticker_named_portfolio():
    # its rows would be indistinguishable from the portfolio's in every report
    tickers = ("AAA", PORTFOLIO_TICKER)
    panel = make_panel(161, tickers, seed=3)
    cfg = RunConfig(**{**SMALL, "models": ("hs",), "eval_days": 2})
    with pytest.raises(ConfigError, match=f"ticker '{PORTFOLIO_TICKER}'"):
        run_backtest(panel, replace(cfg, portfolio=PortfolioSpec.equal(tickers)))
    records, _ = run_backtest(panel, cfg)
    assert [t for t, _ in records[0].realized] == list(tickers)


def test_sweep_verdict_rows_shape(tmp_path):
    panel = make_panel(170, ("A", "B"), seed=2)
    cfg = RunConfig(
        models=("gmm",), n_components=(2,), alphas=(0.05,), long_len=120,
        short_len=30, paths=150, eval_days=10, seed=1,
    )
    results = sweep_sigma_short(panel, cfg, [30, 15])
    report_sweep(results, cfg, str(tmp_path))
    with open(tmp_path / "sweep_verdicts.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sigma_short", "model_tag", "ticker", "alpha", "n", "x", "verdict"]
    # one row per (grid value, model, target, alpha), grid values ascending,
    # each read off that value's backtest report
    assert rows[1:] == [
        [str(g), rep.model_tag, rep.ticker, repr(rep.alpha), str(rep.n), str(rep.x), rep.verdict]
        for g in (15, 30)
        for rep in results[g][1]
    ]
    assert len(rows) == 1 + 2 * 1 * 2 * 1


# ----------------------------------------------------------------- report


def test_report_writes_expected_files(small_run, tmp_path):
    panel, cfg, records, reports = small_run
    out = tmp_path / "out"
    sink = {"gmm2": GaussianMixtureModel(
        weights=np.array([1.0]), means=np.zeros((1, 3)), covariances=np.eye(3)[None]
    )}
    paths = report(records, reports, cfg, str(out), wall_clock_seconds=1.5, final_models=sink)
    for name in ("estimates.csv", "backtest.csv", "fit_diagnostics.csv", "manifest.json"):
        assert (out / name).exists(), name

    est_lines = (out / "estimates.csv").read_text().splitlines()
    targets = len(panel.tickers) + 1
    assert est_lines[0] == "date,ticker,model_tag,alpha,var,es,n_tail,seed"
    assert len(est_lines) == 1 + cfg.eval_days * targets * len(cfg.model_keys()) * len(cfg.alphas)

    bt_lines = (out / "backtest.csv").read_text().splitlines()
    assert len(bt_lines) == 1 + len(reports)

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n_days"] == cfg.eval_days
    assert manifest["n_invalid_days"] == 0
    assert RunConfig.from_dict(manifest["config"]).seed == cfg.seed
    assert manifest["wall_clock_seconds"] == 1.5

    model_blob = json.loads((out / "models" / "gmm2.json").read_text())
    assert "weights" in model_blob
    assert paths == {
        name: os.path.join(str(out), rel)
        for name, rel in (
            ("estimates", "estimates.csv"), ("backtest", "backtest.csv"),
            ("fit_diagnostics", "fit_diagnostics.csv"),
            ("models/gmm2", "models/gmm2.json"), ("manifest", "manifest.json"),
        )
    }
    assert sorted(os.listdir(out)) == [
        "backtest.csv", "estimates.csv", "fit_diagnostics.csv", "manifest.json", "models"
    ]


class _UnwritableModel:
    def to_dict(self):
        raise OSError("checkpoint cannot be serialised")


def test_report_failure_leaves_no_file(small_run, tmp_path):
    # the checkpoint fails after the three CSVs went to temporaries
    _, cfg, records, reports = small_run
    out = tmp_path / "out"
    with pytest.raises(OSError, match="checkpoint"):
        report(records, reports, cfg, str(out), final_models={"gmm2": _UnwritableModel()})
    assert [p for p in out.rglob("*")] == []


def test_report_csv_bytes_stable(small_run, tmp_path):
    _, cfg, records, reports = small_run
    report(records, reports, cfg, str(tmp_path / "a"))
    report(records, reports, cfg, str(tmp_path / "b"))
    for name in ("estimates.csv", "backtest.csv", "fit_diagnostics.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def _written(root):
    """Every file under root by relative path: its bytes, or for a manifest
    its JSON without the creation time."""
    files = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name.endswith("manifest.json"):
            data = json.loads(data)
            del data["created_at"]
        files[str(path.relative_to(root))] = data
    return files


@settings(max_examples=4, deadline=None)
@given(
    grid=st.lists(st.integers(5, 60), min_size=2, max_size=2, unique=True),
    portfolio=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_reruns_write_the_same_bytes(grid, portfolio, seed):
    # two in-process reruns of a run and of a sweep, each with its report,
    # write the same CSVs and model checkpoints, and the same manifests
    # but for their creation time
    tickers = ("A", "B", "C")
    panel = make_panel(101, tickers, seed)
    cfg = RunConfig(
        models=("gmm", "hs", "param", "gbm_mc"), n_components=(2,), alphas=(0.05,),
        long_len=60, short_len=20, paths=200, eval_days=40, seed=seed,
        portfolio=PortfolioSpec.equal(tickers) if portfolio else None,
    )
    written = []
    with tempfile.TemporaryDirectory() as tmp:
        for rerun in ("a", "b"):
            sink = {}
            records, reports = run_backtest(panel, cfg, model_sink=sink)
            report(records, reports, cfg, f"{tmp}/{rerun}/run", final_models=sink)
            report_sweep(sweep_sigma_short(panel, cfg, grid), cfg, f"{tmp}/{rerun}/sweep")
            written.append(_written(pathlib.Path(tmp, rerun)))
    assert written[0] == written[1]
    assert {"run/estimates.csv", "run/models/gmm2.json", "sweep/sweep_verdicts.csv"} <= set(written[0])


def test_report_sweep_layout(tmp_path):
    panel = make_panel(170, ("A", "B"), seed=2)
    cfg = RunConfig(
        models=("gmm",), n_components=(2,), alphas=(0.05,), long_len=120,
        short_len=30, paths=150, eval_days=10, seed=1,
    )
    results = sweep_sigma_short(panel, cfg, [15, 30])
    paths = report_sweep(results, cfg, str(tmp_path / "sw"))
    names = [
        f"short_{g}/{name}" for g in ("015", "030")
        for name in ("estimates", "backtest", "fit_diagnostics", "manifest")
    ] + ["sweep_verdicts", "sweep_manifest"]
    assert sorted(paths) == sorted(names)
    for name, path in paths.items():
        assert os.path.isfile(path) and path.startswith(str(tmp_path / "sw" / name))
    verdicts = (tmp_path / "sw" / "sweep_verdicts.csv").read_text().splitlines()
    assert verdicts[0] == "sigma_short,model_tag,ticker,alpha,n,x,verdict"
    assert len(verdicts) == 1 + 4
    manifest = json.loads((tmp_path / "sw" / "sweep_manifest.json").read_text())
    assert manifest["grid"] == [15, 30]
    short = json.loads((tmp_path / "sw" / "short_015" / "manifest.json").read_text())
    assert short["config"]["short_len"] == 15 and short["n_days"] == 10


def test_report_sweep_failure_leaves_no_file(tmp_path, monkeypatch):
    # the sweep manifest fails after both grid values' reports and the
    # verdict matrix went to temporaries: the sweep is written all or
    # nothing, like a run
    panel = make_panel(170, ("A", "B"), seed=2)
    cfg = RunConfig(
        models=("gmm",), n_components=(2,), alphas=(0.05,), long_len=120,
        short_len=30, paths=150, eval_days=10, seed=1,
    )
    results = sweep_sigma_short(panel, cfg, [15, 30])

    def fail(config, wall_clock_seconds, **entries):
        if "grid" in entries:
            raise OSError("disk full")
        return _manifest(config, wall_clock_seconds, **entries)

    monkeypatch.setattr("riskengine.engine._manifest", fail)
    out = tmp_path / "sw"
    with pytest.raises(OSError, match="disk full"):
        report_sweep(results, cfg, str(out))
    assert [p for p in out.rglob("*")] == []


def test_run_backtest_scenario_writer_called(panel_3assets, tmp_path):
    # the directory does not exist yet: the first save creates it
    cfg = RunConfig(
        **{**SMALL, "models": ("gmm",), "alphas": (0.05,), "eval_days": 2}
    )
    run_backtest(panel_3assets, cfg, scenario_dir=str(tmp_path / "scenarios"))
    files = sorted(os.listdir(tmp_path / "scenarios"))
    assert len(files) == 2  # one per evaluation day for the single model
    assert files[0].endswith("_gmm2.npy")


def test_run_backtest_calls_a_writer_without_dump_scenarios(panel_3assets, tmp_path):
    # the scenario_dir argument alone decides; no config field enters, and
    # hs, which simulates nothing, saves nothing
    cfg = RunConfig(**{**SMALL, "models": ("gmm", "hs", "gbm_mc"), "eval_days": 2})
    records, _ = run_backtest(panel_3assets, cfg, scenario_dir=str(tmp_path))
    saved = {name: np.load(tmp_path / name).shape for name in os.listdir(tmp_path)}
    assert saved == {
        f"{rec.date}_{tag}.npy": (cfg.paths, 3) for rec in records for tag in ("gmm2", "gbm_mc")
    }


def test_run_backtest_gbm_mc_dump_is_the_simulation(panel_3assets, tmp_path):
    tickers = ("AAA", "BBB", "CCC")
    cfg = RunConfig(
        **{**SMALL, "models": ("hs", "gbm_mc"), "eval_days": 3},
        portfolio=PortfolioSpec.equal(tickers),
    )
    records, _ = run_backtest(panel_3assets, cfg, scenario_dir=str(tmp_path / "scenarios"))
    returns = log_returns(panel_3assets)
    mi = cfg.model_keys().index("gbm_mc")
    for i, rec in enumerate(records):
        long_w = returns[i : i + cfg.long_len]
        expected = simulate_gbm_portfolio(
            *calibrate_gbm(long_w), cfg.paths, _derive_seed(cfg.seed, i, mi, 1)
        )
        dumped = np.load(tmp_path / "scenarios" / f"{rec.date}_gbm_mc.npy")
        assert dumped.shape == (cfg.paths, 3)
        assert dumped.tobytes() == expected.tobytes()
    assert len(os.listdir(tmp_path / "scenarios")) == 3


def test_gbm_mc_shocks_stay_with_their_day_after_an_invalid_day(tmp_path):
    # a worker draws gbm_mc's shocks ahead; param fails day 0 before gbm_mc
    # runs, and every later day must still simulate with its own seed, also
    # when the two threads trade the interpreter lock as often as they can
    panel = _panel_with_flat_head(n_flat=99, n_total=121)
    cfg = RunConfig(**{**SMALL, "models": ("param", "gbm_mc"), "long_len": 99, "eval_days": 21})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        records, _ = run_backtest(panel, cfg, scenario_dir=str(tmp_path))
    finally:
        sys.setswitchinterval(interval)
    assert records[0].error.startswith("DegenerateDataError")
    assert all(rec.error is None for rec in records[1:])
    returns = log_returns(panel)
    for i, rec in enumerate(records[1:], start=1):
        expected = simulate_gbm_portfolio(*calibrate_gbm(returns[i : i + cfg.long_len]),
                                          cfg.paths, _derive_seed(cfg.seed, i, 1, 1))
        assert np.load(tmp_path / f"{rec.date}_gbm_mc.npy").tobytes() == expected.tobytes()


class _DrawFailed(Exception):
    pass


def _run_within(seconds, *args):
    """run_backtest(*args) on a helper thread joined with a timeout, so that
    a hang fails the test instead of stalling the suite; returns what it
    returned or raises what it raised."""
    outcome = {}

    def target():
        try:
            outcome["value"] = run_backtest(*args)
        except BaseException as exc:
            outcome["error"] = exc

    helper = threading.Thread(target=target, daemon=True)
    helper.start()
    helper.join(seconds)
    assert not helper.is_alive(), f"run_backtest still running after {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


@pytest.mark.parametrize(
    "ending", ["returns", "run_failure", "config_error", "draw_error", "save_error"])
def test_shock_worker_is_joined_however_the_run_ends(panel_3assets, monkeypatch, tmp_path, ending):
    # a run with gbm_mc starts one shock worker; it must be gone when the
    # run returns, fails as a whole, rejects its config before the day loop,
    # meets an exception in the worker's draw, which reaches the caller as
    # itself, or stops mid-loop on its own thread (a scenario directory that
    # is a file) with later days' draws queued
    cfg = RunConfig(**{**SMALL, "models": ("hs", "gbm_mc"), "eval_days": 8})
    panel, expected, args = panel_3assets, None, ()
    if ending == "save_error":
        (tmp_path / "taken").write_text("")
        expected, args = FileExistsError, (str(tmp_path / "taken"),)
    elif ending == "run_failure":
        panel, expected = _panel_with_flat_head(n_flat=104, n_total=121), RunFailureError
        cfg = replace(cfg, alphas=(0.05,), long_len=99, eval_days=21)
    elif ending == "config_error":
        panel, expected = make_panel(100, ("X",), seed=1), ConfigError
    elif ending == "draw_error":
        expected, injected = _DrawFailed, _DrawFailed("draw failed")
        real, seeds = np.random.default_rng, []

        def default_rng(seed):
            seeds.append(seed)
            if len(seeds) == 3:
                raise injected
            return real(seed)

        monkeypatch.setattr(np.random, "default_rng", default_rng)
    before = threading.active_count()
    if expected is None:
        records, _ = _run_within(60, panel, cfg)
        assert len(records) == cfg.eval_days
    else:
        with pytest.raises(expected) as caught:
            _run_within(60, panel, cfg, *args)
        if ending == "draw_error":
            assert caught.value is injected
    assert threading.active_count() == before


def test_run_backtest_gmm_rows_and_dumps_match_a_recomputation(panel_3assets, tmp_path):
    # per day, from the warm-start fit chain and sample: the asset rows
    # are the full-sort reference of the unscaled scenarios times the vol
    # ratios, the portfolio row that of the ratio-scaled portfolio, and the
    # dump holds the ratio-scaled scenarios
    tickers = ("AAA", "BBB", "CCC")
    cfg = RunConfig(
        **{**SMALL, "models": ("gmm",), "eval_days": 4},
        portfolio=PortfolioSpec.equal(tickers),
    )
    records, _ = run_backtest(panel_3assets, cfg, scenario_dir=str(tmp_path))
    returns = log_returns(panel_3assets)
    weights = cfg.portfolio.weights
    model = "kmeans"
    for i, rec in enumerate(records):
        assert rec.error is None
        long_w = returns[i : i + cfg.long_len]
        model, _ = fit(long_w, 2, init=model, seed=_derive_seed(cfg.seed, i, 0, 0))
        seed = _derive_seed(cfg.seed, i, 0, 1)
        holding = sample(model, cfg.paths, np.random.default_rng(seed))
        ratios = np.array(
            [np.std(long_w[-cfg.short_len :, c]) / np.std(long_w[:, c]) for c in range(3)]
        )
        var, es, n_tail = _reference_block(holding, cfg.alphas)
        pv, pe, pn = _reference_block((holding @ (ratios * weights))[:, None], cfg.alphas)
        assert [t for t, _ in rec.realized] == [*tickers, PORTFOLIO_TICKER]
        assert rec.seeds == (seed,)
        assert rec.var[0].tolist() == np.vstack((var * ratios[:, None], pv)).tolist()
        assert rec.es[0].tolist() == np.vstack((es * ratios[:, None], pe)).tolist()
        assert rec.n_tail[0].tolist() == np.vstack((n_tail, pn)).tolist()
        dumped = np.load(tmp_path / f"{rec.date}_gmm2.npy")
        assert dumped.tobytes() == (holding * ratios).tobytes(), rec.date
    assert len(os.listdir(tmp_path)) == 4


def test_run_backtest_tags_and_days_never_share_scenarios(panel_3assets, tmp_path):
    # gmm2, gmm3 and gbm_mc simulate on the same days into arrays the run
    # reuses; every dump and every var/es row must still equal a recomputation
    # from that tag's own fit chain and seed alone
    tickers = ("AAA", "BBB", "CCC")
    cfg = RunConfig(
        **{**SMALL, "models": ("gmm", "gbm_mc"), "n_components": (2, 3), "eval_days": 4},
        portfolio=PortfolioSpec.equal(tickers),
    )
    assert cfg.warm_start and cfg.model_keys() == ["gmm2", "gmm3", "gbm_mc"]
    records, _ = run_backtest(panel_3assets, cfg, scenario_dir=str(tmp_path))
    returns = log_returns(panel_3assets)
    weights = cfg.portfolio.weights
    chains = {"gmm2": "kmeans", "gmm3": "kmeans"}
    for i, rec in enumerate(records):
        assert rec.error is None
        long_w = returns[i : i + cfg.long_len]
        ratios = np.array(
            [np.std(long_w[-cfg.short_len :, c]) / np.std(long_w[:, c]) for c in range(3)]
        )
        for mi, tag in enumerate(cfg.model_keys()):
            seed = _derive_seed(cfg.seed, i, mi, 1)
            assert rec.seeds[mi] == seed
            if tag == "gbm_mc":
                holding = simulate_gbm_portfolio(*calibrate_gbm(long_w), cfg.paths, seed)
                assets = var_es_columns(holding, cfg.alphas)
                series = holding @ weights
            else:
                fit_seed = _derive_seed(cfg.seed, i, mi, 0)
                chains[tag], _ = fit(long_w, int(tag[3:]), init=chains[tag], seed=fit_seed)
                unscaled = sample(chains[tag], cfg.paths, np.random.default_rng(seed))
                var, es, n_tail = var_es_columns(unscaled, cfg.alphas)
                assets = (var * ratios[:, None], es * ratios[:, None], n_tail)
                holding = unscaled * ratios
                series = unscaled @ (ratios * weights)
            portfolio = var_es_columns(series[:, None], cfg.alphas)
            for got, asset_rows, portfolio_row in zip(
                (rec.var, rec.es, rec.n_tail), assets, portfolio
            ):
                assert got[mi].tolist() == np.vstack((asset_rows, portfolio_row)).tolist(), tag
            dumped = np.load(tmp_path / f"{rec.date}_{tag}.npy")
            assert dumped.tobytes() == holding.tobytes(), (rec.date, tag)
    assert len(os.listdir(tmp_path)) == 4 * 3


def test_runs_and_reports_build_no_per_row_estimate_objects(panel_3assets, tmp_path):
    # estimates stay (model, target, alpha) arrays from the estimators to
    # the report files
    cfg = RunConfig(**SMALL, portfolio=PortfolioSpec.equal(("AAA", "BBB", "CCC")))
    assert cfg.model_keys() == ["gmm2", "hs", "param", "gbm_mc"]
    records, reports = run_backtest(panel_3assets, cfg)
    report(records, reports, cfg, str(tmp_path / "run"))
    results = sweep_sigma_short(panel_3assets, cfg, [20, 30])
    report_sweep(results, cfg, str(tmp_path / "sweep"))
    runs = [records, *(recs for recs, _ in results.values())]
    assert all(r.error is None for recs in runs for r in recs)
    assert all(type(a) is np.ndarray and a.shape == (4, 4, 2)
               for recs in runs for r in recs for a in (r.var, r.es, r.n_tail))


def _panel_with_flat_stretch():
    # three assets; return rows 122..131 are exactly zero in every column, so
    # only the day anchored at row 132 sees a zero 10-day volatility
    rng = np.random.default_rng(5)
    steps = rng.normal(0.0003, 0.011, (144, 3))
    steps[122:132] = 0.0
    prices = 100 * np.exp(np.vstack([np.zeros(3), np.cumsum(steps, axis=0)]))
    import datetime as dt

    d0 = dt.date(2019, 1, 1)
    dates = tuple((d0 + dt.timedelta(days=i)).isoformat() for i in range(145))
    return PricePanel(dates=dates, tickers=("A", "B", "C"), prices=prices)


def test_sweep_reproduces_plain_runs_byte_for_byte(tmp_path):
    panel = _panel_with_flat_stretch()
    cfg = RunConfig(
        models=("gmm", "hs", "param", "gbm_mc"), n_components=(2, 3),
        alphas=(0.01, 0.05), long_len=120, short_len=30, paths=200,
        eval_days=24, seed=4, portfolio=PortfolioSpec.equal(("A", "B", "C")),
    )
    grid = [10, 30, 50]
    results = sweep_sigma_short(panel, cfg, grid)
    report_sweep(results, cfg, str(tmp_path / "sweep"))
    flat_day = panel.dates[133]
    for g in grid:
        records, reports = results[g]
        invalid = [r.date for r in records if r.error is not None]
        assert invalid == ([flat_day] if g == 10 else [])
        # the dropped day leaves a gap that LR_ind must not pair across
        pairs = {
            (c.n, c.n00 + c.n01 + c.n10 + c.n11)
            for c in (rep.christoffersen for rep in reports)
        }
        assert pairs == ({(23, 21)} if g == 10 else {(24, 23)})

        plain_cfg = replace(cfg, short_len=g)
        plain_records, plain_reports = run_backtest(panel, plain_cfg)
        plain = tmp_path / f"plain_{g}"
        report(plain_records, plain_reports, plain_cfg, str(plain))
        for name in ("estimates.csv", "backtest.csv", "fit_diagnostics.csv"):
            swept = tmp_path / "sweep" / f"short_{g:03d}" / name
            assert swept.read_bytes() == (plain / name).read_bytes(), (g, name)


def test_zero_short_vol_invalidates_only_that_grid_point(tmp_path):
    # only the 10-day window of the day anchored at row 132 is flat, so that
    # day fails at grid point 10 alone, with the volatility-ratio message,
    # and a plain run at short_len 10 writes no scenario dump for it
    panel = _panel_with_flat_stretch()
    cfg = RunConfig(
        models=("gmm",), n_components=(2,), alphas=(0.05,), long_len=120, short_len=10,
        paths=200, eval_days=24, seed=4, portfolio=PortfolioSpec.equal(("A", "B", "C")),
    )
    flat_day = panel.dates[133]
    results = sweep_sigma_short(panel, cfg, [10, 30])
    errors = {g: {r.date: r.error for r in recs if r.error} for g, (recs, _) in results.items()}
    assert errors == {
        10: {flat_day: "ValidationError: volatility ratios must be positive and finite"}, 30: {}
    }
    run_backtest(panel, cfg, scenario_dir=str(tmp_path))
    dumps = os.listdir(tmp_path)
    assert len(dumps) == 23 and f"{flat_day}_gmm2.npy" not in dumps


@settings(max_examples=12, deadline=None)
@given(
    models=st.lists(st.sampled_from(MODEL_CHOICES), min_size=1, max_size=4, unique=True),
    n_assets=st.integers(1, 3),
    grid=st.lists(st.integers(2, 40), min_size=1, max_size=4, unique=True),
    portfolio=st.booleans(),
    flat=st.booleans(),
    seed=st.integers(0, 2**16),
)
# the flat stretch leaves gbm_mc a rank-1 window on a few days, whose
# correlation matrix has no Cholesky factor: the run fails as a whole
@example(models=["gmm", "hs", "param", "gbm_mc"], n_assets=2, grid=[39], portfolio=False,
         flat=True, seed=0)
@example(models=["gbm_mc"], n_assets=2, grid=[40], portfolio=False, flat=True, seed=0)
def test_every_grid_point_equals_its_plain_run(models, n_assets, grid, portfolio, flat, seed):
    # with flat, the g0 = min(grid) return rows before row 45 are zero in
    # every column, so with a gmm tag the day anchored at row 45 fails at
    # g0 alone (at every g when g0 = long_len: its long window is flat)
    tickers = tuple("ABC"[:n_assets])
    panel = make_panel(62, tickers, seed)
    if flat:
        steps = np.diff(np.log(panel.prices), axis=0)
        steps[45 - min(grid) : 45] = 0.0
        prices = 100 * np.exp(np.vstack([np.zeros(n_assets), np.cumsum(steps, axis=0)]))
        panel = PricePanel(dates=panel.dates, tickers=tickers, prices=prices)
    cfg = RunConfig(
        models=tuple(models), n_components=(2,), alphas=(0.05,), long_len=40, short_len=40,
        paths=100, eval_days=21, seed=seed,
        portfolio=PortfolioSpec.equal(tickers) if portfolio else None,
    )
    try:
        results = sweep_sigma_short(panel, cfg, grid)
    except RunFailureError as exc:
        # a sweep fails as a whole with its first grid value whose days are
        # too often invalid, and so does that value's plain run
        for g in sorted(grid):
            try:
                run_backtest(panel, replace(cfg, short_len=g))
            except RunFailureError as plain:
                assert str(plain) == str(exc)
                return
        raise AssertionError(f"the sweep failed but no plain run did: {exc}") from exc
    for g in grid:
        plain, _ = run_backtest(panel, replace(cfg, short_len=g))
        swept = results[g][0]
        assert [r.error for r in swept] == [r.error for r in plain]
        for r, p in zip(swept, plain):
            assert r.seeds == p.seeds
            if r.error is None:
                for a, b in ((r.var, p.var), (r.es, p.es), (r.n_tail, p.n_tail)):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("grid", [None, [10, 20, 30]], ids=["run", "sweep"])
def test_one_estimator_call_per_model_day(monkeypatch, grid):
    # each model-day's asset columns and portfolio series are one block,
    # read by its estimator in one call, however many grid points a sweep has
    panel = make_panel(160, ("AAA", "BBB", "CCC"), seed=3)
    cfg = RunConfig(**{**SMALL, "eval_days": 5}, portfolio=PortfolioSpec.equal(("AAA", "BBB", "CCC")))
    calls = []

    def counted(kernel):
        def call(rows, alphas):
            calls.append(rows.shape)
            return kernel(rows, alphas)
        return call

    monkeypatch.setattr("riskengine.engine._var_es_rows", counted(_var_es_rows))
    monkeypatch.setattr("riskengine.engine._parametric_rows", counted(_parametric_rows))
    if grid is None:
        run_backtest(panel, cfg)
    else:
        sweep_sigma_short(panel, cfg, grid)
    series = 1 if grid is None else len(grid)
    # per day, in model order gmm2, hs, param, gbm_mc: 3 asset rows and the portfolio series
    assert calls == [(3 + series, 150), (4, 120), (4, 120), (4, 150)] * 5


@pytest.mark.parametrize("fault", ["es above var", "nan var"])
def test_failed_estimate_check_invalidates_only_its_grid_point(monkeypatch, fault):
    # day 3's grid point 30 gets a corrupted gmm portfolio estimate; the
    # row is found by its content, however many rows a call reads
    panel = make_panel(200, ("AAA", "BBB", "CCC"), seed=3)
    cfg = RunConfig(
        models=("gmm",), n_components=(2,), alphas=(0.05,), long_len=120, short_len=30,
        paths=200, eval_days=20, seed=7, portfolio=PortfolioSpec.equal(("AAA", "BBB", "CCC")),
    )
    calls = []

    def record(rows, alphas):
        calls.append(rows.copy())  # the kernel reorders its rows in place
        return _var_es_rows(rows, alphas)

    monkeypatch.setattr("riskengine.engine._var_es_rows", record)
    clean = sweep_sigma_short(panel, cfg, [10, 30])
    # one block per day: the three asset rows, then one portfolio row per grid point
    target = calls[3][3 + 1].copy()
    corrupted = []

    def corrupt(rows, alphas):
        hit = [j for j in range(len(rows)) if np.array_equal(rows[j], target)]
        var, es, n_tail = _var_es_rows(rows, alphas)
        for j in hit:
            if fault == "nan var":
                var[j] = np.nan
            else:
                es[j] = var[j] + 0.5
            corrupted.append((es[j, 0], var[j, 0]))
        return var, es, n_tail

    monkeypatch.setattr("riskengine.engine._var_es_rows", corrupt)
    results = sweep_sigma_short(panel, cfg, [10, 30])
    assert corrupted
    e, v = corrupted[-1]
    expected = ("ValidationError: var/es must be finite" if fault == "nan var" else
                f"ValidationError: es {e} exceeds var {v}; tail mean cannot sit above its quantile")
    for g in (10, 30):
        for day, (r, c) in enumerate(zip(results[g][0], clean[g][0])):
            if (day, g) == (3, 30):
                assert r.error == expected and r.var is None
            else:
                assert r.error is None
                assert r.var.tobytes() == c.var.tobytes() and r.es.tobytes() == c.es.tobytes()
