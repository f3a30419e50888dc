"""One-day 99% and 95% VaR for a single asset, four ways.

A year of synthetic prices ends with a volatile stretch, so the short-window
volatility ratio pushes the mixture model's scenarios wider than the plain
long-window calibration. The classical baselines (historical, parametric
normal, GBM Monte Carlo) see only the long window and therefore react more
slowly.
"""

import datetime as dt

import numpy as np

from riskengine import (
    PricePanel,
    calibrate_gbm,
    fit,
    log_returns,
    parametric_columns,
    sample,
    simulate_gbm_portfolio,
    var_es_columns,
)


def build_prices(seed=12):
    # 252 calm days, then 30 days at triple the volatility
    rng = np.random.default_rng(seed)
    steps = np.concatenate(
        [rng.normal(0.0003, 0.009, 252), rng.normal(-0.0005, 0.027, 30)]
    )
    prices = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(steps)]))
    d0 = dt.date(2021, 1, 4)
    dates = tuple((d0 + dt.timedelta(days=i)).isoformat() for i in range(len(prices)))
    return PricePanel(dates=dates, tickers=("DEMO",), prices=prices[:, None])


def main():
    panel = build_prices()
    # the last 252 returns estimate VaR for the day after the sample
    window = log_returns(panel)[-252:, 0]

    ratio = np.std(window[-30:]) / np.std(window)
    model, rep = fit(window, 2, seed=3)
    scen = sample(model, 20000, np.random.default_rng(17))
    scaled = scen * ratio

    print(f"short/long vol ratio: {ratio:.3f}  (fit {rep.iterations} iters)")
    print()
    print(f"{'model':<22} {'VaR 95%':>10} {'ES 95%':>10} {'VaR 99%':>10}")
    # every estimator returns var and es arrays shaped (column, alpha); the
    # GBM baseline is the empirical estimator over 20000 simulated days
    alphas = (0.05, 0.01)
    gbm_days = simulate_gbm_portfolio(*calibrate_gbm(window[:, None]), 20000, seed=5)
    estimates = {
        "mixture MC": var_es_columns(scen, alphas),
        "mixture MC, rescaled": var_es_columns(scaled, alphas),
        "historical": var_es_columns(window[:, None], alphas),
        "parametric normal": parametric_columns(window[:, None], alphas),
        "GBM Monte Carlo": var_es_columns(gbm_days, alphas),
    }
    for name, (var, es, *_) in estimates.items():
        print(f"{name:<22} {var[0, 0]:>10.5f} {es[0, 0]:>10.5f} {var[0, 1]:>10.5f}")


if __name__ == "__main__":
    main()
