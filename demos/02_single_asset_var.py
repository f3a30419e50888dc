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
    EmSettings,
    PricePanel,
    fit,
    gbm_mc_var,
    historical_var,
    log_returns,
    parametric_var,
    rescale,
    simulate_gmm,
    var_es,
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
    rets = log_returns(panel)
    # the last 252 returns estimate VaR for the day after the sample
    window = rets.returns[-252:, 0]

    ratio = np.std(window[-30:]) / np.std(window)
    model, rep = fit(window, 2, settings=EmSettings(seed=3))
    scen = simulate_gmm(model, m=20000, seed=17)
    scaled = rescale(scen, [ratio])

    print(f"short/long vol ratio: {ratio:.3f}  (fit {rep.iterations} iters)")
    print()
    print(f"{'model':<22} {'VaR 95%':>10} {'ES 95%':>10} {'VaR 99%':>10}")
    for alpha in (0.05,):
        rows = [
            ("mixture MC", var_es(scen[:, 0], alpha)),
            ("mixture MC, rescaled", var_es(scaled[:, 0], alpha)),
            ("historical", historical_var(window, alpha)),
            ("parametric normal", parametric_var(window, alpha)),
            ("GBM Monte Carlo", gbm_mc_var(window, alpha, m=20000, seed=5)),
        ]
        deep = {
            "mixture MC": var_es(scen[:, 0], 0.01),
            "mixture MC, rescaled": var_es(scaled[:, 0], 0.01),
            "historical": historical_var(window, 0.01),
            "parametric normal": parametric_var(window, 0.01),
            "GBM Monte Carlo": gbm_mc_var(window, 0.01, m=20000, seed=5),
        }
        for name, est in rows:
            print(
                f"{name:<22} {est.var:>10.5f} {est.es:>10.5f}"
                f" {deep[name].var:>10.5f}"
            )


if __name__ == "__main__":
    main()
