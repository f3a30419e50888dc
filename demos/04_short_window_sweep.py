"""How the short-window length changes mixture VaR.

The rescaling ratio sigma_short / sigma_long is the only knob the sweep
turns: daily mixture fits are shared across grid values, so differences in
the reported VaR come purely from how fast the short window tracks current
volatility. Short windows react hard to the recent stressed stretch; long
ones dilute it.
"""

import datetime as dt

import numpy as np

from riskengine import PricePanel, RunConfig, log_returns
from riskengine.engine import sweep_sigma_short


def build_panel(seed=41, n=343):
    # calm history, stressed final third covering every evaluation window
    rng = np.random.default_rng(seed)
    steps = np.concatenate(
        [rng.normal(0.0004, 0.008, 222), rng.normal(-0.0008, 0.022, n - 1 - 222)]
    )
    d0 = dt.date(2017, 1, 2)
    return PricePanel(
        dates=tuple((d0 + dt.timedelta(days=i)).isoformat() for i in range(n)),
        tickers=("ONE",),
        prices=(100.0 * np.exp(np.concatenate([[0.0], np.cumsum(steps)])))[:, None],
    )


def main():
    panel = build_panel()
    config = RunConfig(
        models=("gmm",),
        n_components=(2,),
        alphas=(0.05,),
        long_len=252,
        short_len=60,  # placeholder, the sweep overrides it
        paths=5000,
        eval_days=30,
        seed=13,
    )
    grid = (10, 20, 40, 80, 160, 252)
    results = sweep_sigma_short(panel, config, grid)

    x = log_returns(panel)[:, 0]
    print("mean 95% VaR over the 30 evaluation days, by short-window length")
    print()
    print(f"{'short_len':>9} {'mean ratio':>11} {'mean VaR':>10}")
    for g in grid:
        records, _ = results[g]
        ratios = [
            np.std(x[rec.anchor - g : rec.anchor])
            / np.std(x[rec.anchor - config.long_len : rec.anchor])
            for rec in records
        ]
        vars_ = [rec.var[0, 0, 0] for rec in records]  # (model, target, alpha)
        print(f"{g:>9d} {np.mean(ratios):>11.3f} {np.mean(vars_):>10.5f}")


if __name__ == "__main__":
    main()
