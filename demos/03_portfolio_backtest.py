"""Rolling backtest of an equal-weight five-asset portfolio.

Runs every model over 250 evaluation days, then prints the Christoffersen
coverage verdicts for the portfolio line. A full CSV report (estimates,
hit-sequence diagnostics, fit traces, manifest) lands in ./backtest_out.
"""

import datetime as dt

import numpy as np

from riskengine import PortfolioSpec, PricePanel, RunConfig, run_backtest
from riskengine.engine import report


def build_panel(seed=29, n=503, k=5):
    # one common factor plus idiosyncratic noise, mild positive drift
    rng = np.random.default_rng(seed)
    common = rng.normal(0.0, 1.0, (n - 1, 1))
    steps = 0.0003 + 0.010 * (0.45 * common + np.sqrt(1 - 0.45**2) * rng.normal(0.0, 1.0, (n - 1, k)))
    logp = np.vstack([np.zeros(k), np.cumsum(steps, axis=0)])
    d0 = dt.date(2019, 1, 2)
    return PricePanel(
        dates=tuple((d0 + dt.timedelta(days=i)).isoformat() for i in range(n)),
        tickers=tuple(f"AST{i}" for i in range(k)),
        prices=100.0 * np.exp(logp),
    )


def main():
    panel = build_panel()
    config = RunConfig(
        models=("gmm", "hs", "param", "gbm_mc"),
        n_components=(2,),
        alphas=(0.01, 0.05),
        long_len=252,
        short_len=60,
        paths=2000,
        eval_days=250,
        seed=99,
        portfolio=PortfolioSpec.equal(panel.tickers),
    )
    records, reports = run_backtest(panel, config)
    failed = sum(1 for r in records if r.error)
    print(f"{len(records)} evaluation days, {failed} failed")
    print()
    print(f"{'model':<8} {'alpha':>6} {'hits':>5} {'expected':>9} {'p_uc':>8} {'p_ind':>8}  verdict")
    for rep in reports:
        if rep.ticker != "PORTFOLIO":
            continue
        expected = rep.alpha * rep.n
        c = rep.christoffersen
        print(
            f"{rep.model_tag:<8} {rep.alpha:>6.2f} {rep.x:>5d} {expected:>9.1f}"
            f" {c.p_uc:>8.4f} {c.p_ind:>8.4f}  {rep.verdict}"
        )

    report(records, reports, config, "backtest_out")
    print()
    print("wrote CSV report to ./backtest_out")


if __name__ == "__main__":
    main()
