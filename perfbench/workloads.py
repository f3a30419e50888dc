"""Benchmark workloads and the price panels they run on.

Every workload runs on generated one-factor panels of 15 assets (the shape
of the desk panel in acceptance criteria 5 and 7) with an equal-weight
portfolio target. A run's inputs are PANELS_PER_RUN panels, each drawn from
SeedSequence([seed, panel_index]); the engine only ever sees the CSV files.
"""

from __future__ import annotations

import datetime as dt

import numpy as np

N_ASSETS = 15
LONG_LEN = 252
SHORT_LEN = 70
PANELS_PER_RUN = 3
SWEEP_GRID = list(range(10, 71, 10))
PORTFOLIO = "PORTFOLIO"

WORKLOADS = {
    # gmm3 + param at alpha 0.05, 3000 paths, warm start: EM dominates.
    "desk": {
        "config": {
            "models": ["gmm", "param"],
            "n_components": [3],
            "alphas": [0.05],
            "paths": 3000,
            "warm_start": True,
        },
        "days": 400,
        "grid": None,
    },
    # 7-point sigma_short grid over gmm3: one fit per day, seven rescalings.
    "sweep": {
        "config": {
            "models": ["gmm"],
            "n_components": [3],
            "alphas": [0.05],
            "paths": 3000,
            "warm_start": True,
        },
        "days": 150,
        "grid": SWEEP_GRID,
    },
    # hs, param and gbm_mc at two levels with 10000 paths: no EM at all.
    "baselines": {
        "config": {
            "models": ["hs", "param", "gbm_mc"],
            "n_components": [3],
            "alphas": [0.01, 0.05],
            "paths": 10000,
            "warm_start": True,
        },
        "days": 150,
        "grid": None,
    },
}


def run_config(name: str, seed: int) -> dict:
    """RunConfig fields for one workload; the portfolio is added as 'equal'."""
    w = WORKLOADS[name]
    return dict(
        w["config"],
        long_len=LONG_LEN,
        short_len=SHORT_LEN,
        horizon=1,
        eval_days=w["days"],
        seed=seed,
    )


def model_tags(name: str) -> list[str]:
    cfg = WORKLOADS[name]["config"]
    tags: list[str] = []
    for m in cfg["models"]:
        if m == "gmm":
            tags.extend(f"gmm{c}" for c in cfg["n_components"])
        else:
            tags.append(m)
    return tags


def tickers() -> list[str]:
    return [f"S{i:02d}" for i in range(N_ASSETS)]


def panel_prices(seed: int, panel_index: int, n_days: int) -> np.ndarray:
    """(LONG_LEN + n_days + 1, N_ASSETS) one-factor geometric price paths."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, panel_index]))
    n = LONG_LEN + n_days + 1
    base = rng.normal(0.0, 1.0, (n - 1, 1))
    idio = rng.normal(0.0, 1.0, (n - 1, N_ASSETS))
    steps = 0.0002 + 0.011 * (0.5 * base + np.sqrt(0.75) * idio)
    logp = np.vstack([np.zeros(N_ASSETS), np.cumsum(steps, axis=0)])
    return 100.0 * np.exp(logp)


def write_panel_csv(path: str, seed: int, panel_index: int, n_days: int) -> None:
    prices = panel_prices(seed, panel_index, n_days)
    start = dt.date(2015, 1, 1)
    with open(path, "w") as fh:
        fh.write("date," + ",".join(tickers()) + "\n")
        for i, row in enumerate(prices):
            day = (start + dt.timedelta(days=i)).isoformat()
            fh.write(day + "," + ",".join(repr(float(p)) for p in row) + "\n")
