"""Command line interface.

Subcommands: run (rolling backtest), sweep (short-window grid), gof
(distribution fit tables per ticker). Exit codes: 0 success, 2 bad
flags/config, 3 unreadable or invalid input data, 4 run-level failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .backtest import ks_test
from .engine import (
    RunConfig,
    _commit,
    _list_items,
    report,
    report_sweep,
    run_backtest,
    sweep_sigma_short,
)
from .errors import (
    ConfigError,
    InsufficientDataError,
    NumericError,
    ParseError,
    RunFailureError,
    ValidationError,
)
from .gmm import fit, log_likelihood, mixture_cdf
from .risk import PortfolioSpec
from .timeseries import load_prices, log_returns


def _split_csv(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def _parse_grid(text: str) -> list[int]:
    """Grid syntax: 'a:b:step' (inclusive) or a comma list '10,20,30'."""
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError("expected start:stop:step")
            start, stop, step = (int(p) for p in parts)
            if step <= 0 or stop < start:
                raise ValueError("need step > 0 and stop >= start")
            return list(range(start, stop + 1, step))
        return [int(v) for v in _split_csv(text)]
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskengine",
        description="Mixture-model Monte Carlo VaR engine and backtests",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--prices", required=True, help="price CSV (date,TICKER,...)")
        p.add_argument("--config", help="JSON file with RunConfig fields")
        p.add_argument("--models", help="comma list from gmm,hs,param,gbm_mc")
        p.add_argument("--components", help="comma list of mixture sizes")
        p.add_argument("--alpha", help="comma list of VaR levels")
        p.add_argument("--window-long", type=int, dest="window_long")
        p.add_argument("--window-short", type=int, dest="window_short")
        p.add_argument("--paths", type=int)
        p.add_argument(
            "--days", type=int,
            help="number of evaluation days, the first ones after the first long window",
        )
        p.add_argument("--seed", type=int)
        p.add_argument(
            "--portfolio", choices=["equal", "none"],
            help="add an equally weighted portfolio target",
        )
        p.add_argument(
            "--no-warm-start", action="store_true",
            help="cold-start every day's EM fit",
        )

    p_run = sub.add_parser("run", help="rolling out-of-sample backtest")
    add_common(p_run)
    p_run.add_argument("--out", required=True, help="report directory")
    p_run.add_argument(
        "--dump-scenarios", action="store_true",
        help="save each Monte Carlo model-day's scenarios as .npy (large)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="short-volatility window sweep")
    add_common(p_sweep)
    p_sweep.add_argument("--out", required=True, help="report directory")
    p_sweep.add_argument(
        "--grid", required=True, help="grid as start:stop:step or comma list"
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_gof = sub.add_parser("gof", help="distribution goodness-of-fit tables")
    p_gof.add_argument("--prices", required=True)
    p_gof.add_argument("--components", default="3,4,5,6")
    p_gof.add_argument("--seed", type=int, default=0)
    p_gof.add_argument("--out", help="optional CSV output path")
    p_gof.set_defaults(func=_cmd_gof)
    return parser


def _read_prices(path):
    """load_prices(path); a file that cannot be read or decoded is a data
    error that names it."""
    try:
        return load_prices(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read price file {path}: {exc}") from exc


def _load_config(args) -> RunConfig:
    base: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                base = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(base, dict):
            raise ConfigError("config file must hold a JSON object")
    if args.models is not None:
        base["models"] = _split_csv(args.models)
    if args.components is not None:
        try:
            base["n_components"] = [int(c) for c in _split_csv(args.components)]
        except ValueError as exc:
            raise ConfigError(f"bad --components: {exc}") from exc
    if args.alpha is not None:
        try:
            base["alphas"] = [float(a) for a in _split_csv(args.alpha)]
        except ValueError as exc:
            raise ConfigError(f"bad --alpha: {exc}") from exc
    for flag, key in (
        ("window_long", "long_len"),
        ("window_short", "short_len"),
        ("paths", "paths"),
        ("days", "eval_days"),
        ("seed", "seed"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            base[key] = value
    if args.no_warm_start:
        base["warm_start"] = False
    if args.portfolio == "none":
        base["portfolio"] = None
    return RunConfig.from_dict(base)


def _finalize_portfolio(config: RunConfig, args, tickers) -> RunConfig:
    from dataclasses import replace

    if args.portfolio == "equal":
        return replace(config, portfolio=PortfolioSpec.equal(tickers))
    return config


def _print_report_table(reports) -> None:
    head = f"{'model':<10} {'ticker':<12} {'alpha':>6} {'x/n':>9} {'p_uc':>8} {'p_ind':>8} verdict"
    print(head)
    for rep in reports:
        c = rep.christoffersen
        p_uc = f"{c.p_uc:.4f}" if c else "-"
        p_ind = f"{c.p_ind:.4f}" if c else "-"
        print(
            f"{rep.model_tag:<10} {rep.ticker:<12} {rep.alpha:>6g} "
            f"{rep.x:>4}/{rep.n:<4} {p_uc:>8} {p_ind:>8} {rep.verdict}"
        )


def _cmd_run(args) -> int:
    config = _load_config(args)
    panel = _read_prices(args.prices)
    config = _finalize_portfolio(config, args, panel.tickers)
    scenario_dir = os.path.join(args.out, "scenarios") if args.dump_scenarios else None
    sink: dict = {}
    t0 = time.monotonic()
    records, reports = run_backtest(
        panel, config, scenario_dir=scenario_dir, model_sink=sink
    )
    elapsed = time.monotonic() - t0
    report(
        records,
        reports,
        config,
        args.out,
        wall_clock_seconds=elapsed,
        final_models=sink,
    )
    n_invalid = sum(1 for r in records if r.error is not None)
    print(
        f"{len(records)} evaluation days ({n_invalid} invalid), "
        f"{len(reports)} backtest rows, {elapsed:.1f}s"
    )
    _print_report_table(reports)
    print(f"report written to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    grid = _parse_grid(args.grid)
    panel = _read_prices(args.prices)
    config = _finalize_portfolio(config, args, panel.tickers)
    t0 = time.monotonic()
    results = sweep_sigma_short(panel, config, grid)
    elapsed = time.monotonic() - t0
    report_sweep(results, config, args.out, wall_clock_seconds=elapsed)
    print(
        f"sweep over sigma_short in {sorted(results)} done in {elapsed:.1f}s; "
        f"verdict matrix in {args.out}/sweep_verdicts.csv"
    )
    return 0


def _cmd_gof(args) -> int:
    try:
        components = [int(c) for c in _split_csv(args.components)]
    except ValueError as exc:
        raise ConfigError(f"bad --components: {exc}") from exc
    components = _list_items("--components", components, "positive integers", lambda c: c >= 1)
    if args.seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
    if args.out and not args.out.endswith(".csv"):
        raise ConfigError(f"--out must name a .csv file, got {args.out!r}")
    panel = _read_prices(args.prices)
    returns = log_returns(panel)  # (n - 1, assets)
    # every fit must succeed before the table's first line is printed
    if max(components) > len(returns):
        raise InsufficientDataError(
            f"cannot fit {max(components)} components to {len(returns)} samples"
        )

    rows = []
    print(f"{'ticker':<12} {'model':<8} {'loglik':>10} {'ks_stat':>9} {'ks_p':>8}")
    for c, ticker in enumerate(panel.tickers):
        data = returns[:, c]
        for label, n_comp in [("normal", 1)] + [(f"gmm{n}", n) for n in components]:
            model, _ = fit(data, n_comp, seed=args.seed)
            ll = log_likelihood(model, data)
            ks_stat, ks_p = ks_test(data, lambda x, m=model: mixture_cdf(m, x))
            rows.append([ticker, label, repr(ll), repr(ks_stat), repr(ks_p)])
            print(f"{ticker:<12} {label:<8} {ll:>10.4f} {ks_stat:>9.5f} {ks_p:>8.4f}")
    if args.out:
        # staged like a run report: the directory is created, the write is all or nothing
        header = "ticker,model,loglik_per_sample,ks_stat,ks_pvalue"
        _commit(os.path.dirname(args.out) or ".", [(os.path.basename(args.out), (header, rows))])
        print(f"table written to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, ValidationError) as exc:
        # covers insufficient/degenerate data subclasses as well
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (RunFailureError, NumericError, np.linalg.LinAlgError, OSError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
