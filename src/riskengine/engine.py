"""Rolling-window backtest runs: day loop, reports, parameter sweeps.

Reproducibility contract: a run is a pure function of (panel, RunConfig).
Every stochastic step draws from a Generator seeded by

    SeedSequence(entropy=config.seed, spawn_key=(day_index, model_index, purpose))

with purpose 0 for fit initialization and 1 for simulation, collapsed to a
uint64. Streams therefore do not depend on the short window length, which
lets a sigma_short sweep reuse per-day fits and still reproduce a plain run
byte for byte. Report CSVs format floats with repr() (shortest round-trip),
so identical runs produce identical bytes; only the manifest's timestamp
and wall-clock fields differ between repeated runs.

Per-day failures (degenerate windows, factorization errors) mark the day
invalid instead of aborting; a run fails as a whole when more than 5% of
evaluation days are invalid.
"""

from __future__ import annotations

import csv
import json
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .backtest import (
    VERDICT_INSUFFICIENT,
    BacktestReport,
    christoffersen,
    hits,
    quadratic_loss,
)
from .baselines import calibrate_gbm, historical_var, parametric_var
from .errors import (
    ConfigError,
    DegenerateDataError,
    InsufficientDataError,
    NumericError,
    RunFailureError,
    ValidationError,
)
from .gmm import EmSettings, GaussianMixtureModel, fit
from .risk import PortfolioSpec, RiskEstimate, portfolio_returns, var_es
from .scenario import ScenarioMatrix, compound, rescale, simulate_gbm_portfolio, simulate_gmm, vol_ratios
from .timeseries import PricePanel, ReturnPanel, RollingWindow, log_returns, slice_window

MODEL_CHOICES = ("gmm", "hs", "param", "gbm_mc")
PORTFOLIO_TICKER = "PORTFOLIO"

ESTIMATES_HEADER = "date,ticker,model_tag,alpha,var,es,n_tail,seed"
DIAGNOSTICS_HEADER = "date,model_tag,init_mode,iterations,converged,final_loglik"
SWEEP_HEADER = "sigma_short,model_tag,ticker,alpha,n,x,verdict"


def derive_seed(root_seed: int, *path: int) -> int:
    """Collapse (root, path...) into one integer seed for default_rng."""
    ss = np.random.SeedSequence(
        entropy=int(root_seed), spawn_key=tuple(int(p) for p in path)
    )
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class RunConfig:
    """Everything a backtest run depends on besides the price panel."""

    models: tuple[str, ...] = ("gmm", "hs", "param", "gbm_mc")
    n_components: tuple[int, ...] = (3, 4, 5, 6)
    alphas: tuple[float, ...] = (0.01, 0.05)
    long_len: int = 252
    short_len: int = 70
    paths: int = 3000
    horizon: int = 1
    eval_days: int = 1000
    seed: int = 0
    portfolio: PortfolioSpec | None = None
    warm_start: bool = True
    dump_scenarios: bool = False

    def __post_init__(self):
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(self, "n_components", tuple(int(c) for c in self.n_components))
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        if not self.models:
            raise ConfigError("models must not be empty")
        for m in self.models:
            if m not in MODEL_CHOICES:
                raise ConfigError(
                    f"unknown model {m!r}; choices are {MODEL_CHOICES}"
                )
        if len(set(self.models)) != len(self.models):
            raise ConfigError("duplicate entries in models")
        if not self.n_components or any(c < 1 for c in self.n_components):
            raise ConfigError("n_components must be a non-empty tuple of ints >= 1")
        if len(set(self.n_components)) != len(self.n_components):
            raise ConfigError("duplicate entries in n_components")
        if not self.alphas or any(not 0.0 < a < 1.0 for a in self.alphas):
            raise ConfigError("alphas must be a non-empty tuple inside (0, 1)")
        if len(set(self.alphas)) != len(self.alphas):
            raise ConfigError("duplicate entries in alphas")
        if not 0 < self.short_len <= self.long_len:
            raise ConfigError(
                f"need 0 < short_len <= long_len, got {self.short_len}/{self.long_len}"
            )
        if self.paths < 100:
            raise ConfigError(f"paths must be >= 100, got {self.paths}")
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        if self.eval_days < 1:
            raise ConfigError(f"eval_days must be >= 1, got {self.eval_days}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")

    def model_keys(self) -> list[str]:
        """Concrete model tags, expanding gmm across component counts."""
        keys: list[str] = []
        for m in self.models:
            if m == "gmm":
                keys.extend(f"gmm{c}" for c in self.n_components)
            else:
                keys.append(m)
        return keys

    def to_dict(self) -> dict:
        d = {
            "models": list(self.models),
            "n_components": list(self.n_components),
            "alphas": list(self.alphas),
            "long_len": self.long_len,
            "short_len": self.short_len,
            "paths": self.paths,
            "horizon": self.horizon,
            "eval_days": self.eval_days,
            "seed": self.seed,
            "portfolio": None,
            "warm_start": self.warm_start,
            "dump_scenarios": self.dump_scenarios,
        }
        if self.portfolio is not None:
            d["portfolio"] = {
                "tickers": list(self.portfolio.tickers),
                "weights": self.portfolio.weights.tolist(),
            }
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        d = dict(d)
        unknown = set(d) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        portfolio = d.pop("portfolio", None)
        if portfolio is not None and not isinstance(portfolio, PortfolioSpec):
            try:
                portfolio = PortfolioSpec(
                    tickers=tuple(portfolio["tickers"]),
                    weights=np.asarray(portfolio["weights"], dtype=float),
                )
            except (KeyError, TypeError, ValidationError) as exc:
                raise ConfigError(f"invalid portfolio spec: {exc}") from exc
        try:
            return cls(portfolio=portfolio, **d)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class FitDiagnostic:
    """One EM fit's summary inside a run."""

    model_tag: str
    init_mode: str
    iterations: int
    converged: bool
    final_loglik: float


@dataclass(frozen=True, eq=False)
class DayRecord:
    """Everything produced for one evaluation day.

    estimates holds (model_tag, target, RiskEstimate) triples; realized the
    out-of-sample return per target. A non-None error marks the day invalid:
    its estimates are excluded from backtesting and from the estimates CSV.
    """

    date: str
    anchor: int
    realized: tuple[tuple[str, float], ...]
    estimates: tuple[tuple[str, str, RiskEstimate], ...]
    fit_diagnostics: tuple[FitDiagnostic, ...]
    error: str | None = None


def _population_std(a: np.ndarray) -> float:
    return float(np.std(a))


def _panel_returns(panel) -> ReturnPanel:
    if isinstance(panel, PricePanel):
        return log_returns(panel)
    if isinstance(panel, ReturnPanel):
        return panel
    raise ValidationError(
        f"expected a PricePanel or ReturnPanel, got {type(panel).__name__}"
    )


def run_backtest(
    panel,
    config: RunConfig,
    scenario_writer=None,
    model_sink: dict | None = None,
    _fit_cache: dict | None = None,
) -> tuple[list[DayRecord], list[BacktestReport]]:
    """Roll a daily out-of-sample backtest across the panel.

    Day i anchors at row long_len + i of the return panel: models calibrate
    on the long_len rows before the anchor and forecast the anchor row's
    return. GMM scenarios are rescaled per asset by short/long volatility
    before VaR extraction; baselines run on the same window unadjusted.
    Backtests are one-day only: the realized return is one day, so a config
    with horizon > 1 raises ConfigError.

    scenario_writer, when given together with config.dump_scenarios, is
    called as writer(date, model_tag, scenario_matrix) for each Monte Carlo
    model-day. model_sink, when given, is filled with the final fitted
    mixture per gmm tag (warm-start checkpoint state). _fit_cache maps
    (day_index, tag) to (model, FitDiagnostic) and exists for sweeps that
    reuse fits across grid values.
    """
    if config.horizon != 1:
        raise ConfigError(
            f"backtests score one-day forecasts only; got horizon {config.horizon}"
        )
    returns = _panel_returns(panel)
    n_rows = returns.n_rows
    if config.long_len + config.eval_days > n_rows:
        raise ConfigError(
            f"panel has {n_rows} return rows; need long_len + eval_days = "
            f"{config.long_len + config.eval_days}"
        )
    tickers = returns.tickers
    if config.portfolio is not None and config.portfolio.tickers != tickers:
        raise ConfigError(
            "portfolio tickers must match the panel tickers in order; "
            f"got {config.portfolio.tickers} vs {tickers}"
        )
    targets = list(tickers) + (
        [PORTFOLIO_TICKER] if config.portfolio is not None else []
    )
    keys = config.model_keys()
    needs_gmm = any(k.startswith("gmm") for k in keys)
    prev_models: dict[str, GaussianMixtureModel] = {}
    records: list[DayRecord] = []

    for i in range(config.eval_days):
        anchor = config.long_len + i
        date = returns.dates[anchor]
        window = RollingWindow(
            anchor=anchor, long_len=config.long_len, short_len=config.short_len
        )
        long_s, short_s = slice_window(returns, window)
        realized_assets = returns.returns[anchor]
        realized = [(t, float(realized_assets[c])) for c, t in enumerate(tickers)]
        if config.portfolio is not None:
            realized.append(
                (
                    PORTFOLIO_TICKER,
                    float(realized_assets @ config.portfolio.weights),
                )
            )

        estimates: list[tuple[str, str, RiskEstimate]] = []
        diags: list[FitDiagnostic] = []
        error = None
        try:
            ratios = vol_ratios(long_s, short_s) if needs_gmm else None
            for mi, key in enumerate(keys):
                fit_seed = derive_seed(config.seed, i, mi, 0)
                sim_seed = derive_seed(config.seed, i, mi, 1)
                if key.startswith("gmm"):
                    n_comp = int(key[3:])
                    cached = None if _fit_cache is None else _fit_cache.get((i, key))
                    if cached is not None:
                        model, diag = cached
                    else:
                        warm = prev_models.get(key) if config.warm_start else None
                        model, rep = fit(
                            long_s.returns,
                            n_comp,
                            init=warm if warm is not None else "kmeans",
                            settings=EmSettings(seed=fit_seed),
                        )
                        diag = FitDiagnostic(
                            model_tag=key,
                            init_mode=rep.init_mode,
                            iterations=rep.iterations,
                            converged=rep.converged,
                            final_loglik=rep.final_loglik,
                        )
                        if _fit_cache is not None:
                            _fit_cache[(i, key)] = (model, diag)
                    prev_models[key] = model
                    diags.append(diag)
                    scen = simulate_gmm(
                        model, config.paths, config.horizon, sim_seed, tickers=tickers
                    )
                    scen = rescale(scen, ratios)
                    if scenario_writer is not None and config.dump_scenarios:
                        scenario_writer(date, key, scen)
                    estimates.extend(
                        _mc_estimates(scen, config, key, sim_seed, tickers)
                    )
                elif key == "hs":
                    for c, t in enumerate(tickers):
                        for a in config.alphas:
                            estimates.append(
                                (key, t, historical_var(
                                    long_s.returns[:, c], a, min_len=config.long_len
                                ))
                            )
                    if config.portfolio is not None:
                        series = long_s.returns @ config.portfolio.weights
                        for a in config.alphas:
                            estimates.append(
                                (key, PORTFOLIO_TICKER,
                                 historical_var(series, a, min_len=config.long_len))
                            )
                elif key == "param":
                    for c, t in enumerate(tickers):
                        for a in config.alphas:
                            estimates.append(
                                (key, t, parametric_var(long_s.returns[:, c], a))
                            )
                    if config.portfolio is not None:
                        series = long_s.returns @ config.portfolio.weights
                        for a in config.alphas:
                            estimates.append(
                                (key, PORTFOLIO_TICKER, parametric_var(series, a))
                            )
                elif key == "gbm_mc":
                    mus, sigmas, corr = calibrate_gbm(long_s.returns)
                    scen = simulate_gbm_portfolio(
                        np.ones(len(tickers)), mus, sigmas, corr,
                        config.paths, config.horizon, sim_seed, tickers=tickers,
                    )
                    if scenario_writer is not None and config.dump_scenarios:
                        scenario_writer(date, key, scen)
                    estimates.extend(
                        _gbm_estimates(scen, config, key, sim_seed, tickers)
                    )
        except (
            ValidationError,
            InsufficientDataError,
            DegenerateDataError,
            NumericError,
            np.linalg.LinAlgError,
        ) as exc:
            error = f"{type(exc).__name__}: {exc}"

        records.append(
            DayRecord(
                date=date,
                anchor=anchor,
                realized=tuple(realized),
                estimates=tuple(estimates),
                fit_diagnostics=tuple(diags),
                error=error,
            )
        )

    invalid = [r for r in records if r.error is not None]
    if len(invalid) > 0.05 * len(records):
        raise RunFailureError(
            f"{len(invalid)} of {len(records)} evaluation days invalid "
            f"(> 5%); first failure on {invalid[0].date}: {invalid[0].error}"
        )
    if model_sink is not None:
        model_sink.update(prev_models)

    reports = _build_reports(records, config, targets)
    return records, reports


def _mc_estimates(scen, config, key, sim_seed, tickers):
    """Per-target VaR/ES rows from a return-space scenario matrix."""
    out = []
    holding = scen.returns.sum(axis=1)
    for c, t in enumerate(tickers):
        for a in config.alphas:
            out.append((key, t, var_es(holding[:, c], a, model_tag=key, seed=sim_seed)))
    if config.portfolio is not None:
        pr = portfolio_returns(scen, config.portfolio)
        for a in config.alphas:
            out.append(
                (key, PORTFOLIO_TICKER, var_es(pr, a, model_tag=key, seed=sim_seed))
            )
    return out


def _gbm_estimates(scen, config, key, sim_seed, tickers):
    """Per-target rows from GBM paths; the portfolio aggregates in prices."""
    out = []
    holding = scen.returns.sum(axis=1)
    for c, t in enumerate(tickers):
        for a in config.alphas:
            out.append((key, t, var_es(holding[:, c], a, model_tag=key, seed=sim_seed)))
    if config.portfolio is not None:
        terminal = compound(scen, np.ones(len(tickers)))
        value = terminal @ config.portfolio.weights
        if np.any(value <= 0.0):
            raise NumericError(
                "portfolio value went non-positive in GBM simulation"
            )
        pr = np.log(value)
        for a in config.alphas:
            out.append(
                (key, PORTFOLIO_TICKER, var_es(pr, a, model_tag=key, seed=sim_seed))
            )
    return out


def _build_reports(records, config, targets) -> list[BacktestReport]:
    valid = [r for r in records if r.error is None]
    keys = config.model_keys()
    by_slot: dict[tuple[str, str, float], list[float]] = {}
    realized_by_target: dict[str, list[float]] = {t: [] for t in targets}
    for rec in valid:
        rmap = dict(rec.realized)
        for t in targets:
            realized_by_target[t].append(rmap[t])
        for key, target, est in rec.estimates:
            by_slot.setdefault((key, target, est.alpha), []).append(est.var)

    reports = []
    for key in keys:
        for target in targets:
            for a in config.alphas:
                vars_ = by_slot.get((key, target, a))
                if not vars_:
                    continue
                realized = np.asarray(realized_by_target[target])
                var_arr = np.asarray(vars_)
                seq = hits(realized, var_arr, a)
                loss = quadratic_loss(realized, var_arr)
                if seq.n >= 2:
                    result = christoffersen(seq)
                    note = ""
                else:
                    result = None
                    note = "single evaluation day; independence statistics undefined"
                reports.append(
                    BacktestReport(
                        model_tag=key,
                        ticker=target,
                        alpha=a,
                        hit_seq=seq,
                        christoffersen=result,
                        loss=loss,
                        note=note,
                    )
                )
    return reports


def sweep_sigma_short(
    panel, config: RunConfig, grid
) -> dict[int, tuple[list[DayRecord], list[BacktestReport]]]:
    """Re-run the backtest across short-window lengths, reusing daily fits.

    Fits depend only on the long window, so a shared cache makes every grid
    value see identical mixtures; only the rescaling ratio changes. Grid
    values must lie in [1, long_len].
    """
    values = sorted(set(int(g) for g in grid))
    if not values:
        raise ConfigError("sweep grid is empty")
    for g in values:
        if not 1 <= g <= config.long_len:
            raise ConfigError(
                f"grid value {g} outside [1, long_len={config.long_len}]"
            )
    cache: dict = {}
    results = {}
    for g in values:
        cfg = replace(config, short_len=g)
        results[g] = run_backtest(panel, cfg, _fit_cache=cache)
    return results


def sweep_verdict_rows(results) -> list[list[str]]:
    """Flatten sweep results into (sigma_short, model, ticker, alpha) rows."""
    rows = []
    for g in sorted(results):
        _, reports = results[g]
        for rep in reports:
            rows.append(
                [
                    str(g),
                    rep.model_tag,
                    rep.ticker,
                    repr(rep.alpha),
                    str(rep.n),
                    str(rep.x),
                    rep.verdict,
                ]
            )
    return rows


def _versions() -> dict:
    import scipy

    return {
        "package": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


def _write_rows(path: str, header: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows(rows)


def report(
    records,
    reports,
    config: RunConfig,
    out_dir: str,
    wall_clock_seconds: float | None = None,
    final_models: dict | None = None,
) -> dict[str, str]:
    """Write run outputs to a directory; returns {name: path}.

    Files: estimates.csv (valid days only), backtest.csv, fit_diagnostics.csv,
    manifest.json, and models/<tag>.json checkpoints when final_models is
    given. All files are written to temporaries first and renamed into place
    only after every write succeeded, so a failing disk never leaves a
    partial report behind. An empty record list produces only a manifest
    with an explicit empty marker.
    """
    os.makedirs(out_dir, exist_ok=True)
    invalid = [r for r in records if r.error is not None]
    manifest = {
        "empty": not records,
        "config": config.to_dict(),
        "n_days": len(records),
        "n_invalid_days": len(invalid),
        "invalid_days": [
            {"date": r.date, "error": r.error} for r in invalid
        ],
        "versions": _versions(),
        "wall_clock_seconds": wall_clock_seconds,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }

    staged: list[tuple[str, str]] = []  # (tmp path, final path)

    def stage(name: str, write_fn) -> str:
        final = os.path.join(out_dir, name)
        tmp = os.path.join(out_dir, f".tmp.{name.replace(os.sep, '_')}")
        write_fn(tmp)
        staged.append((tmp, final))
        return final

    paths: dict[str, str] = {}
    try:
        if records:
            est_rows = []
            for rec in records:
                if rec.error is not None:
                    continue
                for key, target, est in rec.estimates:
                    est_rows.append(
                        [
                            rec.date,
                            target,
                            key,
                            repr(est.alpha),
                            repr(est.var),
                            repr(est.es),
                            str(est.n_tail),
                            str(est.seed),
                        ]
                    )
            paths["estimates"] = stage(
                "estimates.csv",
                lambda p: _write_rows(p, ESTIMATES_HEADER, est_rows),
            )

            bt_rows = [rep.to_csv_row() for rep in reports]
            paths["backtest"] = stage(
                "backtest.csv",
                lambda p: _write_rows(p, BacktestReport.CSV_HEADER, bt_rows),
            )

            diag_rows = []
            for rec in records:
                for d in rec.fit_diagnostics:
                    diag_rows.append(
                        [
                            rec.date,
                            d.model_tag,
                            d.init_mode,
                            str(d.iterations),
                            "true" if d.converged else "false",
                            repr(d.final_loglik),
                        ]
                    )
            paths["fit_diagnostics"] = stage(
                "fit_diagnostics.csv",
                lambda p: _write_rows(p, DIAGNOSTICS_HEADER, diag_rows),
            )

            if final_models:
                os.makedirs(os.path.join(out_dir, "models"), exist_ok=True)
                for tag in sorted(final_models):
                    model = final_models[tag]
                    paths[f"models/{tag}"] = stage(
                        os.path.join("models", f"{tag}.json"),
                        lambda p, m=model: _write_json(p, m.to_dict()),
                    )

        paths["manifest"] = stage(
            "manifest.json", lambda p: _write_json(p, manifest)
        )
        for tmp, final in staged:
            os.replace(tmp, final)
    finally:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.remove(tmp)
    return paths


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def report_sweep(
    results,
    config: RunConfig,
    out_dir: str,
    wall_clock_seconds: float | None = None,
) -> dict[str, str]:
    """Write per-grid-value reports plus the verdict matrix CSV."""
    os.makedirs(out_dir, exist_ok=True)
    paths: dict[str, str] = {}
    for g, (records, reports) in sorted(results.items()):
        sub = os.path.join(out_dir, f"short_{g:03d}")
        cfg = replace(config, short_len=g)
        subpaths = report(records, reports, cfg, sub)
        for name, p in subpaths.items():
            paths[f"short_{g:03d}/{name}"] = p
    verdicts = os.path.join(out_dir, "sweep_verdicts.csv")
    _write_rows(verdicts, SWEEP_HEADER, sweep_verdict_rows(results))
    paths["sweep_verdicts"] = verdicts
    manifest = {
        "grid": sorted(results),
        "config": config.to_dict(),
        "versions": _versions(),
        "wall_clock_seconds": wall_clock_seconds,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }
    mpath = os.path.join(out_dir, "sweep_manifest.json")
    _write_json(mpath, manifest)
    paths["sweep_manifest"] = mpath
    return paths


def make_scenario_writer(out_dir: str):
    """Writer callback dumping each model-day's scenarios to CSV.

    Files land under <out_dir>/scenarios/<date>_<model>.csv with columns
    path,step,ticker,log_return. Intended for audits of small runs; a full
    production run dumps millions of rows.
    """
    scen_dir = os.path.join(out_dir, "scenarios")
    os.makedirs(scen_dir, exist_ok=True)

    def write(date: str, model_tag: str, scen: ScenarioMatrix) -> None:
        names = scen.tickers or tuple(
            f"asset{c}" for c in range(scen.n_assets)
        )
        path = os.path.join(scen_dir, f"{date}_{model_tag}.csv")
        with open(path, "w", newline="") as fh:
            fh.write("path,step,ticker,log_return\n")
            writer = csv.writer(fh, lineterminator="\n")
            r = scen.returns
            for p in range(scen.n_paths):
                for s in range(scen.horizon):
                    for c, name in enumerate(names):
                        writer.writerow([p, s, name, repr(float(r[p, s, c]))])

    return write
