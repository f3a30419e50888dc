"""Rolling-window backtest runs: day loop, reports, parameter sweeps.

Reproducibility contract: a run is a pure function of (panel, RunConfig).
Every stochastic step draws from a Generator seeded by

    SeedSequence(entropy=config.seed, spawn_key=(day_index, model_index, purpose))

with purpose 0 for fit initialization and 1 for simulation, collapsed to a
uint64. Streams therefore do not depend on the short window length.

Runs take a validated PricePanel and RunConfig; inside, the day loop works
on plain arrays: the read-only return matrix log_returns(panel), windows
sliced from it, and (model, target, alpha) estimate arrays. A day's fit
diagnostics are the (model tag, FitReport) pairs that fit returned.

One day loop serves plain runs and sigma_short sweeps, with one day step
for every model kind. Per day it computes the (grid, assets) short/long
vol ratios once with column_std, then fits and simulates each model and
reads its VaR/ES with one estimator call, over one block whose rows are
the asset columns of its sample matrix and, with a portfolio, its series
holding @ (scale row * w), one per scale row. A model's asset rows at
every short-window length are the asset estimates times the scale, the
vol ratios for gmm (positive homogeneity) and a row of ones for hs, param
and gbm_mc. A plain run is a one-value sweep, and the estimators read each
row as it would alone, so each sweep point reproduces the plain run with
its short_len byte for byte. A plain run given a scenario directory also
saves each valid Monte Carlo model-day's scenarios there as .npy files.

Report CSVs format floats with repr() (shortest round-trip),
so identical runs produce identical bytes; only the manifest's timestamp
and wall-clock fields differ between repeated runs.

Per-day failures (degenerate windows, factorization errors) mark the day
invalid instead of aborting; a run fails as a whole when more than 5% of
evaluation days are invalid.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .backtest import BacktestReport, christoffersen, hits, quadratic_loss
from .baselines import _gbm_day_into, _parametric_rows, calibrate_gbm
from .errors import (
    ConfigError,
    DegenerateDataError,
    NumericError,
    RunFailureError,
    ValidationError,
)
from .gmm import FitReport, GaussianMixtureModel, _sample_into, fit
from .risk import PortfolioSpec, _var_es_rows
from .timeseries import PricePanel, log_returns

MODEL_CHOICES = ("gmm", "hs", "param", "gbm_mc")
_INT_FIELDS = ("long_len", "short_len", "paths", "horizon", "eval_days", "seed")
PORTFOLIO_TICKER = "PORTFOLIO"

ESTIMATES_HEADER = "date,ticker,model_tag,alpha,var,es,n_tail,seed"
DIAGNOSTICS_HEADER = "date,model_tag,init_mode,iterations,converged,final_loglik"
SWEEP_HEADER = "sigma_short,model_tag,ticker,alpha,n,x,verdict"


def _derive_seed(root_seed: int, *path: int) -> int:
    """Collapse (root, path...) into one integer seed for default_rng."""
    ss = np.random.SeedSequence(
        entropy=int(root_seed), spawn_key=tuple(int(p) for p in path)
    )
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _list_items(name, value, kind, ok) -> tuple:
    """The items of value, which must be a non-empty list of distinct items
    that ok accepts, else a ConfigError naming name; a bare string, a JSON
    object or a scalar is not such a list, an iterator or a numpy array is."""
    items = None if isinstance(value, (str, dict)) or not np.iterable(value) else tuple(value)
    if not items or not all(ok(v) for v in items):
        raise ConfigError(f"{name} must be a non-empty list of {kind}, got {value!r}")
    if len(set(items)) != len(items):
        raise ConfigError(f"duplicate entries in {name}")
    return items


# (name, item type, item check) of the fields holding a non-empty list of
# distinct items
_LIST_FIELDS = (
    ("models", str, lambda v: isinstance(v, str)),
    ("n_components", int, _is_int),
    ("alphas", float, lambda v: _is_int(v) or isinstance(v, (float, np.floating))),
)


@dataclass(frozen=True)
class RunConfig:
    """Everything a backtest run depends on besides the price panel.

    Backtests score one-day forecasts against the next day's return, so
    horizon must be 1; the field stays so that configs naming it still load.
    Integer fields reject floats and bools, list fields a bare string, and
    alphas any non-number, so that a value arriving as JSON is never
    truncated or coerced.
    """

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

    def __post_init__(self):
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not _is_int(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name, cast, ok in _LIST_FIELDS:
            items = _list_items(name, getattr(self, name), cast.__name__, ok)
            object.__setattr__(self, name, tuple(cast(v) for v in items))
        if not isinstance(self.warm_start, bool):
            raise ConfigError(f"warm_start must be true or false, got {self.warm_start!r}")
        unknown = [m for m in self.models if m not in MODEL_CHOICES]
        if unknown:
            raise ConfigError(f"unknown model {unknown[0]!r}; choices are {MODEL_CHOICES}")
        if any(c < 1 for c in self.n_components):
            raise ConfigError("n_components must be ints >= 1")
        if any(not 0.0 < a < 1.0 for a in self.alphas):
            raise ConfigError("alphas must lie inside (0, 1)")
        # one row has zero standard deviation, so every vol ratio would be 0
        if not 2 <= self.short_len <= self.long_len:
            raise ConfigError(
                f"need 2 <= short_len <= long_len, got {self.short_len}/{self.long_len}")
        if self.paths < 100:
            raise ConfigError(f"paths must be >= 100, got {self.paths}")
        # var_es_columns reads a tail at alpha from ceil(1/alpha) rows or more
        alpha = min(self.alphas)
        need = math.ceil(1.0 / alpha)
        for name, rows, models in (("paths", self.paths, ("gmm", "gbm_mc")),
                                   ("long_len", self.long_len, ("hs",))):
            if rows < need and set(models) & set(self.models):
                raise ConfigError(f"alpha {alpha} needs {name} >= ceil(1/alpha) = {need} "
                                  f"for {'/'.join(models)}, got {rows}")
        # EM fits each count to a window of long_len returns, one row at least per component
        if "gmm" in self.models and max(self.n_components) > self.long_len:
            raise ConfigError(f"cannot fit {max(self.n_components)} components to "
                              f"long_len {self.long_len} returns")
        if self.horizon != 1:
            raise ConfigError(f"backtests score one-day forecasts only; got horizon {self.horizon}")
        if self.eval_days < 1:
            raise ConfigError(f"eval_days must be >= 1, got {self.eval_days}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")

    def model_keys(self) -> list[str]:
        """Concrete model tags, expanding gmm across component counts."""
        gmm = [f"gmm{c}" for c in self.n_components]
        return [k for m in self.models for k in (gmm if m == "gmm" else [m])]

    def to_dict(self) -> dict:
        d = {}
        for f in fields(self):
            value = getattr(self, f.name)
            d[f.name] = list(value) if isinstance(value, tuple) else value
        if self.portfolio is not None:
            d["portfolio"] = {
                "tickers": list(self.portfolio.tickers),
                "weights": self.portfolio.weights.tolist(),
            }
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        d = dict(d)
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        portfolio = d.pop("portfolio", None)
        if portfolio is not None and not isinstance(portfolio, PortfolioSpec):
            try:
                portfolio = PortfolioSpec(portfolio["tickers"], portfolio["weights"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"invalid portfolio spec: {exc}") from exc
        try:
            return cls(portfolio=portfolio, **d)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


@dataclass(frozen=True, eq=False)
class DayRecord:
    """Everything produced for one evaluation day.

    realized holds the out-of-sample return per target. var, es and n_tail
    are arrays shaped (model, target, alpha), in config.model_keys() x
    realized x config.alphas order; n_tail is 0 for closed-form estimates.
    seeds holds each model's simulation seed, -1 for hs and param.
    fit_diagnostics holds a (model tag, FitReport) pair per EM fit of the
    day. A non-None error marks the day invalid: its var, es and n_tail are
    None and it is left out of backtesting, while fit_diagnostics keeps the
    fits made that day before the failure.
    """

    date: str
    anchor: int
    realized: tuple[tuple[str, float], ...]
    var: np.ndarray | None
    es: np.ndarray | None
    n_tail: np.ndarray | None
    seeds: tuple[int, ...]
    fit_diagnostics: tuple[tuple[str, FitReport], ...]
    error: str | None = None


def run_backtest(
    panel: PricePanel,
    config: RunConfig,
    scenario_dir: str | None = None,
    model_sink: dict | None = None,
) -> tuple[list[DayRecord], list[BacktestReport]]:
    """Roll a daily out-of-sample backtest across the panel.

    Day i anchors at row long_len + i of log_returns(panel), the return
    into panel.dates[long_len + i + 1]: models calibrate on the long_len
    rows before the anchor and forecast the anchor row's return. GMM asset
    VaR/ES is read from the unscaled scenarios and scaled by the short/long
    volatility ratios (positive homogeneity); the GMM portfolio row reads
    the series holding @ (ratios * w) of the unscaled holding, equal to the
    ratio-scaled holding's w . r up to rounding. Baselines run on the same
    window unadjusted. Returns one DayRecord per evaluation day, its VaR/ES
    as (model, target, alpha) arrays, and one BacktestReport per (model,
    target, alpha). A day whose vol ratios are not all positive and finite,
    or whose estimates are not finite or put an es above its var, or that
    raises (a failed fit, say), carries an error instead of estimates.

    With scenario_dir, each valid Monte Carlo model-day's (paths, assets)
    simulated log returns, in panel ticker order and for gmm scaled by the
    vol ratios, are saved to <scenario_dir>/<date>_<model_tag>.npy, which
    np.load reads back; the directory is created at the first save, so a
    run that fails before one leaves none. run --dump-scenarios passes
    <out>/scenarios. model_sink, when given, is filled with the final
    fitted mixture per gmm tag (warm-start checkpoint state).
    """
    g = config.short_len
    return _run_days(panel, config, [g], scenario_dir, model_sink)[g]


# ValidationError covers the insufficient- and degenerate-data subclasses
_DAY_ERRORS = (ValidationError, NumericError, np.linalg.LinAlgError)


def _parse_tag(tag: str) -> tuple[str, int | None]:
    """(kind, components) of a model tag: ("gmm", c) for gmm<c>, (tag, None)
    for hs, param and gbm_mc. The one place that reads a tag's spelling."""
    if tag.startswith("gmm"):
        return "gmm", int(tag[3:])
    return tag, None


def column_std(w: np.ndarray) -> np.ndarray:
    """Population std of each column of a 2-D array, in one reduction.

    Equal bit for bit to np.std of each column on its own: the transposed
    copy puts every column in one contiguous row, which numpy reduces in
    the same order as a 1-D array. np.std(w, axis=0) sums in another order
    and can differ in the last bit.
    """
    return np.std(np.ascontiguousarray(w.T), axis=1)


def _run_days(panel, config, short_lens, scenario_dir, model_sink):
    """The day loop behind run_backtest and sweep_sigma_short.

    Once per day: the long-window checks and the (grid, assets) vol ratios
    when a gmm tag runs, then _fill_day, which fits, simulates and reads
    every model's estimates for the whole grid, then _grid_errors, which
    checks each grid point. Each Monte Carlo tag owns a (holding, scratch)
    pair of arrays, allocated here once for the run: holding receives the
    day's (paths, assets) draws, and scratch, flat, holds the model-day's
    sample block, after the standard-normal shocks for gmm. With a
    scenario_dir, each valid (day, g) saves its holdings: a gbm_mc holding
    itself and a gmm one times row g of the ratios, which _grid_errors
    (positive, finite ratios) and _var_es_rows (finite samples) have
    checked. An exception raised during the day invalidates it for every g,
    a failed check only that (day, g). Returns {g: (records, reports)}.

    A gbm_mc tag's shocks depend on nothing but the day's seed, so a pool
    of one worker thread draws them up to two days ahead into a ring of
    three (paths, assets) buffers, allocated once per run: day d's go to
    buffer d % 3, which day d - 3 has finished reading when day d - 2
    submits the draw. numpy releases the interpreter lock while it draws,
    so the draw overlaps this thread's work on the days before; day d
    takes its shocks from the draw's future, which re-raises on this thread
    whatever the draw raised. A run without gbm_mc makes no pool; the pool
    is shut down in the finally below, however the loop ends. gmm tags
    draw their own shocks on this thread, after the fit that decides their
    split across components.
    """
    returns = log_returns(panel)  # row t is the return into panel.dates[t + 1]
    n_rows = returns.shape[0]
    if config.long_len + config.eval_days > n_rows:
        raise ConfigError(
            f"panel has {n_rows} return rows; need long_len + eval_days = "
            f"{config.long_len + config.eval_days}"
        )
    tickers = panel.tickers
    if config.portfolio is not None and config.portfolio.tickers != tickers:
        raise ConfigError(
            "portfolio tickers must match the panel tickers in order; "
            f"got {config.portfolio.tickers} vs {tickers}"
        )
    if config.portfolio is not None and PORTFOLIO_TICKER in tickers:
        raise ConfigError(f"ticker {PORTFOLIO_TICKER!r} would share its report rows "
                          "with the portfolio; rename it or run without a portfolio")
    specs = [(tag, *_parse_tag(tag)) for tag in config.model_keys()]  # (tag, kind, components)
    needs_gmm = any(kind == "gmm" for _, kind, _ in specs)
    buffers = {tag: (np.empty((config.paths, len(tickers))),
                     np.empty(config.paths * (len(tickers) + len(short_lens))))
               for tag, kind, _ in specs if kind not in ("hs", "param")}
    shape = (len(short_lens), len(specs), len(tickers) + (config.portfolio is not None),
             len(config.alphas))
    prev_models: dict[str, GaussianMixtureModel] = {}
    records: dict[int, list[DayRecord]] = {g: [] for g in short_lens}
    gbm = [mi for mi, (_, kind, _) in enumerate(specs) if kind == "gbm_mc"]
    pool, drawn = None, []
    if gbm:
        # imported only for gbm_mc runs: it loads logging, about 4 ms of import
        from concurrent.futures import ThreadPoolExecutor

        pool, ring = ThreadPoolExecutor(1), np.empty((3, config.paths, len(tickers)))

        def draw(d):  # day d's gbm_mc shocks, on the pool's thread
            seed = _derive_seed(config.seed, d, gbm[0], 1)
            return np.random.default_rng(seed).standard_normal(out=ring[d % 3])

    try:
        for i in range(config.eval_days):
            anchor = config.long_len + i
            date = panel.dates[anchor + 1]
            long_w = returns[anchor - config.long_len : anchor]
            day_returns = returns[anchor]
            realized = tuple((t, float(day_returns[c])) for c, t in enumerate(tickers))
            if config.portfolio is not None:
                realized += ((PORTFOLIO_TICKER, float(day_returns @ config.portfolio.weights)),)
            seeds = tuple(-1 if kind in ("hs", "param") else _derive_seed(config.seed, i, mi, 1)
                          for mi, (_, kind, _) in enumerate(specs))
            while gbm and len(drawn) < min(i + 3, config.eval_days):
                drawn.append(pool.submit(draw, len(drawn)))
            shocks = drawn[i].result() if gbm else None

            arrays = (np.empty(shape), np.empty(shape), np.empty(shape, dtype=int))
            diags: list[tuple[str, FitReport]] = []
            ratios = None
            try:
                if needs_gmm:
                    long_vols = column_std(long_w)
                    if np.any(long_vols == 0.0):
                        raise DegenerateDataError("long-window volatility is zero")
                    ratios = np.stack([column_std(long_w[-g:]) for g in short_lens]) / long_vols
                _fill_day(i, long_w, ratios, config, specs, seeds, shocks, prev_models, diags,
                          buffers, arrays)
                errors = _grid_errors(ratios, arrays[0], arrays[1])
            except _DAY_ERRORS as exc:
                errors = [f"{type(exc).__name__}: {exc}"] * len(short_lens)

            for gi, (g, error) in enumerate(zip(short_lens, errors)):
                if scenario_dir is not None and error is None:
                    for tag, kind, _ in specs:
                        if tag in buffers:
                            holding = buffers[tag][0]
                            os.makedirs(scenario_dir, exist_ok=True)
                            np.save(os.path.join(scenario_dir, f"{date}_{tag}.npy"),
                                    holding * ratios[gi] if kind == "gmm" else holding)
                day = (None,) * 3 if error is not None else (a[gi] for a in arrays)
                records[g].append(
                    DayRecord(date, anchor, realized, *day, seeds, tuple(diags), error))
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    for g in short_lens:
        invalid = [r for r in records[g] if r.error is not None]
        if len(invalid) > 0.05 * len(records[g]):
            raise RunFailureError(
                f"short_len {g}: {len(invalid)} of {len(records[g])} evaluation days invalid "
                f"(> 5%); first failure on {invalid[0].date}: {invalid[0].error}"
            )
    if model_sink is not None:
        model_sink.update(prev_models)
    return {g: (recs, _build_reports(recs, config)) for g, recs in records.items()}


def _fill_day(i, long_w, ratios, config, specs, seeds, shocks, prev_models, diags, buffers,
              arrays):
    """Write day i's estimates into arrays, its (grid, model, target, alpha)
    var, es and n_tail, one model after another in specs order.

    Each model is one sample matrix M with a column per asset: for hs and
    param the long window, for gmm and gbm_mc the day's simulated returns,
    unscaled, which the kernels _sample_into and _gbm_day_into write into
    the tag's holding from the shocks: gmm's drawn here into a (paths,
    assets) view of its scratch, gbm_mc's the ones the caller hands in. Its
    sample block has the columns of M as rows, then, with a portfolio, the
    series M @ (s * w) for each row s of the model's scale, each the same
    gemv into a contiguous row. The scale is the (grid, assets) vol ratios
    for gmm and one row of ones for the rest. The block
    lives in the tag's scratch (a new array for hs and param), and the
    model's estimator reads it in one call, each row as it would alone. The
    asset rows times the scale fill every grid point: for gmm by positive
    homogeneity of VaR/ES (equal to the rescaled scenarios' up to
    rounding), for the rest exactly, since x * 1.0 == x. Monte Carlo tags
    simulate with seeds[mi]; a fit seed is derived only for a cold start.
    Fits extend the warm-start chain in prev_models and go to diags as they
    happen, so a later failure on the same day keeps them.
    """
    var, es, n_tail = arrays
    k = long_w.shape[1]
    ones = np.ones((1, k))
    for mi, (tag, kind, components) in enumerate(specs):
        holding, scratch = buffers.get(tag, (None, None))
        draws = None if scratch is None else scratch[: holding.size].reshape(holding.shape)
        if kind in ("hs", "param"):
            columns = long_w
        elif kind == "gbm_mc":
            columns = _gbm_day_into(*calibrate_gbm(long_w), shocks, holding)
        else:
            warm = prev_models.get(tag) if config.warm_start else None
            if warm is None:  # only a k-means start reads the fit seed
                model, rep = fit(long_w, components, seed=_derive_seed(config.seed, i, mi, 0))
            else:
                model, rep = fit(long_w, components, init=warm)
            prev_models[tag] = model
            diags.append((tag, rep))
            columns = _sample_into(model, np.random.default_rng(seeds[mi]), holding, draws)
        scale = ratios if kind == "gmm" else ones
        shape = (k + (len(scale) if config.portfolio is not None else 0), len(columns))
        block = np.empty(shape) if scratch is None else scratch[: shape[0] * shape[1]].reshape(shape)
        np.copyto(block[:k], columns.T)
        for row, s in zip(block[k:], scale):
            np.matmul(columns, s * config.portfolio.weights, out=row)
        if kind == "param":
            v, e = _parametric_rows(block, config.alphas)
            n = np.zeros(v.shape, dtype=int)
        else:
            v, e, n = _var_es_rows(block, config.alphas)
        np.multiply(v[:k], scale[:, :, None], out=var[:, mi, :k])
        np.multiply(e[:k], scale[:, :, None], out=es[:, mi, :k])
        n_tail[:, mi, :k] = n[:k]
        if config.portfolio is not None:
            var[:, mi, k], es[:, mi, k], n_tail[:, mi, k] = v[k:], e[k:], n[k:]


def _grid_errors(ratios, var, es):
    """Each grid point's error, or None, from checks run along the grid axis.

    A grid point fails, in this order, when its vol ratios are not all
    positive and finite (ratios is None without a gmm tag), when a var or es
    is not finite, or when an es sits above its var beyond 1e-12 relative;
    the first failing check names the error.
    """
    var, es = var.reshape(len(var), -1), es.reshape(len(es), -1)
    scaled = (np.ones(len(var), dtype=bool) if ratios is None
              else ((ratios > 0) & np.isfinite(ratios)).all(axis=1))
    finite = (np.isfinite(var) & np.isfinite(es)).all(axis=1)
    above = es > var + 1e-12 * np.maximum(1.0, np.abs(var))
    errors = []
    for g, j in enumerate(np.argmax(above, axis=1)):
        if not scaled[g]:
            errors.append("ValidationError: rescale factors must be positive and finite")
        elif not finite[g]:
            errors.append("ValidationError: var/es must be finite")
        elif above[g, j]:
            errors.append(f"ValidationError: es {es[g, j]} exceeds var {var[g, j]}; "
                          "tail mean cannot sit above its quantile")
        else:
            errors.append(None)
    return errors


def _build_reports(records, config) -> list[BacktestReport]:
    """One BacktestReport per (model, target, alpha), in estimates.csv row order.

    The valid days' var blocks stack into one (day, model, target, alpha)
    array, so the VaR series of a slot is var[:, m, c, a] and its realized
    series column c of a valid-day x target matrix.
    """
    valid = [r for r in records if r.error is None]
    # LR_ind pairs only days with adjacent anchors, never across a dropped day
    adjacent = np.diff([r.anchor for r in valid]) == 1
    var = np.stack([r.var for r in valid])
    realized = np.array([[x for _, x in r.realized] for r in valid])

    reports = []
    for m, key in enumerate(config.model_keys()):
        for c, (target, _) in enumerate(valid[0].realized):
            for a, alpha in enumerate(config.alphas):
                r, v = realized[:, c], var[:, m, c, a]
                h = hits(r, v)
                # one evaluation day leaves the independence statistics undefined
                result = christoffersen(h, alpha, adjacent) if h.size >= 2 else None
                reports.append(BacktestReport(
                    model_tag=key, ticker=target, alpha=alpha, n=h.size, x=int(h.sum()),
                    christoffersen=result, loss=quadratic_loss(r, v),
                ))
    return reports


def sweep_sigma_short(
    panel: PricePanel, config: RunConfig, grid
) -> dict[int, tuple[list[DayRecord], list[BacktestReport]]]:
    """Backtest every short-window length of a grid in one pass over the days.

    Each day runs the day step of a plain run once for the whole grid: the
    fits, the simulations and each model's asset block are shared, the gmm
    asset rows are scaled by every grid value's vol ratios, and the gmm
    portfolio series of every grid value are read in the same estimator
    call as the assets. Seeds do not depend on the short window and the
    estimators read each series as they would alone, so each grid value
    reproduces a plain run with that short_len byte for byte. The checks
    run per grid value: one that fails (a zero short-window volatility, an
    es above its var) invalidates only that value's day, while an exception
    raised during the day (a failed fit) invalidates the day at every
    value. The grid must be a non-empty list of distinct integers in [2,
    long_len], checked as RunConfig checks its list fields: a bare integer
    or string, a float, a string or a bool among the values, or a repeated
    value, is a ConfigError.
    """
    values = sorted(int(g) for g in _list_items("grid", grid, "int", _is_int))
    for g in values:
        if not 2 <= g <= config.long_len:
            raise ConfigError(
                f"grid value {g} outside [2, long_len={config.long_len}]"
            )
    return _run_days(panel, config, values, None, None)


def _manifest(config: RunConfig, wall_clock_seconds, **entries) -> dict:
    """A manifest: entries plus the config, versions, wall clock and creation time."""
    return {
        **entries,
        "config": config.to_dict(),
        "versions": {
            "package": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "wall_clock_seconds": wall_clock_seconds,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }


def _run_files(records, reports, config, wall_clock_seconds=None, final_models=None):
    """One run's report files as (relative path, content) pairs for _commit.

    CSV rows are generators, so each file streams into its temporary. The
    estimates rows walk each valid day's (model, target, alpha) arrays
    through tolist(), so every figure is written as the repr of a float.
    """
    if records:
        yield "estimates.csv", (ESTIMATES_HEADER, (
            [rec.date, target, key, repr(alpha), repr(v), repr(e), str(n), str(seed)]
            for rec in records
            if rec.error is None
            for key, seed, var_m, es_m, n_m in zip(config.model_keys(), rec.seeds, rec.var.tolist(),
                                                   rec.es.tolist(), rec.n_tail.tolist())
            for (target, _), var_c, es_c, n_c in zip(rec.realized, var_m, es_m, n_m)
            for alpha, v, e, n in zip(config.alphas, var_c, es_c, n_c)
        ))
        yield "backtest.csv", (BacktestReport.CSV_HEADER, (rep.to_csv_row() for rep in reports))
        yield "fit_diagnostics.csv", (DIAGNOSTICS_HEADER, (
            [rec.date, tag, rep.init_mode, str(rep.iterations),
             "true" if rep.converged else "false", repr(rep.final_loglik)]
            for rec in records
            for tag, rep in rec.fit_diagnostics
        ))
        for tag in sorted(final_models or ()):
            yield f"models/{tag}.json", final_models[tag].to_dict()
    invalid = [r for r in records if r.error is not None]
    yield "manifest.json", _manifest(
        config,
        wall_clock_seconds,
        empty=not records,
        n_days=len(records),
        n_invalid_days=len(invalid),
        invalid_days=[{"date": r.date, "error": r.error} for r in invalid],
    )


def _commit(out_dir: str, files) -> dict[str, str]:
    """Write report files into out_dir, all or nothing; returns {name: path}.

    files yields (relative path, content) pairs: (header, rows) for a .csv
    file, a JSON-able object for a .json file. Each file goes to a .tmp.*
    temporary in out_dir as it is produced; subdirectories are created and
    the temporaries renamed into place only after every write succeeded. On
    any failure the temporaries are removed, so no partial report is left
    behind. name is the relative path without its extension.
    """
    os.makedirs(out_dir, exist_ok=True)
    staged: list[tuple[str, str, str]] = []  # (name, tmp path, final path)
    try:
        for rel, content in files:
            tmp = os.path.join(out_dir, ".tmp." + rel.replace("/", "_"))
            staged.append((os.path.splitext(rel)[0], tmp, os.path.join(out_dir, rel)))
            with open(tmp, "w", newline="") as fh:
                if rel.endswith(".csv"):
                    header, rows = content
                    fh.write(header + "\n")
                    csv.writer(fh, lineterminator="\n").writerows(rows)
                else:
                    json.dump(content, fh, indent=2, sort_keys=True)
                    fh.write("\n")
        for _, tmp, final in staged:
            os.makedirs(os.path.dirname(final), exist_ok=True)
            os.replace(tmp, final)
    finally:
        for _, tmp, _ in staged:
            if os.path.exists(tmp):
                os.remove(tmp)
    return {name: final for name, _, final in staged}


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
    given. The report is written all or nothing: every file goes to a
    temporary first and is renamed into place only after every write
    succeeded, so a failing write (a full disk, a checkpoint that cannot be
    serialised) leaves no file behind. An empty record list produces only a
    manifest with an explicit empty marker.
    """
    return _commit(
        out_dir, _run_files(records, reports, config, wall_clock_seconds, final_models)
    )


def report_sweep(
    results,
    config: RunConfig,
    out_dir: str,
    wall_clock_seconds: float | None = None,
) -> dict[str, str]:
    """Write a sweep's reports to a directory; returns {name: path}.

    Each grid value g gets a run report under short_<g>/ (zero-padded to
    three digits) with config.short_len set to g; the directory also holds
    sweep_verdicts.csv, one row per (g, model, target, alpha), and
    sweep_manifest.json. Like report, the whole sweep is written all or
    nothing.
    """

    def files():
        for g, (records, reports) in sorted(results.items()):
            for rel, content in _run_files(records, reports, replace(config, short_len=g)):
                yield f"short_{g:03d}/{rel}", content
        yield "sweep_verdicts.csv", (SWEEP_HEADER, (
            [str(g), rep.model_tag, rep.ticker, repr(rep.alpha), str(rep.n), str(rep.x), rep.verdict]
            for g, (_, reports) in sorted(results.items())
            for rep in reports
        ))
        yield "sweep_manifest.json", _manifest(config, wall_clock_seconds, grid=sorted(results))

    return _commit(out_dir, files())
