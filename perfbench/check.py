"""Output check for one benchmark repetition, independent of the package.

check_report() reads the report directory and the price CSV with the
standard library and numpy only. It returns a list of problems, empty when
the report is correct:

- estimates.csv holds valid days x model tags x targets x alphas rows, one
  per (tag, target, alpha) and day, and backtest.csv one row per slot;
- every var/es is finite, es <= var, and Monte Carlo rows have n_tail >= 1;
- on a few sampled days the hs and param rows match a direct numpy
  recomputation from the prices;
- in a sweep, each asset's gmm var/es divided by its short-window
  volatility is the same at every grid value (fits and simulation streams
  are shared across the grid, so only the rescaling ratio changes).

output_digest() hashes the byte-stable CSVs of a report.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from collections import Counter
from statistics import NormalDist

import numpy as np

from workloads import LONG_LEN, PORTFOLIO, WORKLOADS, model_tags, tickers

STABLE_CSVS = ("estimates.csv", "backtest.csv", "fit_diagnostics.csv")
MC_PREFIXES = ("gmm", "gbm_mc")
SAMPLED_DAYS = 3
REL_TOL = 1e-9


def _rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + 1e-15


def _returns(prices_csv: str) -> tuple[dict[str, int], np.ndarray]:
    with open(prices_csv, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    prices = np.array([[float(v) for v in row[1:]] for row in rows])
    r = np.diff(np.log(prices), axis=0)
    return {row[0]: i for i, row in enumerate(rows[1:])}, r


def _sampled_dates(dates: list[str]) -> list[str]:
    ordered = sorted(set(dates))
    picks = np.linspace(0, len(ordered) - 1, min(SAMPLED_DAYS, len(ordered)))
    return [ordered[int(round(p))] for p in picks]


def _direct(tag: str, x: np.ndarray, alpha: float) -> tuple[float, float]:
    if tag == "hs":
        var = float(np.quantile(x, alpha))
        return var, float(x[x <= var].mean())
    mu, sd = float(x.mean()), float(x.std())
    z = NormalDist().inv_cdf(alpha)
    return mu + sd * z, mu - sd * NormalDist().pdf(z) / alpha


def _check_run_dir(out_dir: str, workload: str, prices_csv: str) -> tuple[list[str], list[dict]]:
    problems: list[str] = []
    w = WORKLOADS[workload]
    tags, alphas = model_tags(workload), w["config"]["alphas"]
    targets = tickers() + [PORTFOLIO]
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    if manifest["n_days"] != w["days"]:
        problems.append(f"{out_dir}: {manifest['n_days']} days, expected {w['days']}")
    valid = manifest["n_days"] - manifest["n_invalid_days"]

    est = _rows(os.path.join(out_dir, "estimates.csv"))
    expected = valid * len(tags) * len(targets) * len(alphas)
    if len(est) != expected:
        problems.append(f"{out_dir}: {len(est)} estimate rows, expected {expected}")
    slots = Counter((r["model_tag"], r["ticker"], float(r["alpha"])) for r in est)
    want = {(t, s, a) for t in tags for s in targets for a in alphas}
    if set(slots) != want or any(n != valid for n in slots.values()):
        problems.append(f"{out_dir}: estimate rows do not cover every slot once per day")
    for r in est:
        var, es = float(r["var"]), float(r["es"])
        if not (np.isfinite(var) and np.isfinite(es)):
            problems.append(f"{out_dir}: non-finite var/es in {r}")
        elif es > var + 1e-12 * max(1.0, abs(var)):
            problems.append(f"{out_dir}: es > var in {r}")
        if r["model_tag"].startswith(MC_PREFIXES) and int(r["n_tail"]) < 1:
            problems.append(f"{out_dir}: empty Monte Carlo tail in {r}")

    bt = _rows(os.path.join(out_dir, "backtest.csv"))
    if len(bt) != len(want) or any(int(r["n"]) != valid for r in bt):
        problems.append(f"{out_dir}: backtest rows do not match {len(want)} slots of {valid} days")

    direct_tags = [t for t in tags if t in ("hs", "param")]
    if direct_tags and est:
        index, returns = _returns(prices_csv)
        weights = np.full(len(targets) - 1, 1.0 / (len(targets) - 1))
        got = {
            (r["date"], r["model_tag"], r["ticker"], float(r["alpha"])): r for r in est
        }
        for date in _sampled_dates([r["date"] for r in est]):
            anchor = index[date]
            window = returns[anchor - LONG_LEN : anchor]
            series = {t: window[:, c] for c, t in enumerate(targets[:-1])}
            series[PORTFOLIO] = window @ weights
            for tag in direct_tags:
                for target, x in series.items():
                    for a in alphas:
                        row = got.get((date, tag, target, a))
                        var, es = _direct(tag, x, a)
                        if row is None or not (
                            _close(float(row["var"]), var) and _close(float(row["es"]), es)
                        ):
                            problems.append(
                                f"{out_dir}: {tag} {target} {date} alpha {a} differs "
                                f"from direct recomputation ({var!r}, {es!r}): {row}"
                            )
    return problems, est


def _check_sweep_scaling(results: dict[int, list[dict]], prices_csv: str) -> list[str]:
    problems: list[str] = []
    index, returns = _returns(prices_csv)
    by_key = {
        g: {(r["date"], r["model_tag"], r["ticker"], r["alpha"]): r for r in est}
        for g, est in results.items()
    }
    first = min(results)
    for date in _sampled_dates([r["date"] for r in results[first]]):
        anchor = index[date]
        for key in [k for k in by_key[first] if k[0] == date and k[2] != PORTFOLIO]:
            c = tickers().index(key[2])
            scaled = []
            for g, rows in sorted(by_key.items()):
                if key not in rows:
                    problems.append(f"sweep: {key} missing at sigma_short {g}")
                    continue
                sd = float(np.std(returns[anchor - g : anchor, c]))
                scaled.append((float(rows[key]["var"]) / sd, float(rows[key]["es"]) / sd))
            if any(not (_close(v, scaled[0][0]) and _close(e, scaled[0][1])) for v, e in scaled):
                problems.append(f"sweep: {key} is not proportional to short-window volatility")
    return problems


def check_report(out_dir: str, workload: str, prices_csv: str) -> list[str]:
    """Problems found in one repetition's report directory; empty when correct."""
    grid = WORKLOADS[workload]["grid"]
    try:
        if not grid:
            return _check_run_dir(out_dir, workload, prices_csv)[0]
        problems: list[str] = []
        results = {}
        for g in grid:
            sub_problems, results[g] = _check_run_dir(
                os.path.join(out_dir, f"short_{g:03d}"), workload, prices_csv
            )
            problems += sub_problems
        verdicts = _rows(os.path.join(out_dir, "sweep_verdicts.csv"))
        w = WORKLOADS[workload]
        expected = len(grid) * len(model_tags(workload)) * (len(tickers()) + 1) * len(
            w["config"]["alphas"]
        )
        if len(verdicts) != expected:
            problems.append(f"sweep_verdicts.csv has {len(verdicts)} rows, expected {expected}")
        return problems + _check_sweep_scaling(results, prices_csv)
    except (OSError, KeyError, ValueError) as exc:
        return [f"{out_dir}: unreadable report ({type(exc).__name__}: {exc})"]


def output_digest(out_dir: str, workload: str) -> str:
    """sha256 over the byte-stable CSVs of a report, in a fixed order."""
    grid = WORKLOADS[workload]["grid"]
    if grid:
        names = [f"short_{g:03d}/{n}" for g in grid for n in STABLE_CSVS]
        names.append("sweep_verdicts.csv")
    else:
        names = list(STABLE_CSVS)
    h = hashlib.sha256()
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(name.encode() + b"\0" + hashlib.sha256(fh.read()).digest())
    return h.hexdigest()
