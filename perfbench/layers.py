"""The package functions the traced pass wraps, and the per-layer metrics.

Layers are the riskengine modules; `cli` only parses arguments and gets no
metrics. Every wrapped function yields `<module>.<function>.calls` and
`.self_s`; observers add the counts listed in EXTRA_METRICS.
"""

from __future__ import annotations

import statistics
import sys

from tracer import Tracer, self_times

TARGETS = {
    "timeseries": ["load_prices", "log_returns", "slice_window"],
    "gmm": ["fit", "kmeans_init", "m_step", "sample"],
    "scenario": [
        "vol_ratios", "simulate_gmm", "rescale", "simulate_gbm_portfolio", "compound",
    ],
    "risk": ["var_es", "portfolio_returns"],
    "baselines": ["historical_var", "parametric_var", "calibrate_gbm"],
    "backtest": ["hits", "christoffersen", "quadratic_loss"],
    "engine": ["run_backtest", "sweep_sigma_short", "report", "report_sweep"],
}

# (name, unit, better) beyond the per-function calls/self_s pairs.
EXTRA_METRICS = [
    ("gmm.em_iters", "count", "lower"),
    ("gmm.em_iters_per_fit.p50", "count", "lower"),
    ("gmm.em_iters_per_fit.max", "count", "lower"),
    ("gmm.converged_frac", "ratio", "higher"),
    ("gmm.warm_frac", "ratio", "higher"),
    ("gmm.estep_evals", "count", "lower"),
    ("scenario.draws", "count", "lower"),
    ("risk.scenarios_in", "count", "lower"),
    ("engine.fit_reuse", "ratio", "higher"),
    ("engine.days", "count", "higher"),
    ("engine.day_ms.p50", "ms", "lower"),
    ("engine.day_ms.p99", "ms", "lower"),
    ("engine.report.bytes", "bytes", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("ref.default_threads.wall_s", "s", "lower"),
    ("ref.one_thread.wall_s", "s", "lower"),
]


def per_layer_spec() -> list[tuple[str, str, str]]:
    spec = []
    for module, funcs in TARGETS.items():
        for func in funcs:
            spec.append((f"{module}.{func}.calls", "count", "lower"))
            spec.append((f"{module}.{func}.self_s", "s", "lower"))
    return spec + EXTRA_METRICS


def _observe_fit(tracer, args, kwargs):
    n_samples = len(args[0])
    n_components = args[1] if len(args) > 1 else kwargs["n_components"]

    def done(result):
        rep = result[1]
        tracer.sample("gmm.em_iters_per_fit", rep.iterations)
        tracer.count("gmm.converged", int(rep.converged))
        tracer.count("gmm.warm", int(rep.init_mode == "warm_start"))
        # computed: one log-density per sample and component per iteration
        tracer.count("gmm.estep_evals", rep.iterations * n_samples * n_components)

    return done


def _observe_simulate_gmm(tracer, args, kwargs):
    return lambda scen: tracer.count("scenario.draws", scen.returns.size)


def _observe_var_es(tracer, args, kwargs):
    tracer.count("risk.scenarios_in", len(args[0]))


def _observe_run_backtest(tracer, args, kwargs):
    cache = kwargs.get("_fit_cache")
    if cache is None:
        return None
    before = len(cache)
    gmm_tags = sum(1 for k in args[1].model_keys() if k.startswith("gmm"))

    def done(result):
        tracer.count("engine.fit_lookups", len(result[0]) * gmm_tags)
        tracer.count("engine.fit_misses", len(cache) - before)

    return done


OBSERVERS = {
    "gmm.fit": _observe_fit,
    "scenario.simulate_gmm": _observe_simulate_gmm,
    "risk.var_es": _observe_var_es,
    "engine.run_backtest": _observe_run_backtest,
}


def install(package: str = "riskengine") -> Tracer:
    """Wrap every target function the imported package still defines.

    A target the package no longer has reports 0 calls and 0 s.
    """
    tracer = Tracer(package)
    for module, funcs in TARGETS.items():
        for func in funcs:
            if hasattr(sys.modules.get(f"{package}.{module}"), func):
                tracer.wrap(module, func, OBSERVERS.get(f"{module}.{func}"))
    return tracer


def _percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default), q in [0, 100]."""
    s = sorted(values)
    if not s:
        return 0.0
    h = (len(s) - 1) * q / 100.0
    lo = int(h)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (h - lo) * (s[hi] - s[lo])


def day_durations(trace: dict) -> list[float]:
    """Seconds per evaluation day inside each run_backtest span.

    A day starts at its slice_window call; it ends where the next day
    starts, or for the last day where scoring starts (the first hits call).
    """
    names, spans = trace["names"], trace["spans"]
    needed = ("engine.run_backtest", "timeseries.slice_window", "backtest.hits")
    if not all(n in names for n in needed):
        return []
    run_id, slice_id, hits_id = (names.index(n) for n in needed)
    starts: dict[int, list[float]] = {}
    scoring: dict[int, float] = {}
    for name_id, start, _, parent in spans:
        if parent < 0 or spans[parent][0] != run_id:
            continue
        if name_id == slice_id:
            starts.setdefault(parent, []).append(start)
        elif name_id == hits_id:
            scoring.setdefault(parent, start)
    out = []
    for parent, s in starts.items():
        ends = s[1:] + [scoring.get(parent, spans[parent][2])]
        out.extend(e - b for b, e in zip(s, ends))
    return out


def function_totals(trace: dict) -> dict[str, tuple[int, float]]:
    """{'<module>.<function>': (calls, summed self seconds)} for every target."""
    totals = {f"{m}.{f}": [0, 0.0] for m, funcs in TARGETS.items() for f in funcs}
    for span, own in zip(trace["spans"], self_times(trace["spans"])):
        entry = totals[trace["names"][span[0]]]
        entry[0] += 1
        entry[1] += own
    return {name: (c, s) for name, (c, s) in totals.items()}


def counts(trace: dict, report_bytes: int) -> dict[str, float]:
    """Per-layer counts of one traced repetition (exact, seed-determined)."""
    c = trace["counters"]
    iters = trace["samples"].get("gmm.em_iters_per_fit", [])
    fits = len(iters)
    lookups = c.get("engine.fit_lookups", 0)
    days = day_durations(trace)
    out = {
        f"{name}.calls": calls for name, (calls, _) in function_totals(trace).items()
    }
    out.update({
        "gmm.em_iters": sum(iters),
        "gmm.em_iters_per_fit.p50": statistics.median(iters) if iters else 0,
        "gmm.em_iters_per_fit.max": max(iters, default=0),
        "gmm.converged_frac": c.get("gmm.converged", 0) / fits if fits else 0.0,
        "gmm.warm_frac": c.get("gmm.warm", 0) / fits if fits else 0.0,
        "gmm.estep_evals": c.get("gmm.estep_evals", 0),
        "scenario.draws": c.get("scenario.draws", 0),
        "risk.scenarios_in": c.get("risk.scenarios_in", 0),
        "engine.fit_reuse": (
            (lookups - c.get("engine.fit_misses", 0)) / lookups if lookups else 0.0
        ),
        "engine.days": len(days),
        "engine.report.bytes": report_bytes,
    })
    return out


def timings(trace: dict) -> dict[str, float]:
    """Per-layer times of one traced repetition, in seconds except day_ms."""
    out = {
        f"{name}.self_s": own for name, (_, own) in function_totals(trace).items()
    }
    days = day_durations(trace)
    out["engine.day_ms.p50"] = 1000.0 * _percentile(days, 50)
    out["engine.day_ms.p99"] = 1000.0 * _percentile(days, 99)
    return out
