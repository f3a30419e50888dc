"""One benchmark repetition in a fresh interpreter, as `riskengine run` would.

Usage: python3 perfbench/child.py SPEC.json

SPEC names the price CSV, the report directory, the RunConfig fields, the
sweep grid (null for a plain run), the expected package directory and, for
a traced repetition, where to write the spans. The result JSON goes to
SPEC["result"]; its times are time.monotonic() readings or differences of
them, so the parent can relate them to the moment it spawned this process.
"""

import time

T0 = time.monotonic()

import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _report_bytes(root: str) -> int:
    """Bytes under root except manifests, whose timestamps vary in length."""
    return sum(
        os.path.getsize(os.path.join(d, f))
        for d, _, files in os.walk(root)
        for f in files
        if not f.endswith("manifest.json")
    )


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)

    import riskengine
    from riskengine import engine, timeseries

    package_dir = os.path.dirname(os.path.abspath(riskengine.__file__))
    if package_dir != spec["package_dir"]:
        print(f"imported riskengine from {package_dir}", file=sys.stderr)
        return 2
    tracer = None
    if spec["trace"]:
        import layers

        tracer = layers.install()
    try:
        panel = timeseries.load_prices(spec["csv"])
        config = engine.RunConfig.from_dict(spec["config"])
        config = dataclasses.replace(
            config, portfolio=riskengine.PortfolioSpec.equal(panel.tickers)
        )
        t_run = time.monotonic()
        if spec["grid"]:
            results = engine.sweep_sigma_short(panel, config, spec["grid"])
            t_report = time.monotonic()
            engine.report_sweep(
                results, config, spec["out"], wall_clock_seconds=t_report - t_run
            )
            records = [r for recs, _ in results.values() for r in recs]
        else:
            sink: dict = {}
            records, reports = engine.run_backtest(panel, config, model_sink=sink)
            t_report = time.monotonic()
            engine.report(
                records, reports, config, spec["out"],
                wall_clock_seconds=t_report - t_run, final_models=sink,
            )
        t_end = time.monotonic()
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        tracer.write(spec["trace"])
    result = {
        "setup_s": t_run - T0,
        "run_s": t_report - t_run,
        "report_s": t_end - t_report,
        "t_end": t_end,
        "days": len(records),
        "invalid_days": sum(1 for r in records if r.error is not None),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "report_bytes": _report_bytes(spec["out"]),
    }
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
