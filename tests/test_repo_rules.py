"""Rules about the package as a whole rather than about one function."""

import inspect
import os
import pathlib
import subprocess
import sys

import pytest

import riskengine

# the directory riskengine was imported from, so a fresh interpreter runs
# the same code as this one
_IMPORT_ROOT = str(pathlib.Path(riskengine.__file__).resolve().parents[1])


def test_no_public_function_takes_caller_memory():
    # Only the day loop reuses memory, by calling the simulators' private
    # kernels with its own arrays; a public function allocates what it returns.
    bad = [f"riskengine.{name} takes {param}"
           for name in riskengine.__all__ if inspect.isfunction(func := getattr(riskengine, name))
           for param in inspect.signature(func).parameters if param in ("out", "work")]
    assert not bad, "\n".join(bad)


_PAGE_FAULTS = """
import datetime as dt
import resource
import sys

import numpy as np

from riskengine import PortfolioSpec, PricePanel, RunConfig, run_backtest, sweep_sigma_short

models, paths = sys.argv[1].split(","), int(sys.argv[2])
sweep = sys.argv[3:] == ["sweep"]
days, n_assets = 100, 15
rng = np.random.default_rng(1)
shocks = 0.5 * rng.normal(size=(252 + days, 1)) + 0.75**0.5 * rng.normal(size=(252 + days, n_assets))
prices = 100.0 * np.exp(np.vstack([np.zeros(n_assets), np.cumsum(0.0002 + 0.011 * shocks, axis=0)]))
tickers = tuple(f"S{i:02d}" for i in range(n_assets))
dates = tuple((dt.date(2015, 1, 1) + dt.timedelta(days=i)).isoformat() for i in range(len(prices)))
config = RunConfig(
    models=tuple(models), n_components=(3,), alphas=(0.01, 0.05), paths=paths,
    eval_days=days, seed=1, portfolio=PortfolioSpec.equal(tickers),
)
panel = PricePanel(dates=dates, tickers=tickers, prices=prices)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
if sweep:
    sweep_sigma_short(panel, config, range(10, 71, 10))
else:
    run_backtest(panel, config)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / days)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="the bound assumes Linux and glibc")
@pytest.mark.parametrize("args", [
    ("hs,param,gbm_mc", "10000"), ("gmm,param", "3000"), ("gmm", "3000", "sweep"),
], ids="-".join)
def test_day_loop_faults_no_fresh_pages(args):
    # Each Monte Carlo tag simulates into arrays its run allocates once, so a
    # day must not fault fresh pages in: at most 50 minor faults per day of a
    # 100-day run_backtest, or of a sweep_sigma_short over the 7-point grid
    # 10..70. A fresh interpreter per config, since pages an earlier run
    # freed would hide the next run's faults.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_IMPORT_ROOT, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _PAGE_FAULTS, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    per_day = float(done.stdout)
    assert per_day <= 50, f"{' '.join(args)}: {per_day:.0f} minor page faults per day"
