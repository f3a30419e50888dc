"""Rules about the package as a whole rather than about one function."""

import ast
import dataclasses
import functools
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
_REPO = pathlib.Path(__file__).resolve().parents[1]


@functools.cache
def _trees(root: str) -> dict[str, ast.Module]:
    """The parsed .py files under a top-level directory of the repository,
    keyed by their path relative to it, in path order."""
    return {str(p.relative_to(_REPO)): ast.parse(p.read_text(), str(p))
            for p in sorted((_REPO / root).rglob("*.py"))}


def test_no_unused_imports():
    # No linter is installed: fail on any name a module imports and never
    # reads. __init__.py re-exports and __future__ imports are skipped.
    bad = []
    for path, tree in {**_trees("src"), **_trees("tests"), **_trees("demos")}.items():
        if path.endswith("__init__.py"):
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    imported[a.asname or a.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for a in node.names:
                    imported[a.asname or a.name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        bad += [f"{path}:{line}: {name} imported but never used"
                for name, line in imported.items() if name not in used]
    assert not bad, "\n".join(bad)


def test_no_unused_parameters():
    # A function parameter in src/ that its body never reads is a knob
    # nothing turns. self, cls and _-prefixed names are skipped.
    bad = []
    for path, tree in _trees("src").items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            bad += [f"{path}:{p.lineno}: parameter {p.arg} is never read"
                    for p in params
                    if p.arg not in read and p.arg not in ("self", "cls")
                    and not p.arg.startswith("_")]
    assert not bad, "\n".join(bad)


def test_no_unused_private_definitions():
    # A _-prefixed top-level function or class in src/ that no module in
    # src/ names is a helper a refactor left behind. A name counts as used
    # when it appears as a name or an attribute anywhere in src/; dunder
    # names are skipped.
    trees = _trees("src")
    used = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                used.add(n.id)
            elif isinstance(n, ast.Attribute):
                used.add(n.attr)
    bad = [f"{path}:{node.lineno}: {node.name} is defined but never used"
           for path, tree in trees.items()
           for node in tree.body
           if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
           and node.name.startswith("_") and not node.name.startswith("__")
           and node.name not in used]
    assert not bad, "\n".join(bad)


def test_validated_types_only_where_input_enters():
    # Only the types that take caller input check themselves; a result the
    # package computed is a plain record. Fail on any exported dataclass
    # outside that list that defines __post_init__.
    inputs = {"PricePanel", "RunConfig", "PortfolioSpec", "GaussianMixtureModel"}
    bad = [f"riskengine.{name} validates in __post_init__ but is not an input type"
           for name in riskengine.__all__
           if dataclasses.is_dataclass(getattr(riskengine, name))
           and "__post_init__" in vars(getattr(riskengine, name)) and name not in inputs]
    assert not bad, "\n".join(bad)


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
