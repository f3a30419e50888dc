"""Rules about the package as a whole rather than about one function."""

import ast
import dataclasses
import functools
import importlib
import inspect
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import riskengine
from riskengine.cli import build_parser

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


def _quick_start() -> str:
    """The python block of the README's quick start."""
    text = (_REPO / "README.md").read_text()
    return re.search(r"## Quick start\n\n```python\n(.*?)```", text, re.S).group(1)


@functools.cache
def _caller_sources() -> dict[str, ast.Module]:
    """What the caller scans read, parsed: src/ outside __init__.py, demos/,
    tests/test_acceptance.py and the README quick start."""
    sources = {path: tree for path, tree in {**_trees("src"), **_trees("demos")}.items()
               if path != "src/riskengine/__init__.py"}
    sources["tests/test_acceptance.py"] = _trees("tests")["tests/test_acceptance.py"]
    sources["README.md quick start"] = ast.parse(_quick_start(), "README.md quick start")
    return sources


def _loads(tree: ast.Module):
    """(node, name) for each name and attribute the tree loads."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n, n.id
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            yield n, n.attr


def _python(*args, cwd=None, **env) -> str:
    """The stdout of a fresh interpreter that imports riskengine from where
    this one did, with env's variables set (None unsets one). A non-zero
    exit fails the test with the child's stderr."""
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_IMPORT_ROOT, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          env={k: v for k, v in env.items() if v is not None}, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


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


def test_public_names_have_a_caller():
    # A name in riskengine.__all__ that only its own unit tests read is
    # surface nothing needs. A name counts as read when the caller sources
    # load it as a name or an attribute; importing it does not count. A
    # function's reads inside the module that defines it do not count
    # either: a helper only its own module calls is private. Classes are
    # exempt from that rule, since callers receive or catch them rather than
    # call them. Dunder names are skipped.
    sources = _caller_sources()
    home = {node.name: path  # top-level function -> the source defining it
            for path, tree in sources.items() if path.startswith("src/")
            for node in tree.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    read = {name for path, tree in sources.items() for _, name in _loads(tree)
            if home.get(name) != path}
    bad = [f"riskengine.{name} is exported but only unit tests or its own module read it"
           for name in riskengine.__all__ if not name.startswith("__") and name not in read]
    assert not bad, "\n".join(bad)


def test_public_parameters_have_a_caller():
    # A parameter with a default that no call in the caller sources passes
    # is a knob nothing turns: checked for each function in riskengine.__all__
    # and the constructor fields of each exported dataclass. A call passes a
    # parameter by keyword or by position, and a call with *args or **kw
    # counts as passing every parameter.
    calls = {}  # called name -> [(positional count, keyword names, unpacks)]
    for tree in _caller_sources().values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                f = n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None)
                unpacks = (any(isinstance(a, ast.Starred) for a in n.args)
                           or any(k.arg is None for k in n.keywords))
                calls.setdefault(f, []).append((len(n.args), {k.arg for k in n.keywords}, unpacks))
    bad = []
    for name in riskengine.__all__:
        func = getattr(riskengine, name)
        if not (inspect.isfunction(func) or dataclasses.is_dataclass(func)):
            continue
        for i, p in enumerate(inspect.signature(func).parameters.values()):
            if p.default is p.empty:
                continue
            by_position = p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
            if not any(unpacks or p.name in keywords or (by_position and n_args > i)
                       for n_args, keywords, unpacks in calls.get(name, ())):
                bad.append(f"riskengine.{name}: no call passes parameter {p.name}")
    assert not bad, "\n".join(bad)


def test_public_methods_have_a_caller():
    # A public method or property of a class in riskengine.__all__ that the
    # caller sources never load as an attribute is surface only unit tests
    # need. A load whose receiver names an exported class, such as
    # RunConfig.from_dict or engine.RunConfig.from_dict, counts for that
    # class only; any other receiver counts for every class.
    classes = [name for name in riskengine.__all__ if inspect.isclass(getattr(riskengine, name))]
    read = set()  # (class or None for any class, attribute)
    for tree in _caller_sources().values():
        for n, attr in _loads(tree):
            if isinstance(n, ast.Attribute):
                receiver = getattr(n.value, "id", getattr(n.value, "attr", None))
                read.add((receiver if receiver in classes else None, attr))
    bad = [f"riskengine.{name}.{attr} is public but nothing reads it"
           for name in classes
           for attr, value in vars(getattr(riskengine, name)).items()
           if not attr.startswith("_") and (None, attr) not in read and (name, attr) not in read
           and (inspect.isfunction(value) or isinstance(value, (property, classmethod, staticmethod)))]
    assert not bad, "\n".join(bad)


# names README.md writes as calls in formulas, not as package functions
_README_FORMULAS = {"ceil"}


def test_readme_names_only_existing_modules():
    # A module or function retired from the package must leave the README
    # with it. Each inline code span that opens with a call, `name(` or
    # `owner.name(`, must name an attribute of a src/riskengine module; an
    # owner that is a module or class there is searched alone, and any other
    # owner (an instance, as in `config.model_keys()`) stands for every
    # class the package defines.
    text = (_REPO / "README.md").read_text()
    named = set(re.findall(r"\briskengine\.(\w+)", text))
    bad = [f"README.md names riskengine.{name}, but src/riskengine/{name}.py does not exist"
           for name in sorted(named) if not (_REPO / "src" / "riskengine" / f"{name}.py").is_file()]
    modules = {p.stem: importlib.import_module(f"riskengine.{p.stem}")
               for p in sorted((_REPO / "src" / "riskengine").glob("[!_]*.py"))}
    classes = {name: value for module in modules.values() for name, value in vars(module).items()
               if inspect.isclass(value) and value.__module__ == module.__name__}
    spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    calls = {m.group(1) for span in spans if (m := re.match(r"(?:riskengine\.)?([\w.]+)\(", span))}
    for call in sorted(calls - _README_FORMULAS):
        *owner, attr = call.split(".")
        if not owner:
            owners = modules.values()
        elif owner[-1] in modules or owner[-1] in classes:
            owners = [modules.get(owner[-1]) or classes[owner[-1]]]
        else:
            owners = classes.values()
        if not any(hasattr(o, attr) for o in owners):
            bad.append(f"README.md calls `{call}(`, which no src/riskengine module defines")
    assert not bad, "\n".join(bad)


def test_readme_commands_parse():
    # A retired subcommand or flag must leave the README with it: each
    # `riskengine ...` command in a sh block, its continuation lines joined,
    # must parse with cli.build_parser().
    text = (_REPO / "README.md").read_text()
    commands = [line for block in re.findall(r"```sh\n(.*?)```", text, re.S)
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("riskengine ")]
    bad = []
    for command in commands:
        try:
            build_parser().parse_args(shlex.split(command)[1:])
        except SystemExit:
            bad.append(f"README.md runs `{command}`, which the riskengine parser rejects")
    assert commands and not bad, "\n".join(bad)


def test_model_tags_parsed_in_one_place():
    # engine._parse_tag turns a model tag into (kind, components); no other
    # code reads a tag's spelling. Fail on a startswith call given a
    # model-kind literal, or on a [3:] slice, anywhere in src/ outside it.
    kinds = {"gmm", "hs", "param", "gbm_mc"}
    bad = []
    for path, tree in _trees("src").items():
        parser = {id(n) for f in ast.walk(tree)
                  if isinstance(f, ast.FunctionDef) and f.name == "_parse_tag" for n in ast.walk(f)}
        for n in ast.walk(tree):
            if id(n) in parser:
                continue
            if (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                    and n.func.attr == "startswith"
                    and any(isinstance(c, ast.Constant) and c.value in kinds
                            for a in n.args for c in ast.walk(a))):
                bad.append((path, n.lineno, "startswith given a model kind"))
            elif (isinstance(n, ast.Slice) and n.upper is None and n.step is None
                    and isinstance(n.lower, ast.Constant) and n.lower.value == 3):
                bad.append((path, n.lineno, "[3:] slice"))
    assert not bad, "\n".join(f"{p}:{line}: {what} outside _parse_tag" for p, line, what in sorted(bad))


# The prelude of the fresh-interpreter scripts below. Their panel has 15
# assets on one common factor, with 252 rows of history before the
# evaluated days.
_PANEL = """
import datetime as dt
import sys

import numpy as np

from riskengine import PortfolioSpec, PricePanel, RunConfig


def one_factor_panel(days):
    n_assets = 15
    rng = np.random.default_rng(1)
    shocks = 0.5 * rng.normal(size=(252 + days, 1)) + 0.75**0.5 * rng.normal(size=(252 + days, n_assets))
    prices = 100.0 * np.exp(np.vstack([np.zeros(n_assets), np.cumsum(0.0002 + 0.011 * shocks, axis=0)]))
    tickers = tuple(f"S{i:02d}" for i in range(n_assets))
    dates = tuple((dt.date(2015, 1, 1) + dt.timedelta(days=i)).isoformat() for i in range(len(prices)))
    return PricePanel(dates=dates, tickers=tickers, prices=prices)
"""

_NUMPY_ONLY = _PANEL + """
import csv
from pathlib import Path

import riskengine
from riskengine import report, report_sweep, run_backtest, sweep_sigma_short
from riskengine.cli import main

out, panel = Path(sys.argv[1]), one_factor_panel(5)
config = RunConfig(
    models=("gmm", "hs", "param", "gbm_mc"), n_components=(2,), alphas=(0.05,), long_len=120,
    short_len=40, paths=500, eval_days=5, seed=1, portfolio=PortfolioSpec.equal(panel.tickers),
)
records, reports = run_backtest(panel, config)
report(records, reports, config, out / "run")
report_sweep(sweep_sigma_short(panel, config, [20, 40]), config, out / "sweep")
with open(out / "prices.csv", "w", newline="") as fh:
    csv.writer(fh).writerows([["date", *panel.tickers], *(
        [d, *map(repr, row)] for d, row in zip(panel.dates, panel.prices.tolist()))])
assert main(["run", "--prices", str(out / "prices.csv"), "--out", str(out / "cli"),
             "--models", "gmm,hs,param,gbm_mc", "--components", "2", "--alpha", "0.05",
             "--window-long", "120", "--window-short", "40", "--paths", "500", "--days", "5",
             "--seed", "1", "--portfolio", "equal"]) == 0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
if loaded:
    sys.exit("\\n".join([f"riskengine {riskengine.__version__}: {len(loaded)} scipy modules loaded",
                        *loaded[:20]]))
"""


def test_import_path_is_numpy_only(tmp_path):
    # scipy is installed for the tests only: importing riskengine, a run
    # with every model kind and a portfolio, its report, a sweep and the
    # same run through the command line must load no scipy module. A fresh
    # interpreter, since other tier-1 tests import scipy.
    _python("-c", _NUMPY_ONLY, str(tmp_path))


_PAGE_FAULTS = _PANEL + """
import resource

from riskengine import run_backtest, sweep_sigma_short

models, paths = sys.argv[1].split(","), int(sys.argv[2])
panel = one_factor_panel(100)
config = RunConfig(
    models=tuple(models), n_components=(3,), alphas=(0.01, 0.05), paths=paths,
    eval_days=100, seed=1, portfolio=PortfolioSpec.equal(panel.tickers),
)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
if sys.argv[3:] == ["sweep"]:
    sweep_sigma_short(panel, config, range(10, 71, 10))
else:
    run_backtest(panel, config)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 100)
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
    per_day = float(_python("-c", _PAGE_FAULTS, *args))
    assert per_day <= 50, f"{' '.join(args)}: {per_day:.0f} minor page faults per day"


_OTHER_THREADS_CPU = _PANEL + """
import os
import threading
import time

from riskengine import run_backtest


def cpu_s():
    # {thread id: user + system CPU seconds} of each thread of this process
    ticks, out = os.sysconf("SC_CLK_TCK"), {}
    for tid in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{tid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        out[tid] = (int(fields[11]) + int(fields[12])) / ticks
    return out


panel = one_factor_panel(60)
config = RunConfig(
    models=("hs", "param", "gbm_mc"), alphas=(0.01, 0.05), paths=10000, eval_days=60, seed=1,
    portfolio=PortfolioSpec.equal(panel.tickers),
)
time.sleep(0.5)  # BLAS threads spin for about 0.1 s after they start at import
before, start = cpu_s(), time.perf_counter()
run_backtest(panel, config)
wall, after = time.perf_counter() - start, cpu_s()
# the shock worker is joined by now, so only the main thread and BLAS's remain
main = str(threading.main_thread().native_id)
print(sum(t - before.get(tid, 0.0) for tid, t in after.items() if tid != main) / wall)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads per-thread CPU time from /proc")
def test_day_loop_leaves_blas_threads_idle():
    # A 60-day hs, param and gbm_mc run at 10000 paths, under the default
    # BLAS threads, must keep every BLAS call on the calling thread: a call
    # that wakes OpenBLAS's pool leaves its threads spinning on the CPU the
    # shock worker draws on. Threads other than the main thread and the
    # worker may use under 10% of the run's wall time.
    share = float(_python("-c", _OTHER_THREADS_CPU,
                          **dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"))))
    assert share < 0.10, f"other threads used {share:.0%} of the run's wall time"


_BLAS_RUN = _PANEL + """
from riskengine import report, report_sweep, run_backtest, sweep_sigma_short

panel = one_factor_panel(120)
config = RunConfig(
    models=("gmm", "hs", "param", "gbm_mc"), n_components=(3,), alphas=(0.01, 0.05),
    eval_days=120, seed=1, portfolio=PortfolioSpec.equal(panel.tickers),
)
records, reports = run_backtest(panel, config)
report(records, reports, config, sys.argv[1])
report_sweep(sweep_sigma_short(panel, config, [40, 70]), config, f"{sys.argv[1]}/sweep")
"""


def test_reports_byte_stable_across_blas_threads(tmp_path):
    # A report must not depend on how many threads BLAS runs. One 120-day
    # run (gmm3, hs, param and gbm_mc, an equal-weight portfolio) and a
    # two-point sigma_short sweep go through two fresh interpreters, one with
    # the default threads and one with a single thread, and their CSVs must
    # match byte for byte.
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
    _python("-c", _BLAS_RUN, str(tmp_path / "default"), **dict.fromkeys(threads))
    _python("-c", _BLAS_RUN, str(tmp_path / "one"), **dict.fromkeys(threads, "1"))
    for f in ("estimates.csv", "backtest.csv", "fit_diagnostics.csv", "sweep/short_040/estimates.csv",
              "sweep/short_070/estimates.csv", "sweep/sweep_verdicts.csv"):
        assert (tmp_path / "default" / f).read_bytes() == (tmp_path / "one" / f).read_bytes(), \
            f"{f} differs between the default BLAS threads and one thread"


_FAILING_GIVEN = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_after():
    pass
"""

_CHILD_PYTEST = """
import sys

import pytest

print(int(pytest.main(["-q", "-p", "no:cacheprovider", "-c", sys.argv[1], "--rootdir", ".",
                       "test_two.py"])))
"""


def test_failing_hypothesis_test_does_not_stop_the_suite(tmp_path):
    # To explain a failing @given test Hypothesis imports libcst, which warns
    # DeprecationWarning about mypy_extensions.TypedDict; under the
    # repository's filterwarnings that warning must not end the run. A child
    # pytest with pyproject.toml's settings runs a failing @given test and a
    # passing one: it must exit 1 (tests failed), not 3 (internal error), and
    # still run the second test.
    (tmp_path / "test_two.py").write_text(_FAILING_GIVEN)
    out = _python("-c", _CHILD_PYTEST, str(_REPO / "pyproject.toml"), cwd=tmp_path)
    assert out.splitlines()[-1] == "1" and "1 failed, 1 passed" in out, out[-600:]


# quick start and demos run with these as errors, as tier-1 does
_STRICT = ("-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning")


def test_readme_quick_start_runs():
    # The quick start is the one public-API example no test or demo runs.
    _python(*_STRICT, "-c", _quick_start())


@pytest.mark.parametrize("demo", sorted((_REPO / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # The demos call public functions (fit, sample, the array estimators
    # var_es_columns and parametric_columns, calibrate_gbm,
    # simulate_gbm_portfolio, run_backtest, report, sweep_sigma_short); any
    # exception, RuntimeWarning or DeprecationWarning fails the test. Their
    # stdout is not compared. In a scratch directory, since demo 03 writes its report
    # to ./backtest_out.
    _python(*_STRICT, str(demo), cwd=tmp_path)
