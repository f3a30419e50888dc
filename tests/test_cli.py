"""Command-line entry points: run and sweep; exit codes and file outputs."""

import csv
import datetime as dt
import json

import numpy as np
import pytest

from riskengine.cli import main

from conftest import make_panel


def write_rows(path, tickers, prices):
    """A price CSV with one row per line of prices, dated by calendar day from 2018-01-01."""
    d0 = dt.date(2018, 1, 1)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["date", *tickers])
        w.writerows([(d0 + dt.timedelta(days=i)).isoformat(), *map(repr, row)]
                    for i, row in enumerate(prices.tolist()))


def write_prices(path, n_rows=200, tickers=("AA", "BB"), seed=7):
    panel = make_panel(n_rows, tickers, seed)
    write_rows(path, panel.tickers, panel.prices)
    return panel


@pytest.fixture
def prices_csv(tmp_path):
    p = tmp_path / "prices.csv"
    write_prices(p)
    return str(p)


RUN_FLAGS = [
    "--models", "gmm,hs,param",
    "--components", "2",
    "--alpha", "0.05",
    "--window-long", "120",
    "--window-short", "40",
    "--paths", "300",
    "--days", "25",
    "--seed", "5",
]


def test_run_writes_report(prices_csv, tmp_path, capsys):
    out = tmp_path / "run_out"
    code = main(["run", "--prices", prices_csv, "--out", str(out), *RUN_FLAGS,
                 "--portfolio", "equal"])
    assert code == 0
    text = capsys.readouterr().out
    assert "25 evaluation days" in text
    est = (out / "estimates.csv").read_text().splitlines()
    assert est[0] == "date,ticker,model_tag,alpha,var,es,n_tail,seed"
    # 3 models x (2 tickers + portfolio) x 1 alpha x 25 days
    assert len(est) == 1 + 3 * 3 * 25
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["portfolio"] is not None


def test_run_without_portfolio(prices_csv, tmp_path):
    out = tmp_path / "solo"
    code = main(["run", "--prices", prices_csv, "--out", str(out), *RUN_FLAGS])
    assert code == 0
    est = (out / "estimates.csv").read_text()
    assert "PORTFOLIO" not in est


def test_run_ticker_named_like_the_portfolio_exits_2(tmp_path, capsys):
    # with a portfolio its backtest rows would be indistinguishable from the
    # PORTFOLIO ticker's; without one the ticker is an ordinary column
    prices = tmp_path / "prices.csv"
    write_prices(prices, tickers=("AA", "PORTFOLIO"))
    code = main(["run", "--prices", str(prices), "--out", str(tmp_path / "p"), *RUN_FLAGS,
                 "--portfolio", "equal"])
    assert code == 2
    assert "ticker 'PORTFOLIO'" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()
    assert main(["run", "--prices", str(prices), "--out", str(tmp_path / "o"), *RUN_FLAGS]) == 0


def test_run_empty_ticker_exits_3(tmp_path, capsys):
    # the header "date,AA," names its second price column ""
    prices = tmp_path / "prices.csv"
    write_prices(prices)
    prices.write_text(prices.read_text().replace("date,AA,BB\n", "date,AA,\n", 1))
    code = main(["run", "--prices", str(prices), "--out", str(tmp_path / "o"), *RUN_FLAGS])
    assert code == 3
    assert "ticker names must not be empty" in capsys.readouterr().err


def test_run_deterministic_bytes(prices_csv, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--prices", prices_csv, "--out", str(a), *RUN_FLAGS]) == 0
    assert main(["run", "--prices", prices_csv, "--out", str(b), *RUN_FLAGS]) == 0
    assert (a / "estimates.csv").read_bytes() == (b / "estimates.csv").read_bytes()
    assert (a / "backtest.csv").read_bytes() == (b / "backtest.csv").read_bytes()


def test_run_dump_scenarios(prices_csv, tmp_path):
    out = tmp_path / "dump"
    code = main([
        "run", "--prices", prices_csv, "--out", str(out), "--models", "gmm",
        "--components", "2", "--alpha", "0.05", "--window-long", "120",
        "--window-short", "40", "--paths", "150", "--days", "2", "--seed", "1",
        "--dump-scenarios",
    ])
    assert code == 0
    files = sorted((out / "scenarios").iterdir())
    assert [f.name.endswith("_gmm2.npy") for f in files] == [True, True]
    for f in files:
        assert np.load(f).shape == (150, 2)  # (paths, assets)


def test_run_missing_prices_file(tmp_path):
    code = main(["run", "--prices", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "o"), *RUN_FLAGS])
    assert code == 3


def test_run_malformed_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("date,X\n2020-01-01,abc\n")
    code = main(["run", "--prices", str(bad), "--out", str(tmp_path / "o"), *RUN_FLAGS])
    assert code == 3


# Latin-1 bytes that are not UTF-8: a ticker and a config value spelled with an e-acute
NOT_UTF8_PRICES = "date,CAF\xc9\n2020-01-01,1.0\n".encode("latin-1")
NOT_UTF8_CONFIG = '{"models": ["hs"], "seed": 1} \xe9'.encode("latin-1")


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_price_file_that_is_not_utf8_is_a_data_error(tmp_path, capsys, command):
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(NOT_UTF8_PRICES)
    grid = ["--grid", "20,40"] if command == "sweep" else []
    code = main([command, "--prices", str(bad), "--out", str(tmp_path / "o"), *RUN_FLAGS, *grid])
    assert code == 3
    assert f"data error: cannot read price file {bad}" in capsys.readouterr().err


def test_price_path_naming_a_directory_is_a_data_error(tmp_path, capsys):
    code = main(["run", "--prices", str(tmp_path), "--out", str(tmp_path / "o"), *RUN_FLAGS])
    assert code == 3
    assert f"data error: cannot read price file {tmp_path}" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["not utf-8", "directory", "missing"])
def test_unreadable_config_file_is_a_config_error(prices_csv, tmp_path, capsys, case):
    path = {"not utf-8": tmp_path / "cfg.json", "directory": tmp_path,
            "missing": tmp_path / "nope.json"}[case]
    if case == "not utf-8":
        path.write_bytes(NOT_UTF8_CONFIG)
    code = main(["run", "--prices", prices_csv, "--config", str(path),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"config error: cannot read config file {path}" in capsys.readouterr().err


def test_report_write_failure_still_exits_4(prices_csv, tmp_path, capsys):
    # --out names a regular file, so the report directory cannot be created
    out = tmp_path / "taken"
    out.write_text("")
    code = main(["run", "--prices", prices_csv, "--out", str(out), *RUN_FLAGS])
    assert code == 4
    assert "run failed" in capsys.readouterr().err


def test_run_config_errors_exit_2(prices_csv, tmp_path):
    # window longer than the panel
    code = main(["run", "--prices", prices_csv, "--out", str(tmp_path / "o"),
                 "--window-long", "150", "--window-short", "40", "--days", "500",
                 "--paths", "150", "--seed", "0"])
    assert code == 2
    # unparsable component list
    code = main(["run", "--prices", prices_csv, "--out", str(tmp_path / "o"),
                 "--components", "two", *["--paths", "150"]])
    assert code == 2


def test_run_alpha_without_a_tail_exits_2_before_any_fit(prices_csv, tmp_path, capsys, monkeypatch):
    # 500 paths hold no tail at alpha 0.001, so every day would fail its estimate
    def no_fit(*args, **kwargs):
        raise AssertionError("fit called for a config that cannot estimate")

    monkeypatch.setattr("riskengine.engine.fit", no_fit)
    out = tmp_path / "o"
    code = main(["run", "--prices", prices_csv, "--out", str(out), *RUN_FLAGS,
                 "--alpha", "0.001", "--paths", "500"])
    assert code == 2
    assert "alpha 0.001 needs paths" in capsys.readouterr().err
    assert not out.exists()


def test_run_more_components_than_window_returns_exits_2_before_any_fit(
        prices_csv, tmp_path, capsys, monkeypatch):
    # no 120-return window can fit 121 components, so every day would fail
    def no_fit(*args, **kwargs):
        raise AssertionError("fit called for a config that cannot fit")

    monkeypatch.setattr("riskengine.engine.fit", no_fit)
    out = tmp_path / "o"
    code = main(["run", "--prices", prices_csv, "--out", str(out), *RUN_FLAGS,
                 "--components", "121"])
    assert code == 2
    assert "cannot fit 121 components to long_len 120" in capsys.readouterr().err
    assert not out.exists()


def test_run_multi_day_horizon_exits_2(prices_csv, tmp_path, capsys):
    cfg = tmp_path / "h10.json"
    cfg.write_text(json.dumps({"horizon": 10}))
    out = tmp_path / "h10"
    code = main(["run", "--prices", prices_csv, "--out", str(out), *RUN_FLAGS,
                 "--config", str(cfg)])
    assert code == 2
    assert "horizon 10" in capsys.readouterr().err
    assert not out.exists()


def test_run_mistyped_config_value_exits_2(prices_csv, tmp_path, capsys):
    cfg = tmp_path / "paths.json"
    cfg.write_text(json.dumps({"paths": 150.5}))
    out = tmp_path / "o"
    code = main(["run", "--prices", prices_csv, "--out", str(out), "--config", str(cfg)])
    assert code == 2
    assert "paths" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("entry", [
    {"alphas": ["0.05", "1e-2"]},
    {"alphas": "0.05"},
    {"models": "gmm"},
    {"portfolio": {"tickers": "AB", "weights": [0.5, 0.5]}},
])
def test_run_string_where_a_list_belongs_exits_2(prices_csv, tmp_path, capsys, entry):
    # a quoted level or a bare string for a list field is a config error, not
    # a traceback and not a run over coerced or split-up values
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    out = tmp_path / "o"
    code = main(["run", "--prices", prices_csv, "--out", str(out), "--config", str(cfg)])
    assert code == 2
    assert next(iter(entry)) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("weights, tickers", [
    (["0.5", "0.5"], ["AA", "BB"]),
    ([True, False], ["AA", "BB"]),
    ([0.5, 0.5], [1, 2]),
])
def test_run_mistyped_portfolio_exits_2(prices_csv, tmp_path, capsys, weights, tickers):
    # quoted or bool weights and numeric tickers are not coerced into a run
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"portfolio": {"tickers": tickers, "weights": weights}}))
    out = tmp_path / "o"
    code = main(["run", "--prices", prices_csv, "--out", str(out), *RUN_FLAGS,
                 "--config", str(cfg)])
    assert code == 2
    assert "invalid portfolio spec" in capsys.readouterr().err
    assert not out.exists()


def test_run_failing_before_first_day_leaves_no_scenario_dir(prices_csv, tmp_path):
    out = tmp_path / "dump"
    code = main(["run", "--prices", prices_csv, "--out", str(out), *RUN_FLAGS,
                 "--days", "100000", "--dump-scenarios"])
    assert code == 2
    assert not out.exists()


def test_argparse_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # --prices and --out are required
    assert exc.value.code == 2
    capsys.readouterr()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "riskengine" in capsys.readouterr().out


def test_config_file_with_flag_overrides(prices_csv, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "models": ["hs"], "alphas": [0.05], "long_len": 120, "short_len": 40,
        "paths": 200, "eval_days": 10, "seed": 3,
    }))
    out = tmp_path / "cfgrun"
    code = main(["run", "--prices", prices_csv, "--config", str(cfg_path),
                 "--out", str(out), "--days", "5"])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["eval_days"] == 5  # flag wins over file
    assert manifest["config"]["models"] == ["hs"]


def test_config_file_unknown_key(prices_csv, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"models": ["hs"], "mystery": 1}))
    code = main(["run", "--prices", prices_csv, "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")])
    assert code == 2


def test_sweep_config_file_cannot_ask_for_scenario_dumps(prices_csv, tmp_path, capsys):
    # scenario dumps come only from run --dump-scenarios; a config file that
    # asks a sweep for them is rejected instead of writing nothing
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"models": ["gmm"], "dump_scenarios": True}))
    out = tmp_path / "s"
    code = main(["sweep", "--prices", prices_csv, "--config", str(cfg_path),
                 "--out", str(out), "--grid", "20,30"])
    assert code == 2
    assert "unknown config keys" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_grid_colon_syntax(prices_csv, tmp_path):
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--prices", prices_csv, "--out", str(out),
        "--grid", "20:40:10",
        "--models", "gmm", "--components", "2", "--alpha", "0.05",
        "--window-long", "120", "--paths", "200", "--days", "10", "--seed", "2",
    ])
    assert code == 0
    subdirs = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert subdirs == ["short_020", "short_030", "short_040"]
    rows = (out / "sweep_verdicts.csv").read_text().splitlines()
    assert rows[0].startswith("sigma_short,")
    assert len(rows) == 1 + 3 * 1 * 2 * 1  # grid x model x tickers x alpha


def test_sweep_bad_grid(prices_csv, tmp_path):
    code = main(["sweep", "--prices", prices_csv, "--out", str(tmp_path / "s"),
                 "--grid", "40:20:10",
                 "--window-long", "120", "--paths", "200", "--days", "5"])
    assert code == 2



def test_sweep_repeated_grid_value(prices_csv, tmp_path, capsys):
    out = tmp_path / "s"
    code = main(["sweep", "--prices", prices_csv, "--out", str(out),
                 "--grid", "30,30,20",
                 "--window-long", "120", "--paths", "200", "--days", "5"])
    assert code == 2
    assert "config error: duplicate entries in grid" in capsys.readouterr().err
    assert not out.exists()


def test_gof_is_an_unknown_command(prices_csv, capsys, monkeypatch):
    # the in-sample goodness-of-fit table is retired: backtest.csv scores
    # every model out of sample. argparse rejects the command before any
    # price file is read.
    def no_read(*args, **kwargs):
        raise AssertionError("a price file was read for an unknown command")

    monkeypatch.setattr("riskengine.cli.load_prices", no_read)
    with pytest.raises(SystemExit) as exc:
        main(["gof", "--prices", prices_csv])
    assert exc.value.code == 2
    assert "invalid choice: 'gof'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_constant_price_column_exits_3_before_any_fit(tmp_path, capsys, monkeypatch, command):
    # a ticker whose price never changes has no return to model: the panel
    # is rejected with one error naming it, before any EM fit runs
    panel = make_panel(160, ("AA", "BB"), seed=7)
    prices = np.column_stack([panel.prices, np.full(160, 42.0)])
    p = tmp_path / "flat.csv"
    write_rows(p, ("AA", "BB", "CC"), prices)

    def no_fit(*args, **kwargs):
        raise AssertionError("fit ran on a panel with a constant column")

    monkeypatch.setattr("riskengine.engine.fit", no_fit)
    flags = {
        "run": ["--out", str(tmp_path / "r"), "--models", "gmm,hs,param", "--window-long", "120",
                "--window-short", "20", "--paths", "200", "--days", "20"],
        "sweep": ["--out", str(tmp_path / "s"), "--grid", "20,40", "--window-long", "120",
                  "--paths", "200", "--days", "20"],
    }[command]
    assert main([command, "--prices", str(p), *flags]) == 3
    captured = capsys.readouterr()
    assert "data error" in captured.err and "'CC'" in captured.err and "constant" in captured.err
    assert captured.out == ""
    assert not any(tmp_path.glob("[rs]"))
