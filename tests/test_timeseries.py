"""Price loading and return computation."""

import io

import numpy as np
import pytest

from riskengine import (
    PricePanel,
    load_prices,
    log_returns,
)
from riskengine.errors import (
    InsufficientDataError,
    ParseError,
    ShapeError,
    ValidationError,
)

CSV_OK = """date,AAA,BBB
2020-01-02,100.0,50.0
2020-01-03,110.0,51.0
2020-01-06,121.0,49.5
"""


def test_load_prices_happy_path():
    panel = load_prices(io.StringIO(CSV_OK))
    assert panel.tickers == ("AAA", "BBB")
    assert panel.dates == ("2020-01-02", "2020-01-03", "2020-01-06")
    assert panel.prices.shape == (3, 2)
    assert panel.prices[2, 0] == 121.0
    assert panel.n_rows == 3


def test_load_prices_sorts_by_date():
    csv_text = "date,X\n2020-01-05,2.0\n2020-01-01,1.0\n2020-01-03,3.0\n"
    panel = load_prices(io.StringIO(csv_text))
    assert panel.dates == ("2020-01-01", "2020-01-03", "2020-01-05")
    assert list(panel.prices[:, 0]) == [1.0, 3.0, 2.0]


def test_load_prices_skips_blank_lines():
    csv_text = "date,X\n2020-01-01,1.0\n\n2020-01-02,2.0\n\n"
    panel = load_prices(io.StringIO(csv_text))
    assert panel.n_rows == 2


@pytest.mark.parametrize("bad, line", [
    ("2020-2-1", 2),  # not zero-padded: as a string it sorts after 2020-10-1
    ("2020-02-30", 3),  # no such day
])
def test_load_prices_accepts_only_iso_calendar_dates(bad, line):
    rows = ["2020-01-15,1.0", "2020-02-28,2.0", "2020-10-01,3.0"]
    rows[line - 2] = f"{bad},4.0"
    with pytest.raises(ParseError, match=f"line {line}: date '{bad}'"):
        load_prices(io.StringIO("date,X\n" + "\n".join(rows) + "\n"))


def test_load_prices_header_must_lead_with_date():
    with pytest.raises(ParseError):
        load_prices(io.StringIO("timestamp,X\n2020-01-01,1.0\n"))


def test_load_prices_header_date_case_insensitive():
    panel = load_prices(io.StringIO("Date,X\n2020-01-01,1.0\n2020-01-02,2.0\n"))
    assert panel.tickers == ("X",)


def test_load_prices_field_count_mismatch_names_line():
    csv_text = "date,X,Y\n2020-01-01,1.0,2.0\n2020-01-02,1.0\n"
    with pytest.raises(ParseError, match="line 3"):
        load_prices(io.StringIO(csv_text))


def test_load_prices_non_numeric_price():
    with pytest.raises(ParseError, match="X"):
        load_prices(io.StringIO("date,X\n2020-01-01,abc\n"))


def test_load_prices_duplicate_date():
    csv_text = "date,X\n2020-01-01,1.0\n2020-01-01,2.0\n"
    with pytest.raises(ValidationError, match="2020-01-01"):
        load_prices(io.StringIO(csv_text))


def test_load_prices_rejects_duplicate_tickers():
    with pytest.raises(ValidationError, match="duplicate ticker 'X'"):
        load_prices(io.StringIO("date,X,Y,X\n2020-01-01,1.0,2.0,3.0\n"))


@pytest.mark.parametrize("quoted", [False, True], ids=["bare", "quoted"])
@pytest.mark.parametrize("source", ["path", "buffer"])
def test_load_prices_accepts_a_byte_order_mark(tmp_path, source, quoted):
    # Excel's "CSV UTF-8" export starts the file with one; another tool may
    # quote the header after it
    text = CSV_OK.replace("date", '"date"') if quoted else CSV_OK
    if source == "path":
        path = tmp_path / "prices.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        panel = load_prices(str(path))
    else:
        panel = load_prices(io.StringIO("\ufeff" + text))
    plain = load_prices(io.StringIO(CSV_OK))
    assert (panel.dates, panel.tickers) == (plain.dates, plain.tickers)
    assert panel.prices.tobytes() == plain.prices.tobytes()


def test_load_prices_rejects_non_positive():
    with pytest.raises(ValidationError, match="X"):
        load_prices(io.StringIO("date,X\n2020-01-01,0.0\n"))


def test_load_prices_no_rows():
    with pytest.raises(InsufficientDataError):
        load_prices(io.StringIO("date,X\n"))


def test_load_prices_from_path(tmp_path):
    p = tmp_path / "prices.csv"
    p.write_text(CSV_OK)
    panel = load_prices(str(p))
    assert panel.n_rows == 3


def test_price_panel_rejects_unsorted_dates():
    with pytest.raises(ValidationError):
        PricePanel(
            dates=("2020-01-02", "2020-01-01"),
            tickers=("X",),
            prices=np.array([[1.0], [2.0]]),
        )


def test_price_panel_rejects_non_positive_and_non_finite():
    with pytest.raises(ValidationError):
        PricePanel(dates=("2020-01-01",), tickers=("X",), prices=np.array([[-1.0]]))
    with pytest.raises(ValidationError):
        PricePanel(dates=("2020-01-01",), tickers=("X",), prices=np.array([[np.inf]]))


def test_price_panel_rejects_duplicate_tickers():
    # two columns of one name would be scored as two indistinguishable targets
    with pytest.raises(ValidationError, match="duplicate ticker 'A'"):
        PricePanel(dates=("2020-01-01", "2020-01-02"), tickers=("A", "A"), prices=np.ones((2, 2)))


@pytest.mark.parametrize("blank", ["", "  "], ids=["empty", "whitespace"])
def test_price_panel_rejects_empty_tickers(blank):
    # an empty ticker would write report rows whose ticker field is empty
    with pytest.raises(ValidationError, match="ticker names must not be empty"):
        PricePanel(dates=("2020-01-01",), tickers=("A", blank), prices=np.ones((1, 2)))
    with pytest.raises(ValidationError, match="ticker names must not be empty"):
        load_prices(io.StringIO(f"date,A,{blank}\n2020-01-01,1.0,2.0\n"))


def test_price_panel_rejects_a_constant_column():
    # a price that never changes gives only zero returns, which no model can
    # be fitted to; the one error names the ticker before any fit runs
    prices = np.array([[10.0, 5.0, 7.0], [11.0, 5.0, 7.0], [12.0, 5.0, 7.5]])
    dates = ("2020-01-01", "2020-01-02", "2020-01-03")
    with pytest.raises(ValidationError, match="price of 'B' is constant over all 3 rows"):
        PricePanel(dates=dates, tickers=("A", "B", "C"), prices=prices)
    # a column that moves once is not constant, and one row stays a legal panel
    PricePanel(dates=dates, tickers=("A", "C"), prices=prices[:, [0, 2]])
    PricePanel(dates=dates[:1], tickers=("A", "B", "C"), prices=prices[:1])


def test_price_panel_shape_mismatch():
    with pytest.raises(ShapeError):
        PricePanel(
            dates=("2020-01-01", "2020-01-02"),
            tickers=("X", "Y"),
            prices=np.ones((2, 1)),
        )


def test_price_panel_prices_read_only():
    panel = load_prices(io.StringIO(CSV_OK))
    with pytest.raises(ValueError):
        panel.prices[0, 0] = 5.0


def test_log_returns_oracle():
    # 100 -> 110 -> 121 gives two identical steps of ln(1.1)
    panel = PricePanel(
        dates=("2020-01-01", "2020-01-02", "2020-01-03"),
        tickers=("X",),
        prices=np.array([[100.0], [110.0], [121.0]]),
    )
    rets = log_returns(panel)
    assert rets.shape == (2, 1) and rets.dtype == float
    np.testing.assert_allclose(rets[:, 0], 0.09531017980432486, rtol=1e-13)
    with pytest.raises(ValueError):  # read-only, like the panel's prices
        rets[0, 0] = 0.0


def test_log_returns_needs_two_rows():
    panel = PricePanel(dates=("2020-01-01",), tickers=("X",), prices=np.array([[1.0]]))
    with pytest.raises(InsufficientDataError):
        log_returns(panel)

