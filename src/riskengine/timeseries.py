"""Price panels and log returns."""

from __future__ import annotations

import csv
import datetime
import io
from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientDataError,
    ParseError,
    ShapeError,
    ValidationError,
)


@dataclass(frozen=True)
class PricePanel:
    """Aligned close prices: one row per date, one column per distinct named
    ticker; with two rows or more, no column's price is constant."""

    dates: tuple[str, ...]
    tickers: tuple[str, ...]
    prices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "tickers", tuple(self.tickers))
        if not all(str(t).strip() for t in self.tickers):
            raise ValidationError(f"ticker names must not be empty, got {self.tickers}")
        dup = [t for i, t in enumerate(self.tickers) if t in self.tickers[:i]]
        if dup:
            raise ValidationError(f"duplicate ticker {dup[0]!r}")
        p = np.array(self.prices, dtype=float)
        p.setflags(write=False)
        object.__setattr__(self, "prices", p)
        if p.ndim != 2:
            raise ShapeError(f"prices must be 2-D, got ndim={p.ndim}")
        if p.shape != (len(self.dates), len(self.tickers)):
            raise ShapeError(
                f"prices shape {p.shape} does not match "
                f"{len(self.dates)} dates x {len(self.tickers)} tickers"
            )
        if len(self.dates) == 0:
            raise ValidationError("panel has no rows")
        for prev, cur in zip(self.dates, self.dates[1:]):
            if cur <= prev:
                raise ValidationError(
                    f"dates must be strictly increasing: {prev!r} then {cur!r}"
                )
        if not np.all(np.isfinite(p)) or np.any(p <= 0.0):
            bad = np.argwhere(~(np.isfinite(p) & (p > 0.0)))[0]
            raise ValidationError(
                f"price for {self.tickers[bad[1]]} on {self.dates[bad[0]]} "
                f"is not a positive finite number"
            )
        flat = np.all(p == p[0], axis=0)
        if len(p) > 1 and np.any(flat):
            raise ValidationError(
                f"price of {self.tickers[np.argmax(flat)]!r} is constant over all "
                f"{len(p)} rows, so it has no returns to model"
            )

    @property
    def n_rows(self) -> int:
        return self.prices.shape[0]


def load_prices(path_or_buffer) -> PricePanel:
    """Read a close-price CSV into a PricePanel.

    Expected layout: UTF-8 text, with or without a byte-order mark, with
    header ``date,<ticker>,...``; first column ISO-8601 dates written
    YYYY-MM-DD (else ParseError), remaining columns prices.
    Rows may arrive in any order and are sorted by date. Duplicate dates are
    rejected, and PricePanel rejects prices that are not positive and finite,
    a constant price column, and empty and duplicate tickers.
    """
    if hasattr(path_or_buffer, "read"):
        text = path_or_buffer.read()
    else:
        with open(path_or_buffer, newline="", encoding="utf-8") as fh:
            text = fh.read()
    # Excel's "CSV UTF-8" export starts with a byte-order mark
    rows = list(csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline="")))
    if not rows:
        raise ParseError("empty price file", line_no=1)

    header = [c.strip() for c in rows[0]]
    if len(header) < 2 or header[0].lower() != "date":
        raise ParseError(
            "header must be 'date' followed by at least one ticker", line_no=1
        )
    tickers = tuple(header[1:])

    parsed: list[tuple[str, list[float]]] = []
    seen: set[str] = set()
    for line_no, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue  # blank line
        if len(row) != len(header):
            raise ParseError(
                f"expected {len(header)} fields, got {len(row)}", line_no=line_no
            )
        date = row[0].strip()
        # only a YYYY-MM-DD date reads back unchanged; such strings sort as the days do
        try:
            iso = datetime.date.fromisoformat(date).isoformat() == date
        except ValueError:
            iso = False
        if not iso:
            raise ParseError(f"date {date!r} is not a YYYY-MM-DD date", line_no=line_no)
        if date in seen:
            raise ValidationError(f"duplicate date {date!r}")
        seen.add(date)
        values = []
        for ticker, cell in zip(tickers, row[1:]):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"non-numeric price {cell!r} for {ticker}", line_no=line_no
                ) from None
            values.append(value)
        parsed.append((date, values))

    if not parsed:
        raise InsufficientDataError("price file contains no data rows")
    parsed.sort(key=lambda item: item[0])
    dates = tuple(date for date, _ in parsed)
    prices = np.array([values for _, values in parsed], dtype=float)
    return PricePanel(dates=dates, tickers=tickers, prices=prices)


def log_returns(panel: PricePanel) -> np.ndarray:
    """Columnwise log returns ln(S_t / S_{t-1}), read-only, shaped (n - 1, assets).

    Row t is the return into panel.dates[t + 1]; the first date has none.
    """
    if panel.n_rows < 2:
        raise InsufficientDataError("need at least 2 price rows for returns")
    r = np.diff(np.log(panel.prices), axis=0)
    r.setflags(write=False)
    return r
