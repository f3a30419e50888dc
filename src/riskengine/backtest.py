"""VaR backtesting: violation tests, loss scoring, goodness of fit.

Christoffersen framework: with x violations in n days at level p,

    LR_uc = -2 ln[(1-p)^(n-x) p^x] + 2 ln[(1-x/n)^(n-x) (x/n)^x]

tests unconditional coverage against the binomial likelihood, and the
independence statistic compares a first-order Markov chain of the hit
sequence against a constant violation probability:

    LR_ind = -2 ln[(1-pi2)^(n00+n10) pi2^(n01+n11)]
             + 2 ln[(1-pi01)^n00 pi01^n01 (1-pi11)^n10 pi11^n11]

with nab the count of transitions a -> b, pi01 = n01/(n00+n01),
pi11 = n11/(n10+n11) and pi2 = (n01+n11)/(n00+n01+n10+n11). A transition
pairs two observations on adjacent days only: when days are missing from a
sequence (invalid days dropped from a backtest), the pairs across each gap
are not counted, so the four counts sum to n - 1 minus the number of gaps
(Christoffersen 1998 defines the chain on consecutive days). Terms follow the
0 * ln 0 = 0 convention, so degenerate sequences (no hits at all) yield
LR_ind = 0 rather than NaN. LR_cc = LR_uc + LR_ind. Both LR statistics are
non-negative because each restricted model is nested in its alternative.

The quadratic loss of a VaR series is a plain float, the mean over its days
of I(hit) * (1 + (r - VaR)^2): a day without a violation scores 0.
Results are plain records: hits returns a boolean array and ks_test a
(statistic, p-value) tuple; only the inputs are checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import chi2_sf, kolmogorov_sf
from .errors import InsufficientDataError, ShapeError, ValidationError

VERDICT_REJECTED = "rejected"
VERDICT_NOT_REJECTED = "not_rejected"
VERDICT_INSUFFICIENT = "insufficient"


@dataclass(frozen=True)
class ChristoffersenResult:
    """Coverage test statistics for one hit sequence."""

    n: int
    x: int
    n00: int
    n01: int
    n10: int
    n11: int
    pi01: float
    pi11: float
    pi2: float
    lr_uc: float
    lr_ind: float
    lr_cc: float
    p_uc: float
    p_ind: float
    p_cc: float
    verdict: str


def hits(realized, var_series) -> np.ndarray:
    """Violation indicators hit_t = (r_t <= VaR_t) as a boolean array."""
    r = np.asarray(realized, dtype=float).ravel()
    v = np.asarray(var_series, dtype=float).ravel()
    if r.shape != v.shape:
        raise ShapeError(f"{r.size} realized returns but {v.size} VaR values")
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(v))):
        raise ValidationError("realized/VaR series contain non-finite entries")
    return r <= v


def _transitions(h, adjacent) -> tuple[int, int, int, int]:
    prev = h[:-1]
    cur = h[1:]
    if adjacent is not None:
        prev, cur = prev[adjacent], cur[adjacent]
    n00 = int(np.sum(~prev & ~cur))
    n01 = int(np.sum(~prev & cur))
    n10 = int(np.sum(prev & ~cur))
    n11 = int(np.sum(prev & cur))
    return n00, n01, n10, n11


def _xlogy(x, y) -> float:
    """x * ln y with 0 * ln 0 = 0 (the convention of scipy.special.xlogy)."""
    return 0.0 if x == 0 else x * math.log(y)


def christoffersen(hits, alpha: float, adjacent=None) -> ChristoffersenResult:
    """Unconditional-coverage, independence and combined LR tests.

    hits holds n >= 2 booleans at VaR level alpha. adjacent[t] says whether
    observations t and t + 1 fall on adjacent days (None: all do); only
    those pairs count as transitions, and with none LR_ind is 0.

    LR_uc and LR_ind are chi-squared with 1 degree of freedom and LR_cc
    with 2, by construction (Christoffersen 1998). The verdict is "rejected"
    when min(p_uc, p_ind) < 0.01, a fixed level; the combined statistic is
    reported but does not join the verdict.
    """
    h = np.asarray(hits)
    if h.dtype != bool or h.ndim != 1:
        raise ValidationError("hits must be a 1-D boolean array")
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    n, x = h.size, int(h.sum())
    if n < 2:
        raise InsufficientDataError(f"independence statistics need n >= 2 days, got {n}")
    if adjacent is not None:
        adjacent = np.asarray(adjacent)
        if adjacent.dtype != bool or adjacent.shape != (n - 1,):
            raise ShapeError(f"adjacent must be n - 1 = {n - 1} booleans, "
                             f"got dtype {adjacent.dtype} shape {adjacent.shape}")

    phat = x / n
    lr_uc = -2.0 * (_xlogy(n - x, 1.0 - alpha) + _xlogy(x, alpha)) + 2.0 * (
        _xlogy(n - x, 1.0 - phat) + _xlogy(x, phat)
    )
    lr_uc = max(float(lr_uc), 0.0)

    n00, n01, n10, n11 = _transitions(h, adjacent)
    pairs = n00 + n01 + n10 + n11
    pi01 = n01 / (n00 + n01) if n00 + n01 > 0 else 0.0
    pi11 = n11 / (n10 + n11) if n10 + n11 > 0 else 0.0
    pi2 = (n01 + n11) / pairs if pairs > 0 else 0.0
    log_l0 = _xlogy(n00 + n10, 1.0 - pi2) + _xlogy(n01 + n11, pi2)
    log_l1 = (
        _xlogy(n00, 1.0 - pi01)
        + _xlogy(n01, pi01)
        + _xlogy(n10, 1.0 - pi11)
        + _xlogy(n11, pi11)
    )
    lr_ind = max(float(2.0 * (log_l1 - log_l0)), 0.0)
    lr_cc = lr_uc + lr_ind

    p_uc = chi2_sf(lr_uc, 1)
    p_ind = chi2_sf(lr_ind, 1)
    p_cc = chi2_sf(lr_cc, 2)
    verdict = (
        VERDICT_REJECTED
        if min(p_uc, p_ind) < 0.01
        else VERDICT_NOT_REJECTED
    )
    return ChristoffersenResult(
        n=n,
        x=x,
        n00=n00,
        n01=n01,
        n10=n10,
        n11=n11,
        pi01=pi01,
        pi11=pi11,
        pi2=pi2,
        lr_uc=lr_uc,
        lr_ind=lr_ind,
        lr_cc=lr_cc,
        p_uc=p_uc,
        p_ind=p_ind,
        p_cc=p_cc,
        verdict=verdict,
    )


def quadratic_loss(realized, var_series) -> float:
    """Mean quadratic loss; only violation days contribute, 1 + gap^2 each."""
    r = np.asarray(realized, dtype=float).ravel()
    v = np.asarray(var_series, dtype=float).ravel()
    if r.shape != v.shape:
        raise ShapeError(f"{r.size} realized returns but {v.size} VaR values")
    if r.size == 0:
        raise InsufficientDataError("empty realized series")
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(v))):
        raise ValidationError("realized/VaR series contain non-finite entries")
    gap = r - v
    return float(np.where(r <= v, 1.0 + gap * gap, 0.0).mean())


def ks_test(samples, cdf) -> tuple[float, float]:
    """One-sample Kolmogorov-Smirnov test against a model CDF callable.

    Returns (ks_stat, ks_pvalue): D_n = max(D+, D-) over the order
    statistics, with the p-value from the asymptotic Kolmogorov distribution
    of sqrt(n) D_n. The callable must be a proper CDF on the sample range:
    values in [0, 1] within 1e-9, non-decreasing.
    """
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    n = x.size
    if n < 1:
        raise InsufficientDataError("KS test needs at least one sample")
    if not np.all(np.isfinite(x)):
        raise ValidationError("samples contain non-finite entries")
    f = np.asarray(cdf(x), dtype=float)
    if f.shape != x.shape:
        raise ValidationError(
            f"cdf returned shape {f.shape} for {n} points"
        )
    if not np.all(np.isfinite(f)):
        raise ValidationError("cdf returned non-finite values")
    if np.any(f < -1e-9) or np.any(f > 1.0 + 1e-9):
        raise ValidationError("cdf values fall outside [0, 1]")
    if np.any(np.diff(f) < -1e-12):
        raise ValidationError("cdf callable is not non-decreasing on the sample")
    i = np.arange(1, n + 1)
    d_plus = float(np.max(i / n - f))
    d_minus = float(np.max(f - (i - 1) / n))
    d = max(d_plus, d_minus, 0.0)
    return d, kolmogorov_sf(np.sqrt(n) * d)


@dataclass(frozen=True, eq=False)
class BacktestReport:
    """Backtest outcome for one (model, target, level): x violations in n days."""

    model_tag: str
    ticker: str
    alpha: float
    n: int
    x: int
    christoffersen: ChristoffersenResult | None
    loss: float

    CSV_HEADER = (
        "model_tag,ticker,alpha,n,x,lr_uc,p_uc,lr_ind,p_ind,lr_cc,p_cc,"
        "quadratic_loss,verdict"
    )

    @property
    def verdict(self) -> str:
        if self.christoffersen is None:
            return VERDICT_INSUFFICIENT
        return self.christoffersen.verdict

    def to_csv_row(self) -> list[str]:
        c = self.christoffersen
        stats = (
            ["", "", "", "", "", ""]
            if c is None
            else [
                repr(c.lr_uc),
                repr(c.p_uc),
                repr(c.lr_ind),
                repr(c.p_ind),
                repr(c.lr_cc),
                repr(c.p_cc),
            ]
        )
        return [
            self.model_tag,
            self.ticker,
            repr(self.alpha),
            str(self.n),
            str(self.x),
            *stats,
            repr(self.loss),
            self.verdict,
        ]
