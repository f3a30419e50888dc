"""Reference distribution functions used by estimators and test statistics.

The one audited place for tail probabilities, built on the standard
library's math and statistics modules so the package imports nothing beyond
numpy. Accuracy contracts, checked against scipy.special in the test suite:

- normal_cdf within 1e-12 relative on x in [-37, 8];
- normal_ppf within 1e-15 relative on a regular grid of p in
  [1e-300, 1 - 1e-15]. It and ndtri each lie within 6e-16 of a 40-digit
  quantile, so at other p the two can differ by up to 1.1e-15;
- chi2_sf, the regularized upper incomplete gamma Q(df/2, x/2), within
  1e-13 relative for df 1 and 2, the only df it takes, and x <= 400;
- kolmogorov_sf within 1e-14 absolute on y in (0, 6].
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from .errors import ValidationError

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_STANDARD_NORMAL = NormalDist()
_erfc = np.frompyfunc(math.erfc, 1, 1)


def normal_pdf(x):
    """Standard normal density phi(x)."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / _SQRT_2PI
    return float(out) if out.ndim == 0 else out


def normal_cdf(x):
    """Standard normal CDF Phi(x) = erfc(-x / sqrt 2) / 2."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * np.asarray(_erfc(x * -math.sqrt(0.5)), dtype=float)
    return float(out) if out.ndim == 0 else out


def normal_ppf(p: float) -> float:
    """Inverse standard normal CDF; p must lie strictly inside (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValidationError(f"quantile level must be in (0, 1), got {p}")
    return _STANDARD_NORMAL.inv_cdf(p)


def chi2_sf(x: float, df: int) -> float:
    """Chi-square survival function P(X > x) at df 1 or 2, the LR tests' df.

    Closed forms of Q(df/2, x/2): erfc(sqrt(x/2)) for df 1 and exp(-x/2)
    for df 2. Any other df is a ValidationError.
    """
    if df not in (1, 2):
        raise ValidationError(f"degrees of freedom must be 1 or 2, got {df}")
    if x <= 0:
        return 1.0
    return math.erfc(math.sqrt(0.5 * x)) if df == 1 else math.exp(-0.5 * x)


def kolmogorov_sf(y: float) -> float:
    """Asymptotic Kolmogorov distribution survival function.

    P(sqrt(n) * D_n > y) in the large-n limit. Below y = 1 it is
    1 - sqrt(2 pi) / y * sum_{k>=1} exp(-(2k-1)^2 pi^2 / (8 y^2)), above
    it 2 * sum_{k>=1} (-1)^(k-1) exp(-2 k^2 y^2); each series needs a few
    terms on its side.
    """
    if y < 0:
        raise ValidationError(f"KS scaled statistic must be >= 0, got {y}")
    if y < 0.1:  # 1 - sf < 1e-50 rounds away, and the series divides by y
        return 1.0
    y = float(y)
    if y < 1.0:
        c = -(math.pi * math.pi) / (8.0 * y * y)
        total = 0.0
        for k in range(1, 8):
            total += math.exp((2 * k - 1) ** 2 * c)
        return 1.0 - _SQRT_2PI / y * total
    total = 0.0
    for k in range(1, 8):
        total += (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * y * y)
    return 2.0 * total
