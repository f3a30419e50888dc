"""Scalar distribution helpers against high-precision reference values.

The package computes these on the standard library alone; scipy.special is
the test-only reference for the accuracy contracts in the module docstring.
"""

import math

import numpy as np
import pytest
from scipy import special

from riskengine.distributions import (
    chi2_sf,
    kolmogorov_sf,
    normal_cdf,
    normal_pdf,
    normal_ppf,
)
from riskengine.errors import ValidationError


def test_normal_pdf_reference():
    assert normal_pdf(0.0) == pytest.approx(0.3989422804014327, rel=1e-15)
    assert normal_pdf(1.3) == pytest.approx(0.17136859204780736, rel=1e-14)


def test_normal_cdf_reference():
    assert normal_cdf(0.0) == pytest.approx(0.5, rel=1e-15)
    assert normal_cdf(0.7) == pytest.approx(0.75803634777692699, rel=1e-14)


def test_normal_ppf_reference():
    assert normal_ppf(0.05) == pytest.approx(-1.6448536269514727, rel=1e-14)
    assert normal_ppf(0.01) == pytest.approx(-2.3263478740408411, rel=1e-14)
    assert normal_ppf(0.5) == pytest.approx(0.0, abs=1e-15)


def test_ppf_cdf_round_trip():
    for p in (0.001, 0.2, 0.5, 0.8, 0.999):
        assert normal_cdf(normal_ppf(p)) == pytest.approx(p, rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
def test_normal_ppf_domain(bad):
    with pytest.raises(ValidationError):
        normal_ppf(bad)


def test_chi2_sf_reference():
    assert chi2_sf(0.53125, 2) == pytest.approx(0.76672659607082008, rel=1e-14)
    assert chi2_sf(3.2, 1) == pytest.approx(0.073638270120302654, rel=1e-13)
    assert chi2_sf(5.0, 2) == pytest.approx(0.082084998623898795, rel=1e-13)


def test_chi2_sf_below_zero_is_one():
    # survival of a nonnegative statistic left of the support
    assert chi2_sf(-1.0, 1) == 1.0
    assert chi2_sf(0.0, 2) == 1.0


def test_kolmogorov_sf_reference():
    assert kolmogorov_sf(0.5) == pytest.approx(0.96394524366487509, rel=1e-13)
    assert kolmogorov_sf(1.0) == pytest.approx(0.26999967167735452, rel=1e-13)


def test_array_inputs_vectorize():
    x = np.array([-1.0, 0.0, 2.0])
    pdf = normal_pdf(x)
    cdf = normal_cdf(x)
    assert pdf.shape == x.shape and cdf.shape == x.shape
    assert np.all(np.diff(cdf) > 0)
    assert pdf[0] == pytest.approx(pdf[0])


def test_cdf_pdf_consistency_numerical():
    # central difference of the cdf approximates the pdf
    h = 1e-6
    for x in (-1.5, 0.3, 2.0):
        deriv = (normal_cdf(x + h) - normal_cdf(x - h)) / (2 * h)
        assert deriv == pytest.approx(normal_pdf(x), rel=1e-8)


def test_normal_cdf_matches_scipy():
    x = np.linspace(-37.0, 8.0, 45001)
    ref = special.ndtr(x)
    assert np.max(np.abs(normal_cdf(x) - ref) / ref) <= 1e-12


def test_normal_ppf_matches_scipy():
    n = 2001
    p = np.concatenate(
        [np.logspace(-300, -1, n), np.linspace(0.1, 0.9, n), 1.0 - np.logspace(-15, -1, n)]
    )
    ref = special.ndtri(p)
    got = np.array([normal_ppf(float(v)) for v in p])
    nz = ref != 0.0  # p = 0.5; test_normal_ppf_reference covers it
    assert np.max(np.abs(got[nz] - ref[nz]) / np.abs(ref[nz])) <= 1e-15


def test_chi2_sf_matches_scipy_for_integer_df():
    x = np.concatenate([np.logspace(-8, 0, 200), np.linspace(0.0, 400.0, 1601)[1:]])
    for df in (1, 2):
        ref = special.gammaincc(df / 2.0, x / 2.0)
        got = np.array([chi2_sf(float(v), df) for v in x])
        assert np.max(np.abs(got - ref) / ref) <= 1e-13, df


def test_chi2_sf_is_the_closed_forms():
    # df 1: erfc(sqrt(x/2)); df 2: exp(-x/2); both reach 0 at inf
    for x in (1e-300, 1e-8, 0.5, 3.2, 50.0, 700.0, 1500.0, math.inf):
        assert chi2_sf(x, 1) == math.erfc(math.sqrt(0.5 * x))
        assert chi2_sf(x, 2) == math.exp(-0.5 * x)
    assert chi2_sf(math.inf, 1) == 0.0 and chi2_sf(math.inf, 2) == 0.0


@pytest.mark.parametrize("bad", [1.5, 0, -2, float("nan"), float("inf")])
def test_chi2_sf_needs_positive_integer_df(bad):
    with pytest.raises(ValidationError):
        chi2_sf(3.0, bad)


@pytest.mark.parametrize("df", [3, 4, 40])
def test_chi2_sf_takes_df_1_or_2_only(df):
    # the backtest reads df 1 (LR_uc, LR_ind) and df 2 (LR_cc) alone
    with pytest.raises(ValidationError, match="1 or 2"):
        chi2_sf(3.0, df)


def test_kolmogorov_sf_matches_scipy():
    y = np.linspace(0.0, 6.0, 60001)[1:]
    ref = special.kolmogorov(y)
    got = np.array([kolmogorov_sf(float(v)) for v in y])
    assert np.max(np.abs(got - ref)) <= 1e-14
    assert kolmogorov_sf(0.0) == 1.0


def test_scalar_results_are_python_floats():
    # report CSVs write repr(value): a numpy scalar would print as np.float64(...)
    for value in (chi2_sf(np.float64(3.2), 1), kolmogorov_sf(np.float64(0.7)),
                  kolmogorov_sf(np.float64(1.3)), normal_ppf(np.float64(0.05)),
                  normal_cdf(np.float64(0.3))):
        assert type(value) is float
