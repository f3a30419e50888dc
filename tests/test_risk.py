"""Quantile estimation, VaR/ES extraction, portfolio specs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskengine import PortfolioSpec, var_es_columns
from riskengine.errors import (
    InsufficientDataError,
    ShapeError,
    TailEmptyError,
    ValidationError,
)

from conftest import _reference_var_es


def test_quantile_interpolation_oracle():
    # order statistics 1..100: g = 0.05 * 99 = 4.95 between the 5th and 6th
    x = np.arange(1.0, 101.0)
    var = var_es_columns(x[:, None], (0.05, 0.5))[0]
    np.testing.assert_allclose(var, [[5.95, 50.5]], rtol=1e-14)


def test_quantile_matches_numpy_linear():
    rng = np.random.default_rng(14)
    for _ in range(50):
        n = int(rng.integers(2, 400))
        x = rng.normal(0, 1, n)
        a = float(rng.uniform(1.0 / n, 0.999))  # ceil(1/a) <= n scenarios
        assert var_es_columns(x[:, None], (a,))[0][0, 0] == pytest.approx(
            float(np.quantile(x, a, method="linear")), rel=1e-12, abs=1e-15
        )


def test_quantile_input_order_irrelevant():
    x = np.array([5.0, 1.0, 3.0, 2.0, 4.0])
    got, again = (var_es_columns(v[:, None], (0.25,)) for v in (x, np.sort(x)))
    assert [a.tobytes() for a in got] == [a.tobytes() for a in again]


def test_quantile_validation():
    with pytest.raises(InsufficientDataError):
        var_es_columns(np.array([[1.0]]), (0.5,))
    with pytest.raises(ValidationError):
        var_es_columns(np.array([[1.0], [2.0]]), (0.0,))
    with pytest.raises(ValidationError):
        var_es_columns(np.array([[1.0], [2.0]]), (1.0,))
    with pytest.raises(ValidationError):
        var_es_columns(np.array([[1.0], [np.nan]]), (0.5,))


def _one_column(x, alpha):
    """(var, es, n_tail) of a single series at one level, as floats and an int."""
    var, es, n_tail = var_es_columns(np.asarray(x, dtype=float)[:, None], (alpha,))
    return float(var[0, 0]), float(es[0, 0]), int(n_tail[0, 0])


def test_var_es_oracle_single_extreme_loss():
    var, es, n_tail = _one_column(np.concatenate([[-10.0], np.zeros(99)]), 0.01)
    assert var == pytest.approx(-0.1, rel=1e-12)
    assert es == pytest.approx(-10.0, rel=1e-14)
    assert n_tail == 1


def test_var_es_tail_inclusive_on_ties():
    assert _one_column(np.full(100, 5.0), 0.05) == (5.0, 5.0, 100)


def test_var_es_minimum_sample_size():
    # alpha = 0.01 needs at least ceil(1/alpha) = 100 scenarios
    with pytest.raises(InsufficientDataError):
        _one_column(np.zeros(99) - np.arange(99), 0.01)
    assert _one_column(np.arange(100.0), 0.01)[2] >= 1


def test_var_es_es_never_above_var():
    rng = np.random.default_rng(21)
    for _ in range(40):
        x = rng.standard_t(4, 500) * 0.02
        a = float(rng.uniform(0.01, 0.2))
        var, es, n_tail = _one_column(x, a)
        assert es <= var + 1e-15
        assert n_tail >= 1


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(100, 600),
    ratios=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=4),
    alphas=st.lists(st.sampled_from((0.01, 0.025, 0.05, 0.1, 0.25)),
                    min_size=1, max_size=3, unique=True),
)
@settings(max_examples=150, deadline=None)
def test_var_es_columns_positive_homogeneity(seed, n, ratios, alphas):
    # positive homogeneity, column by column: scaling each column's estimates
    # by its own volatility ratio, as the engine scales the gmm asset block,
    # equals estimating from the scaled scenarios, with the same tail counts
    x = np.random.default_rng(seed).normal(0.0, 0.01, (n, len(ratios)))
    r = np.array(ratios)
    var, es, n_tail = var_es_columns(x, alphas)
    direct = var_es_columns(x * r, alphas)
    tol = 1e-12 * (np.abs(x).max(axis=0) * r)[:, None]  # each scaled column's magnitude
    assert np.all(np.abs(var * r[:, None] - direct[0]) <= tol)
    assert np.all(np.abs(es * r[:, None] - direct[1]) <= tol)
    np.testing.assert_array_equal(n_tail, direct[2])


def _check_var_es_columns(H, alphas):
    """var and n_tail equal the full-sort reference bit for bit; es is the
    exact tail mean to within 4 n eps max|tail|, the rounding of any order
    of summing n terms."""
    var, es, n_tail = var_es_columns(H, alphas)
    assert var.shape == es.shape == n_tail.shape == (H.shape[1], len(alphas))
    assert n_tail.dtype == int
    eps = np.finfo(float).eps
    for c in range(H.shape[1]):
        for j, a in enumerate(alphas):
            v, tail, n = _reference_var_es(H[:, c], a)
            assert (var[c, j], n_tail[c, j]) == (v, n)
            exact = math.fsum(tail) / n
            assert abs(es[c, j] - exact) <= 4 * n * eps * np.max(np.abs(tail))


@st.composite
def sample_matrices(draw):
    """(matrix, alphas): 1-3 alphas, enough rows for each, 1-6 columns.

    Rounding to a few decimals makes ties, and one column may be constant.
    """
    alphas = draw(st.lists(st.floats(0.005, 0.6), min_size=1, max_size=3, unique=True))
    need = max(int(np.ceil(1.0 / a)) for a in alphas)
    n = draw(st.integers(need, need + 400))
    cols = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    H = rng.normal(0.0, 10.0 ** draw(st.floats(-4.0, 1.0)), (n, cols))
    decimals = draw(st.one_of(st.none(), st.integers(0, 4)))
    if decimals is not None:
        H = np.round(H * 10.0 ** 4, decimals)
    if draw(st.booleans()):
        H[:, draw(st.integers(0, cols - 1))] = draw(st.floats(-1.0, 1.0))
    return H, tuple(alphas)


@given(sample_matrices())
@settings(max_examples=150, deadline=None)
def test_var_es_columns_matches_per_column_reference_bit_for_bit(case):
    _check_var_es_columns(*case)



@given(sample_matrices())
@settings(max_examples=150, deadline=None)
def test_var_es_columns_reads_each_column_as_its_one_column_call(case):
    # the engine reads every sigma_short grid point's portfolio series in one
    # call, where a plain run reads its one series alone: each column's var,
    # es and n_tail are the same bits either way, also beside a tied or
    # constant column whose tail makes the call sort some columns in full
    H, alphas = case
    together = var_es_columns(H, alphas)
    for c in range(H.shape[1]):
        alone = var_es_columns(H[:, c : c + 1], alphas)
        assert [a[c : c + 1].tobytes() for a in together] == [a.tobytes() for a in alone], c


@given(sample_matrices(), st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=150, deadline=None)
def test_var_es_columns_ignores_row_order(case, seed, tied):
    # the mixture sampler leaves its rows grouped by component, so no estimate
    # may read the row order: var, es and n_tail are the same bits for every
    # row permutation. Rounding to 3 decimals ties often enough, signed zeros
    # included, that columns take the full-sort spill path.
    H, alphas = case
    if tied:
        H = np.round(H, 3)
    shuffled = H[np.random.default_rng(seed).permutation(len(H))]
    got, again = var_es_columns(H, alphas), var_es_columns(shuffled, alphas)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in again]


def _tie_run_past_the_sorted_ranks():
    # alpha 0.05 at 100 rows reads ranks 4 and 5; ranks 3..22 of column 0
    # tie at -1, so its tail runs 17 ranks past the sorted head
    rng = np.random.default_rng(4)
    tied = np.concatenate([[-3.0, -2.0, -1.5], np.full(20, -1.0), np.arange(77.0)])
    return np.column_stack([rng.permutation(tied), rng.normal(size=100)]), (0.05,)


def _signed_zeros():
    rng = np.random.default_rng(5)
    x = np.concatenate([np.tile([-0.0, 0.0], 30), rng.uniform(1.0, 2.0, 40)])
    return np.column_stack([rng.permutation(x), rng.permutation(-x)]), (0.05, 0.5)


@pytest.mark.parametrize("case", [
    _tie_run_past_the_sorted_ranks(),
    _signed_zeros(),
    # a constant column beside a random one, read at two levels
    (np.column_stack([np.full(120, 0.3), np.random.default_rng(6).normal(size=120)]),
     (0.01, 0.05)),
    # the largest alpha below 1 reads the two largest ranks: no partition,
    # a full sort (alpha * (m - 1) never rounds up to m - 1)
    (np.random.default_rng(7).normal(size=(2, 3)), (np.nextafter(1.0, 0.0),)),
    (np.random.default_rng(8).normal(size=(1025, 2)), (np.nextafter(1.0, 0.0), 0.01)),
], ids=["tie-run", "signed-zeros", "constant-column", "max-alpha-2-rows", "max-alpha-1025-rows"])
def test_var_es_columns_edge_cases(case):
    _check_var_es_columns(*case)


def test_var_es_columns_tail_runs_past_the_sorted_ranks():
    H, alphas = _tie_run_past_the_sorted_ranks()
    var, es, n_tail = var_es_columns(H, alphas)
    assert var[0, 0] == -1.0 and n_tail[0, 0] == 23
    assert es[0, 0] == pytest.approx((-3.0 - 2.0 - 1.5 - 20.0) / 23, rel=1e-15)


def test_var_es_columns_overflowing_quantile_has_an_empty_tail():
    # a gap of 2e308 between the ranks read overflows to inf, and 0 * inf
    # makes the VaR nan, below which no scenario lies
    H = np.array([[-1e308], [-1e308], [1e308]])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TailEmptyError):
        var_es_columns(H, (0.5,))


@pytest.mark.parametrize("n, windows", [(201, 20_000), (3001, 2_000)])
def test_var_es_columns_coverage_is_that_of_type_7(n, windows):
    # at an integer rank h = alpha (n - 1) the type-7 VaR of a window is its
    # order statistic h + 1, so for any continuous returns the chance that
    # the next one falls below it is (h + 1) / (n + 1), not alpha: 1.485%
    # and 5.446% at n = 201. For U(0, 1) returns that chance is the VaR
    # itself, so the mean VaR over i.i.d. windows estimates the coverage.
    u = np.random.default_rng(0).random((n, windows))
    var = var_es_columns(u, (0.01, 0.05))[0]
    for a, alpha in enumerate((0.01, 0.05)):
        h = round(alpha * (n - 1))
        coverage, se = var[:, a].mean(), var[:, a].std() / math.sqrt(windows)
        assert abs(coverage - (h + 1) / (n + 1)) < 4 * se, (alpha, coverage)
        if n == 201:
            assert coverage - alpha > 20 * se


def test_var_es_columns_validation():
    H = np.random.default_rng(1).normal(size=(50, 2))
    with pytest.raises(ShapeError):
        var_es_columns(H[:, 0], (0.05,))
    with pytest.raises(InsufficientDataError, match="alpha=0.01, got 50"):
        var_es_columns(H, (0.05, 0.01))
    with pytest.raises(ValidationError, match="alpha must be in"):
        var_es_columns(H, (1.5,))
    H[7, 1] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        var_es_columns(H, (0.05,))


def test_portfolio_spec_equal_weights():
    p = PortfolioSpec.equal(("A", "B", "C", "D"))
    np.testing.assert_allclose(p.weights, 0.25, rtol=1e-15)
    assert p.tickers == ("A", "B", "C", "D")
    with pytest.raises(ValueError):
        p.weights[0] = 1.0


def test_portfolio_spec_validation():
    with pytest.raises(ValidationError):
        PortfolioSpec(tickers=("A", "B"), weights=np.array([0.6, 0.6]))
    with pytest.raises(ValidationError):
        PortfolioSpec(tickers=("A", "A"), weights=np.array([0.5, 0.5]))
    with pytest.raises(ShapeError):
        PortfolioSpec(tickers=("A", "B"), weights=np.array([1.0]))
