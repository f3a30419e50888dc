"""Violation counting, coverage/independence statistics, loss and the KS test."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskengine import (
    BacktestReport,
    christoffersen,
    hits,
    ks_test,
    quadratic_loss,
)
from riskengine.backtest import (
    VERDICT_INSUFFICIENT,
    VERDICT_NOT_REJECTED,
    VERDICT_REJECTED,
)
from riskengine.distributions import normal_cdf
from riskengine.errors import InsufficientDataError, ShapeError, ValidationError

# violations cluster in this sequence: 6 hits in 20 days, two adjacent pairs
HAND_HITS = np.array(
    [0, 0, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1], dtype=bool
)


def test_hits_inclusive_comparison():
    realized = np.array([-0.05, 0.01, -0.02])
    var_series = np.array([-0.03, -0.03, -0.02])
    h = hits(realized, var_series)
    assert h.dtype == bool
    np.testing.assert_array_equal(h, [True, False, True])


def test_hits_shape_mismatch():
    with pytest.raises(ShapeError):
        hits(np.zeros(3), np.zeros(4))


def test_christoffersen_input_validation():
    with pytest.raises(ValidationError):
        christoffersen(np.array([1, 0, 1]), 0.05)  # ints, not bools
    with pytest.raises(ValidationError):
        christoffersen(np.ones((2, 2), dtype=bool), 0.05)  # not 1-D
    with pytest.raises(InsufficientDataError):
        christoffersen(np.array([], dtype=bool), 0.05)
    with pytest.raises(ValidationError):
        christoffersen(np.array([True]), 1.5)


def test_christoffersen_hand_oracle():
    res = christoffersen(HAND_HITS, 0.05)
    assert (res.n, res.x) == (20, 6)
    assert (res.n00, res.n01, res.n10, res.n11) == (10, 4, 3, 2)
    assert res.pi01 == pytest.approx(0.28571428571428571, rel=1e-14)
    assert res.pi11 == pytest.approx(0.4, rel=1e-14)
    assert res.pi2 == pytest.approx(0.31578947368421053, rel=1e-14)
    assert res.lr_uc == pytest.approx(12.950427443303568, rel=1e-12)
    assert res.lr_ind == pytest.approx(0.2172191331083554, rel=1e-11)
    assert res.lr_cc == pytest.approx(13.167646576411924, rel=1e-12)
    assert res.p_uc == pytest.approx(0.00031984845573575401, rel=1e-11)
    assert res.p_ind == pytest.approx(0.64116701771101375, rel=1e-11)
    assert res.p_cc == pytest.approx(0.0013825532775467742, rel=1e-11)
    assert res.verdict == VERDICT_REJECTED  # coverage badly violated


def test_christoffersen_exact_coverage_zero_statistic():
    h = np.zeros(40, dtype=bool)
    h[[10, 30]] = True  # 2 hits in 40 days at alpha = 0.05
    res = christoffersen(h, 0.05)
    assert res.lr_uc == 0.0
    assert res.p_uc == 1.0
    assert res.verdict == VERDICT_NOT_REJECTED


def test_christoffersen_no_hits():
    res = christoffersen(np.zeros(30, dtype=bool), 0.05)
    assert res.x == 0
    assert res.lr_uc == pytest.approx(3.077597663253032, rel=1e-12)
    assert res.p_uc == pytest.approx(0.079377691816641746, rel=1e-11)
    # degenerate transition table: no independence evidence at all
    assert res.pi01 == 0.0 and res.pi11 == 0.0
    assert res.lr_ind == 0.0
    assert res.p_ind == 1.0
    assert res.verdict == VERDICT_NOT_REJECTED


def test_christoffersen_all_hits():
    res = christoffersen(np.ones(10, dtype=bool), 0.05)
    assert res.lr_uc == pytest.approx(-2 * 10 * np.log(0.05), rel=1e-12)
    assert res.lr_ind == 0.0
    assert res.verdict == VERDICT_REJECTED


def test_christoffersen_needs_two_days():
    with pytest.raises(InsufficientDataError):
        christoffersen(np.array([True]), 0.05)


def test_christoffersen_matches_direct_formula_random():
    import math

    import scipy.stats

    rng = np.random.default_rng(17)
    for _ in range(20):
        a = float(rng.choice([0.01, 0.05]))
        h = rng.random(200) < a * rng.uniform(0.5, 2.0)
        if h.sum() == 0:
            h[5] = True
        res = christoffersen(h, a)

        n, x = len(h), int(h.sum())
        pi = x / n

        def xl(c, v):
            return 0.0 if c == 0 else c * math.log(v)

        lr_uc = -2 * (xl(n - x, 1 - a) + xl(x, a) - xl(n - x, 1 - pi) - xl(x, pi))
        n00 = n01 = n10 = n11 = 0
        for i in range(1, n):
            if h[i - 1]:
                n11, n10 = n11 + h[i], n10 + (not h[i])
            else:
                n01, n00 = n01 + h[i], n00 + (not h[i])
        pi01 = n01 / (n00 + n01) if n00 + n01 else 0.0
        pi11 = n11 / (n10 + n11) if n10 + n11 else 0.0
        pi2 = (n01 + n11) / (n - 1)
        l0 = xl(n00 + n10, 1 - pi2) + xl(n01 + n11, pi2)
        l1 = xl(n00, 1 - pi01) + xl(n01, pi01) + xl(n10, 1 - pi11) + xl(n11, pi11)
        lr_ind = max(-2 * (l0 - l1), 0.0)

        assert res.lr_uc == pytest.approx(max(lr_uc, 0.0), abs=1e-9)
        assert res.lr_ind == pytest.approx(lr_ind, abs=1e-9)
        assert res.p_uc == pytest.approx(scipy.stats.chi2.sf(res.lr_uc, 1), rel=1e-9)
        assert res.p_cc == pytest.approx(scipy.stats.chi2.sf(res.lr_cc, 2), rel=1e-9)


def _christoffersen_lr_with_scipy_xlogy(h, p, adjacent):
    """LR_uc, LR_ind and LR_cc in christoffersen's order of operations, on xlogy."""
    from scipy.special import xlogy

    from riskengine.backtest import _transitions

    n, x = h.size, int(h.sum())
    phat = x / n
    lr_uc = -2.0 * (xlogy(n - x, 1.0 - p) + xlogy(x, p)) + 2.0 * (
        xlogy(n - x, 1.0 - phat) + xlogy(x, phat)
    )
    lr_uc = max(float(lr_uc), 0.0)
    n00, n01, n10, n11 = _transitions(h, adjacent)
    pairs = n00 + n01 + n10 + n11
    pi01 = n01 / (n00 + n01) if n00 + n01 > 0 else 0.0
    pi11 = n11 / (n10 + n11) if n10 + n11 > 0 else 0.0
    pi2 = (n01 + n11) / pairs if pairs > 0 else 0.0
    log_l0 = xlogy(n00 + n10, 1.0 - pi2) + xlogy(n01 + n11, pi2)
    log_l1 = (
        xlogy(n00, 1.0 - pi01) + xlogy(n01, pi01)
        + xlogy(n10, 1.0 - pi11) + xlogy(n11, pi11)
    )
    lr_ind = max(float(2.0 * (log_l1 - log_l0)), 0.0)
    return lr_uc, lr_ind, lr_uc + lr_ind


def test_christoffersen_lr_statistics_match_scipy_xlogy_bit_for_bit():
    rng = np.random.default_rng(23)
    for _ in range(400):
        n = int(rng.integers(2, 400))
        a = float(rng.choice([0.01, 0.025, 0.05, 0.1]))
        h = rng.random(n) < a * rng.choice([0.0, 0.5, 1.0, 3.0, 30.0])
        adjacent = rng.random(n - 1) < 0.9 if rng.random() < 0.3 else None
        res = christoffersen(h, a, adjacent)
        assert (res.lr_uc, res.lr_ind, res.lr_cc) == _christoffersen_lr_with_scipy_xlogy(h, a, adjacent)


def test_christoffersen_counts_no_transition_across_a_gap():
    # days 0..2 and 3..6 with a dropped day between them: the (T, T) pair of
    # observations 2 and 3 straddles the gap and must not count as n11
    h = np.array([False, True, True, True, False, False, True])
    adjacent = np.array([True, True, False, True, True, True])
    res = christoffersen(h, 0.05, adjacent)
    # pairs: (F,T) (T,T) | (T,F) (F,F) (F,T)
    assert (res.n00, res.n01, res.n10, res.n11) == (1, 2, 1, 1)
    assert res.pi01 == 2 / 3
    assert res.pi11 == 1 / 2
    assert res.pi2 == 3 / 5  # (n01 + n11) over the 5 counted pairs
    gapless = christoffersen(h, 0.05)
    assert (gapless.n00, gapless.n01, gapless.n10, gapless.n11) == (1, 2, 1, 2)
    assert gapless.pi2 == 4 / 6
    assert res.lr_uc == gapless.lr_uc  # coverage ignores the gap


def test_christoffersen_all_adjacent_mask_matches_no_mask():
    h = np.random.default_rng(3).random(120) < 0.08
    plain = christoffersen(h, 0.05)
    masked = christoffersen(h, 0.05, np.ones(119, dtype=bool))
    assert plain == masked


@st.composite
def _hit_inputs(draw):
    n = draw(st.integers(2, 400))
    h = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    alpha = draw(st.floats(1e-4, 1 - 1e-4))
    adjacent = draw(st.none() | st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    return h, alpha, None if adjacent is None else np.array(adjacent, dtype=bool)


@settings(max_examples=300, deadline=None)
@given(_hit_inputs())
def test_christoffersen_result_invariants(inputs):
    h, alpha, adjacent = inputs
    res = christoffersen(h, alpha, adjacent)
    gaps = 0 if adjacent is None else int((~adjacent).sum())
    counts = (res.n00, res.n01, res.n10, res.n11)
    assert min(counts) >= 0 and sum(counts) == h.size - 1 - gaps
    assert (res.n, res.x) == (h.size, int(h.sum()))
    for v in (res.pi01, res.pi11, res.pi2, res.p_uc, res.p_ind, res.p_cc):
        assert 0.0 <= v <= 1.0
    assert res.lr_uc >= 0.0 and res.lr_ind >= 0.0 and res.lr_cc >= 0.0
    assert res.lr_cc == res.lr_uc + res.lr_ind
    assert (res.verdict == VERDICT_REJECTED) == (min(res.p_uc, res.p_ind) < 0.01)
    assert res.verdict in (VERDICT_REJECTED, VERDICT_NOT_REJECTED)


def test_christoffersen_rejects_bad_adjacency_mask():
    h = np.array([False, True, False])
    with pytest.raises(ShapeError):
        christoffersen(h, 0.05, np.array([True]))
    with pytest.raises(ShapeError):
        christoffersen(h, 0.05, np.array([1, 1]))


def test_quadratic_loss_oracle():
    realized = np.array([-0.05, 0.01, -0.02, 0.0, -0.08])
    var_series = np.array([-0.03, -0.03, -0.02, -0.01, -0.04])
    # per day 1.0004, 0, 1, 0 and 1.0016: only the violation days score
    loss = quadratic_loss(realized, var_series)
    assert type(loss) is float
    assert loss == pytest.approx(0.6004, rel=1e-12)


def test_quadratic_loss_no_violations():
    assert quadratic_loss(np.array([0.01, 0.02]), np.array([-0.05, -0.05])) == 0.0


def test_ks_single_point_oracle():
    stat, p = ks_test(np.array([0.0]), normal_cdf)
    assert stat == pytest.approx(0.5, rel=1e-14)
    assert p == pytest.approx(0.96394524366487509, rel=1e-12)


def test_ks_four_point_oracle():
    stat, p = ks_test(np.array([-1.5, -0.2, 0.3, 1.1]), normal_cdf)
    assert stat == pytest.approx(0.18319279873114193, rel=1e-13)
    assert p == pytest.approx(0.99930204923441167, rel=1e-12)


def test_ks_matches_scipy_asymptotic():
    import scipy.stats

    rng = np.random.default_rng(23)
    for n in (50, 400, 1000):
        s = rng.normal(0, 1, n)
        stat, p = ks_test(s, normal_cdf)
        ref = scipy.stats.kstest(s, "norm", mode="asymp")
        assert stat == pytest.approx(ref.statistic, rel=1e-12)
        assert p == pytest.approx(ref.pvalue, rel=1e-9)


def test_ks_rejects_broken_cdf():
    s = np.linspace(-1, 1, 20)
    with pytest.raises(ValidationError):
        ks_test(s, lambda x: np.full_like(np.asarray(x, dtype=float), 2.0))
    with pytest.raises(ValidationError):
        ks_test(s, lambda x: -np.asarray(x, dtype=float))  # decreasing


def test_ks_accepts_cdf_within_its_tolerance():
    # a CDF may dip 1e-9 below 0; D_n then exceeds 1 by as much, and the
    # result is returned, not rejected
    stat, p = ks_test(np.array([0.0]), lambda x: np.full_like(x, -5e-10))
    assert stat == pytest.approx(1.0, abs=1e-9)
    assert 0.0 <= p <= 1.0


def test_backtest_report_csv_row():
    res = christoffersen(HAND_HITS, 0.05)
    loss = quadratic_loss(np.zeros(20) - HAND_HITS * 0.02, np.full(20, -0.01))
    rep = BacktestReport(
        model_tag="gmm3", ticker="AAA", alpha=0.05,
        n=20, x=6, christoffersen=res, loss=loss,
    )
    fields = rep.to_csv_row()
    assert fields[0] == "gmm3"
    assert fields[1] == "AAA"
    assert int(fields[3]) == 20 and int(fields[4]) == 6
    assert float(fields[5]) == res.lr_uc
    assert fields[12] == VERDICT_REJECTED
    assert len(fields) == len(BacktestReport.CSV_HEADER.split(","))


def test_backtest_report_without_statistics():
    loss = quadratic_loss(np.array([-0.02, 0.0]), np.array([-0.01, -0.01]))
    rep = BacktestReport(
        model_tag="hs", ticker="B", alpha=0.05,
        n=2, x=1, christoffersen=None, loss=loss,
    )
    fields = rep.to_csv_row()
    assert fields[5] == "" and fields[10] == ""
    assert rep.verdict == VERDICT_INSUFFICIENT
