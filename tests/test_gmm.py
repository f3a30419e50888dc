"""Mixture model container, EM calibration, and stratified sampling."""

import collections
import json
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from riskengine import gmm as gmm_module
from riskengine import (
    GaussianMixtureModel,
    fit,
    log_likelihood,
    mixture_cdf,
    mixture_density,
    sample,
)
from riskengine.gmm import _floored, _kmeans_init, _stratified_counts
from riskengine.errors import (
    InsufficientDataError,
    ShapeError,
    ValidationError,
)

from conftest import random_mixture


def two_comp_2d():
    return GaussianMixtureModel(
        weights=np.array([0.6, 0.4]),
        means=np.array([[0.0, 0.0], [3.0, -1.0]]),
        covariances=np.array([np.eye(2), [[2.0, 0.5], [0.5, 1.0]]]),
    )


# ---------------------------------------------------------------- container


def test_model_properties_and_readonly():
    m = two_comp_2d()
    assert m.n_components == 2 and m.dim == 2
    with pytest.raises(ValueError):
        m.weights[0] = 0.5
    with pytest.raises(ValueError):
        m.covariances[0, 0, 0] = 9.0


def test_model_weight_simplex_enforced():
    with pytest.raises(ValidationError):
        GaussianMixtureModel(
            weights=np.array([0.6, 0.5]),
            means=np.zeros((2, 1)),
            covariances=np.ones((2, 1, 1)),
        )
    with pytest.raises(ValidationError):
        GaussianMixtureModel(
            weights=np.array([1.2, -0.2]),
            means=np.zeros((2, 1)),
            covariances=np.ones((2, 1, 1)),
        )


def test_model_rejects_asymmetric_covariance():
    cov = np.array([[[1.0, 0.3], [0.1, 1.0]]])
    with pytest.raises(ValidationError):
        GaussianMixtureModel(
            weights=np.array([1.0]), means=np.zeros((1, 2)), covariances=cov
        )


def test_model_rejects_non_positive_definite():
    cov = np.array([[[1.0, 2.0], [2.0, 1.0]]])  # eigenvalues 3, -1
    with pytest.raises(np.linalg.LinAlgError):
        GaussianMixtureModel(
            weights=np.array([1.0]), means=np.zeros((1, 2)), covariances=cov
        )


def test_model_shape_mismatch():
    with pytest.raises(ShapeError):
        GaussianMixtureModel(
            weights=np.array([0.5, 0.5]),
            means=np.zeros((2, 2)),
            covariances=np.stack([np.eye(3)] * 2),
        )


def test_model_json_round_trip():
    # a run checkpoint, models/<tag>.json, is to_dict written as JSON
    payload = json.loads(json.dumps(two_comp_2d().to_dict(), sort_keys=True))
    assert payload == {
        "dim": 2,
        "weights": [0.6, 0.4],
        "means": [[0.0, 0.0], [3.0, -1.0]],
        "covariances": [[[1.0, 0.0], [0.0, 1.0]], [[2.0, 0.5], [0.5, 1.0]]],
    }


# ----------------------------------------------------------------- density


def _one_component(mean, cov):
    return GaussianMixtureModel(weights=np.ones(1), means=mean[None], covariances=cov[None])


def test_component_density_1d_standard_normal():
    model = _one_component(np.zeros(1), np.eye(1))
    assert mixture_density(model, [0.0])[0] == pytest.approx(0.3989422804014327, rel=1e-14)


def test_component_density_2d_reference():
    model = _one_component(np.array([0.5, -0.25]), np.array([[2.0, 0.6], [0.6, 1.0]]))
    val = mixture_density(model, np.array([[1.0, 0.5]]))
    assert val.shape == (1,)
    assert val[0] == pytest.approx(0.0937393348269034, rel=1e-13)


def test_component_density_matches_scipy():
    import scipy.stats

    rng = np.random.default_rng(7)
    for _ in range(20):
        dim = rng.integers(1, 5)
        a = rng.normal(size=(dim, dim))
        cov = a @ a.T + 0.5 * np.eye(dim)
        mean = rng.normal(size=dim)
        x = rng.normal(size=dim)
        ref = scipy.stats.multivariate_normal(mean=mean, cov=cov).pdf(x)
        got = mixture_density(_one_component(mean, cov), x[None, :])
        assert got[0] == pytest.approx(ref, rel=1e-10)


def test_mixture_density_reference():
    m = GaussianMixtureModel(
        weights=np.array([0.3, 0.7]),
        means=np.array([[-1.0], [2.0]]),
        covariances=np.array([[[0.25]], [[4.0]]]),
    )
    batch = mixture_density(m, np.array([0.2, 0.2]))
    assert batch.shape == (2,)
    np.testing.assert_allclose(batch, 0.10656655564146993, rtol=1e-13)


def test_mixture_density_is_zero_where_every_component_underflows():
    # every component log-density is -inf at these points; the density is 0,
    # with no -inf - (-inf) along the way (RuntimeWarnings are errors here)
    m = GaussianMixtureModel(
        weights=np.array([0.3, 0.7]),
        means=np.array([[-1.0], [2.0]]),
        covariances=np.array([[[0.25]], [[4.0]]]),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = mixture_density(m, np.array([1e200, 0.2, -1e200]))
        assert mixture_density(two_comp_2d(), [[1e200, 0.0]])[0] == 0.0
    assert batch[0] == 0.0 and batch[2] == 0.0
    assert batch[1] == pytest.approx(0.10656655564146993, rel=1e-13)


def test_mixture_density_reads_points_as_log_likelihood_does():
    # one point is still a batch: (1,) out, as pdf_rmse needs for a one-bin histogram
    m = _one_component(np.zeros(1), np.eye(1))
    assert mixture_density(m, [0.0]).shape == (1,)
    assert mixture_density(m, [[0.0]]).shape == (1,)
    m2 = two_comp_2d()
    assert mixture_density(m2, np.zeros((3, 2))).shape == (3,)
    with pytest.raises(ShapeError):
        mixture_density(m, 0.0)  # a scalar is not a batch
    with pytest.raises(ShapeError):
        mixture_density(m2, [0.0, 0.0])  # a 1-D array is a batch of 1-D points
    with pytest.raises(ShapeError):
        mixture_density(m, np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        mixture_density(m, [0.0, np.nan])
    with pytest.raises(InsufficientDataError):
        mixture_density(m, np.zeros(0))


def test_mixture_cdf_reference():
    m = GaussianMixtureModel(
        weights=np.array([0.3, 0.7]),
        means=np.array([[-1.0], [2.0]]),
        covariances=np.array([[[0.25]], [[4.0]]]),
    )
    assert mixture_cdf(m, [0.0]) == pytest.approx([0.40423363816756617], rel=1e-13)
    grid = np.linspace(-6, 10, 50)
    vals = mixture_cdf(m, grid)
    assert np.all(np.diff(vals) > 0)
    assert vals[0] < 1e-4 and vals[-1] > 1 - 1e-3


def test_mixture_cdf_needs_univariate_model():
    with pytest.raises(ShapeError):
        mixture_cdf(two_comp_2d(), [0.0])


def test_mixture_cdf_takes_batches_only(mix_1d):
    assert mixture_cdf(mix_1d, [0.5]).shape == (1,)
    for x in (0.5, np.zeros((3, 1))):
        with pytest.raises(ShapeError):
            mixture_cdf(mix_1d, x)


def test_log_likelihood_is_mean_log_density():
    m = two_comp_2d()
    rng = np.random.default_rng(2)
    x = rng.normal(0, 1.5, (40, 2))
    direct = float(np.mean(np.log(mixture_density(m, x))))
    assert log_likelihood(m, x) == pytest.approx(direct, rel=1e-12)


def _reference_log_densities(model, X):
    """Per-component triangular solves: the density kernel before the GEMM form.

    Returns the (N, n) log-densities and, per entry, the size of the terms
    each one sums, 0.5 * (k ln 2pi + |ln det Sigma_j| + z'z). A log-density
    near zero comes from cancelling terms, so that size is the scale its
    rounding error is relative to.
    """
    N, k = X.shape
    out = np.empty((N, model.n_components))
    size = np.empty_like(out)
    for j in range(model.n_components):
        L = np.linalg.cholesky(model.covariances[j])
        z = solve_triangular(L, (X - model.means[j]).T, lower=True, check_finite=False)
        logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
        zz = np.sum(z * z, axis=0)
        out[:, j] = -0.5 * (k * np.log(2.0 * np.pi) + logdet + zz)
        size[:, j] = 0.5 * (k * np.log(2.0 * np.pi) + abs(logdet) + zz)
    return out, size


@st.composite
def ill_conditioned_mixtures(draw):
    """Mixtures with dim 1-15, 1-6 components, condition numbers up to 1e10.

    One overall scale s sets every component's largest variance (within a
    factor 10 of s^2) and the spread of the means (s * N(0, 3^2)), so the
    data lie within a few standard deviations of 0, as daily returns do.
    The kernel's docstring says why data far from the origin would lose
    digits; scikit-learn's kernel has the same form.
    """
    dim = draw(st.integers(1, 15))
    n = draw(st.integers(1, 6))
    log_conds = draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n))
    s = 10.0 ** draw(st.floats(-3.0, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    covs = np.empty((n, dim, dim))
    for j, log_cond in enumerate(log_conds):
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        eig = s * s * 10.0 ** rng.uniform(-1.0, 1.0) * np.logspace(0.0, -log_cond, dim)
        c = (q * eig) @ q.T
        covs[j] = 0.5 * (c + c.T)
    model = GaussianMixtureModel(
        weights=rng.dirichlet(np.ones(n)),
        means=rng.normal(0.0, 3.0 * s, (n, dim)),
        covariances=covs,
    )
    return model, sample(model, 60, rng)


@given(ill_conditioned_mixtures())
@settings(max_examples=150, deadline=None)
def test_gemm_kernel_matches_triangular_solves(case):
    model, X = case
    ref, size = _reference_log_densities(model, X)
    logj = ref + np.log(model.weights)
    # the kernel is component-major: samples in columns, densities (n, N)
    new = gmm_module._log_weighted(
        X.T, model.weights, model.means, model._prec_chols, model._logdets
    )
    assert new.shape == (model.n_components, len(X))
    assert np.all(np.abs(new.T - logj) <= 1e-10 * size)

    lse = np.logaddexp.reduce(logj, axis=1)
    own = size[np.arange(len(X)), np.argmax(logj, axis=1)]
    assert log_likelihood(model, X) == pytest.approx(
        np.mean(lse), rel=1e-10, abs=1e-10 * np.mean(own)
    )
    # responsibilities lie in [0, 1] and each row sums to 1, the scale here
    np.testing.assert_allclose(
        _responsibilities(model, X), np.exp(logj - lse[:, None]), rtol=0.0, atol=1e-10
    )


@given(ill_conditioned_mixtures())
@settings(max_examples=150, deadline=None)
def test_batched_inverse_of_cholesky_factors(case):
    # the one numpy.linalg.inv call over the stack inverts every factor, and
    # each inverse is exactly lower triangular, as a trtri result is
    model, _ = case
    chols, prec_chols = model._chols, model._prec_chols
    k = model.dim
    for L, P in zip(chols, prec_chols):
        err = np.max(np.abs(P @ L - np.eye(k)))
        assert err <= 1e-12 * np.linalg.cond(L)
        assert not np.any(np.triu(P, 1))


def _desk_windows():
    """A desk-shaped window, 252 days of one-factor returns on 15 assets,
    and the same window one day later."""
    rng = np.random.default_rng(4)
    f = rng.normal(size=(253, 1))
    panel = 0.0002 + 0.011 * (0.5 * f + np.sqrt(0.75) * rng.normal(size=(253, 15)))
    return panel[:252], panel[1:]


def test_em_path_makes_no_triangular_solve(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("triangular solve (trsm) called in the EM path")

    monkeypatch.setattr(scipy.linalg, "solve_triangular", forbidden)
    monkeypatch.setattr(scipy.linalg.lapack, "dtrtrs", forbidden)
    monkeypatch.setattr(gmm_module, "solve_triangular", forbidden, raising=False)

    X, shifted = _desk_windows()
    model, cold = fit(X, 3, seed=1)
    warm_model, warm = fit(shifted, 3, init=model)
    assert cold.init_mode == "kmeans" and warm.init_mode == "warm_start"
    assert np.isfinite(log_likelihood(warm_model, shifted))
    assert np.all(mixture_density(model, X[:5]) > 0.0)
    assert sample(warm_model, 3000, np.random.default_rng(2)).shape == (3000, 15)


def test_fit_makes_one_density_pass_and_one_factorization_per_step(monkeypatch):
    # fit evaluates the density kernel once per log-likelihood it computes and
    # factorizes once per M-step, plus once for the model it returns (and,
    # cold, once more for the k-means start, which is one M-step on the
    # k-means labels): no second density pass for the responsibilities, no
    # second factorization of one iterate
    calls = collections.Counter()
    for name in ("_log_weighted", "_factorize", "_m_step"):
        def counted(*args, _name=name, _original=getattr(gmm_module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(gmm_module, name, counted)

    X, shifted = _desk_windows()
    model, cold = fit(X, 3, seed=1)
    cold_calls = dict(calls)
    calls.clear()
    _, warm = fit(shifted, 3, init=model, seed=1)
    warm_calls = dict(calls)
    calls.clear()
    default_max_iter = gmm_module.MAX_ITER
    monkeypatch.setattr(gmm_module, "MAX_ITER", 3)
    _, capped = fit(X, 3, seed=1)
    for report, counts, starts, max_iter in (
        (cold, cold_calls, 1, default_max_iter),
        (warm, warm_calls, 0, default_max_iter),
        (capped, calls, 1, 3),
    ):
        trace = report.loglik_trace
        tol_stop = len(trace) >= 2 and trace[-1] - trace[-2] < gmm_module.TOL
        # a downhill stop evaluates one more iterate and discards it; a stop
        # by tol or max_iter makes no M-step after its last evaluation
        downhill = not tol_stop and report.iterations < max_iter
        m_steps = report.iterations - (tol_stop or report.iterations == max_iter)
        assert counts["_log_weighted"] == report.iterations + downhill
        assert counts["_m_step"] == m_steps + starts
        assert counts["_factorize"] == m_steps + 1 + starts
    assert cold.iterations > 5 and warm.init_mode == "warm_start"


# ----------------------------------------------------------------- EM steps


def _responsibilities(model, X):
    """(N, n) responsibilities e / s from the one _logsumexp pass fit's
    E-step makes over the weighted log-densities of the samples X (N, k)."""
    _, e, s = gmm_module._logsumexp(model._log_weighted_densities(X), "e-step")
    return (e / s).T


def _m_step(X, r):
    """_m_step on samples X (N, k) and responsibilities r (N, n), one row
    per sample as the tests hold them: (weights, means, covariances)."""
    return gmm_module._m_step(np.ascontiguousarray(X.T), np.ascontiguousarray(r.T))


def test_e_step_scalar_oracle():
    # equal weights, unit variances, means 0 and 1, observation at 0:
    # posterior of the first component is 1 / (1 + exp(-1/2))
    m = GaussianMixtureModel(
        weights=np.array([0.5, 0.5]),
        means=np.array([[0.0], [1.0]]),
        covariances=np.array([[[1.0]], [[1.0]]]),
    )
    r = _responsibilities(m, np.array([[0.0]]))
    assert r[0, 0] == pytest.approx(0.62245933120185456, rel=1e-14)
    assert r[0, 1] == pytest.approx(1 - 0.62245933120185456, rel=1e-13)


def test_e_step_rows_sum_to_one_random():
    rng = np.random.default_rng(5)
    for _ in range(10):
        dim = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        model = random_mixture(rng, k, dim)
        x = rng.normal(0, 2, (30, dim))
        r = _responsibilities(model, x)
        np.testing.assert_allclose(r.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(r >= 0)


def _floor(cov):
    """The M-step's diagonal floor for one (k, k) covariance: max(1e-8 * tr/k, 1e-10)."""
    return max(1e-8 * np.trace(cov) / cov.shape[0], 1e-10)


def test_m_step_weighted_moment_oracle():
    x = np.array([[0.0], [1.0], [2.0], [5.0]])
    r = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    weights, means, covs = _m_step(x, r)
    np.testing.assert_allclose(weights, [0.5, 0.5], rtol=1e-15)
    np.testing.assert_allclose(means, [[0.5], [3.5]], rtol=1e-15)
    # population variances 0.25 and 2.25, plus the diagonal stabiliser
    expected0 = 0.25 + _floor(np.array([[0.25]]))
    expected1 = 2.25 + _floor(np.array([[2.25]]))
    assert covs[0, 0, 0] == pytest.approx(expected0, rel=1e-14)
    assert covs[1, 0, 0] == pytest.approx(expected1, rel=1e-14)


def test_m_step_single_component_recovers_global_moments():
    rng = np.random.default_rng(3)
    x = rng.normal(1.0, 2.0, (200, 2))
    r = np.ones((200, 1))
    _, means, covs = _m_step(x, r)
    np.testing.assert_allclose(means[0], x.mean(axis=0), rtol=1e-12)
    cov = np.cov(x.T, bias=True)
    np.testing.assert_allclose(
        covs[0], cov + _floor(cov) * np.eye(2), rtol=1e-10
    )


def test_m_step_reseeds_starved_component():
    # all responsibility mass on component 0 forces a re-seed of component 1
    rng = np.random.default_rng(9)
    x = rng.normal(0.0, 1.0, (50, 1))
    r = np.column_stack([np.ones(50), np.zeros(50)])
    weights, means, covs = _m_step(x, r)
    # re-seeded weight 1/N, then the vector is renormalized: 0.02/1.02
    assert weights[1] == pytest.approx(0.02 / 1.02, rel=1e-12)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    # re-seeded component sits on an actual data point with the global spread
    assert np.any(np.isclose(x[:, 0], means[1, 0]))
    gcov = np.cov(x[:, 0], bias=True)
    assert covs[1, 0, 0] == pytest.approx(
        gcov + _floor(np.atleast_2d(gcov)), rel=1e-10
    )


def _assert_exact_moments(X, r, weights, means, covs):
    """Check an M-step result against weighted moments summed with math.fsum.

    Each healthy component's sums, of N <= 300 terms, carry a worst-case
    forward error of N * 2^-53 <= 3.4e-14 relative to the sum of absolute
    terms. That bounds a mean's error by that factor times the component's
    root-mean-square coordinate, and a covariance entry's by that factor
    times sqrt(S_aa * S_bb) (Cauchy-Schwarz); the error of the mean enters
    the scatter only squared. 1e-12 of those scales leaves a margin of 30.
    A collapsed component must sit on the samples the healthy components
    explain least, ranked here with per-component triangular solves, and
    carry the global covariance with weight 1/N before renormalising.
    """
    N, k = X.shape
    n = r.shape[1]
    col = np.array([math.fsum(r[:, j]) for j in range(n)])
    healthy = col >= 1e-8 * N
    total = math.fsum(col[healthy]) + int(np.sum(~healthy))
    for j in np.flatnonzero(healthy):
        rj = r[:, j]
        mu = np.array([math.fsum(rj * X[:, a]) for a in range(k)]) / col[j]
        rms = np.sqrt([math.fsum(rj * X[:, a] ** 2) / col[j] for a in range(k)])
        D = X - mu
        S = np.array(
            [[math.fsum(rj * D[:, a] * D[:, b]) for b in range(k)] for a in range(k)]
        ) / col[j]
        expected = S + _floor(S) * np.eye(k)
        assert weights[j] == pytest.approx(col[j] / total, rel=1e-12, abs=0.0)
        assert np.all(np.abs(means[j] - mu) <= 1e-12 * rms)
        scale = np.sqrt(np.outer(np.diag(S), np.diag(S)))
        assert np.all(np.abs(covs[j] - expected) <= 1e-12 * scale)
    if healthy.all():
        return
    survivors = GaussianMixtureModel(
        weights=weights[healthy] / weights[healthy].sum(),
        means=means[healthy],
        covariances=covs[healthy],
    )
    logj, _ = _reference_log_densities(survivors, X)
    order = np.argsort(
        np.logaddexp.reduce(logj + np.log(survivors.weights), axis=1), kind="stable"
    )
    D = X - np.array([math.fsum(X[:, a]) for a in range(k)]) / N
    G = np.array(
        [[math.fsum(D[:, a] * D[:, b]) for b in range(k)] for a in range(k)]
    ) / N
    expected = G + _floor(G) * np.eye(k)
    scale = np.sqrt(np.outer(np.diag(G), np.diag(G)))
    for pick, j in enumerate(np.flatnonzero(~healthy)):
        np.testing.assert_array_equal(means[j], X[order[pick]])
        assert np.all(np.abs(covs[j] - expected) <= 1e-12 * scale)
        assert weights[j] == pytest.approx(1.0 / total, rel=1e-12, abs=0.0)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_samples=st.integers(20, 300),
    dim=st.integers(1, 15),
    n_components=st.integers(1, 6),
    n_collapsed=st.integers(0, 5),
    tiny=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_m_step_matches_exact_weighted_moments(
    seed, n_samples, dim, n_components, n_collapsed, tiny
):
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 0.01, (n_samples, dim)) + rng.normal(0.0, 0.01, dim)
    logits = rng.normal(0.0, 3.0, (n_samples, n_components))
    r = np.exp(logits - logits.max(axis=1, keepdims=True))
    # starve some components (never all) so the re-seed branch runs; "tiny"
    # leaves them a positive mass below the 1e-8 * N threshold
    starved = rng.permutation(n_components)[: min(n_collapsed, n_components - 1)]
    r[:, starved] = 1e-12 if tiny else 0.0
    r /= r.sum(axis=1, keepdims=True)

    with np.errstate(divide="raise", invalid="raise", over="raise"):
        got = _m_step(X, r)
    _assert_exact_moments(X, r, *got)


def test_covariance_floor_scales():
    # _floored adds max(1e-8 * tr/k, 1e-10) to the diagonal, in place
    cov = np.eye(2)
    assert _floored(cov) is cov
    np.testing.assert_array_equal(cov, (1.0 + 1e-8) * np.eye(2))
    assert _floored(np.array([[1e-6]]))[0, 0] == 1e-6 + 1e-10  # absolute floor wins
    stack = np.stack([np.eye(2), 1e-6 * np.eye(2)])
    np.testing.assert_array_equal(
        _floored(stack.copy()), [_floored(c.copy()) for c in stack]
    )


# -------------------------------------------------------------------- init


def test_kmeans_init_deterministic_and_valid():
    rng = np.random.default_rng(4)
    x = np.vstack([rng.normal(-3, 1, (60, 2)), rng.normal(3, 1, (60, 2))])
    a = _kmeans_init(x.T, 2, np.random.default_rng(1))
    b = _kmeans_init(x.T, 2, np.random.default_rng(1))
    np.testing.assert_array_equal(a.means, b.means)
    np.testing.assert_array_equal(a.weights, b.weights)
    assert a.weights.sum() == pytest.approx(1.0, abs=1e-12)
    # the two cluster centers land near the true modes
    got = sorted(a.means[:, 0])
    assert got[0] == pytest.approx(-3.0, abs=0.7)
    assert got[1] == pytest.approx(3.0, abs=0.7)


def test_kmeans_init_single_component():
    rng = np.random.default_rng(8)
    x = rng.normal(2.0, 0.5, (100, 1))
    m = _kmeans_init(x.T, 1, np.random.default_rng(0))
    assert m.means[0, 0] == pytest.approx(x.mean(), rel=1e-10)


@pytest.mark.parametrize("case", ["two_modes", "empty_cluster"])
def test_kmeans_init_is_one_m_step_on_its_labels(case, monkeypatch):
    # the cold start computes no moments of its own: it hands its final hard
    # labels, as one-hot responsibilities, to _m_step and returns exactly
    # what that returns. Three equal points for three components leave a
    # cluster empty (stealing a point for one empty cluster empties the
    # next), which _m_step re-seeds.
    calls = []

    def recorded(Xt, r):
        out = original(Xt, r)
        calls.append((Xt, r.copy(), out))
        return out

    original = gmm_module._m_step
    monkeypatch.setattr(gmm_module, "_m_step", recorded)
    if case == "two_modes":
        rng = np.random.default_rng(4)
        x = np.vstack([rng.normal(-3, 1, (60, 2)), rng.normal(3, 1, (60, 2))])
        n = 2
    else:
        x, n = np.full((3, 2), 0.01), 3
    Xt = np.ascontiguousarray(x.T)
    model = _kmeans_init(Xt, n, np.random.default_rng(1))

    assert len(calls) == 1
    seen, r, (weights, means, covs) = calls[0]
    assert seen is Xt
    assert r.shape == (n, len(x)) and set(np.unique(r)) <= {0.0, 1.0}
    np.testing.assert_array_equal(r.sum(axis=0), 1.0)
    for got, want in ((model.weights, weights), (model.means, means), (model.covariances, covs)):
        np.testing.assert_array_equal(got, want)
    if case == "empty_cluster":
        assert sorted(r.sum(axis=1)) == [0.0, 1.0, 2.0]
        assert sorted(model.weights) == [0.25, 0.25, 0.5]


# --------------------------------------------------------------------- fit


def test_fit_recovers_separated_mixture():
    rng = np.random.default_rng(0)
    n = 4000
    pick = rng.random(n) < 0.25
    x = np.where(pick, rng.normal(3.0, 0.4, n), rng.normal(-1.0, 0.6, n))
    model, report = fit(x, 2, seed=0)
    assert report.converged
    order = np.argsort(model.means[:, 0])
    w = model.weights[order]
    mu = model.means[order, 0]
    assert mu[0] == pytest.approx(-1.0, abs=0.1)
    assert mu[1] == pytest.approx(3.0, abs=0.1)
    assert w[1] == pytest.approx(0.25, abs=0.05)


def test_fit_trace_monotone_and_consistent():
    rng = np.random.default_rng(12)
    x = rng.standard_t(5, 600) * 0.01
    model, report = fit(x, 3, seed=2)
    trace = np.asarray(report.loglik_trace)
    assert report.iterations == len(trace) >= 1
    assert report.final_loglik == trace[-1]
    assert np.all(np.diff(trace) >= -1e-9)
    assert report.init_mode == "kmeans"
    # the returned model reproduces the reported final log-likelihood
    assert log_likelihood(model, x) == pytest.approx(report.final_loglik, abs=1e-9)


def test_fit_warm_start_converges_immediately():
    rng = np.random.default_rng(1)
    x = rng.normal(0.0, 0.01, 500)
    model, _ = fit(x, 2, seed=1)
    again, report = fit(x, 2, init=model)
    assert report.init_mode == "warm_start"
    assert report.converged
    assert report.iterations <= 2


def test_fit_warm_start_shape_guards():
    rng = np.random.default_rng(1)
    x = rng.normal(0.0, 1.0, (100, 2))
    model, _ = fit(x, 2, seed=1)
    with pytest.raises(ShapeError):
        fit(rng.normal(size=(50, 3)), 2, init=model)  # wrong dim
    with pytest.raises(ShapeError):
        fit(x, 3, init=model)  # wrong component count


def test_fit_argument_validation():
    x = np.zeros(5) + np.arange(5)
    with pytest.raises(ValidationError):
        fit(x, 0)
    with pytest.raises(InsufficientDataError):
        fit(x, 6)
    with pytest.raises(ValidationError):
        fit(x, 2, init="mystery")
    with pytest.raises(ValidationError):
        fit(np.array([1.0, np.nan, 2.0]), 1)


def test_fit_deterministic_given_seed():
    rng = np.random.default_rng(33)
    x = rng.normal(0, 1, (300, 2))
    m1, r1 = fit(x, 2, seed=5)
    m2, r2 = fit(x, 2, seed=5)
    np.testing.assert_array_equal(m1.weights, m2.weights)
    np.testing.assert_array_equal(m1.means, m2.means)
    np.testing.assert_array_equal(m1.covariances, m2.covariances)
    assert r1.loglik_trace == r2.loglik_trace


def test_warm_start_fit_ignores_seed():
    # only a k-means start draws from the seed, so the engine derives a fit
    # seed for cold starts alone and may pass any seed, or none, when warm
    X, shifted = _desk_windows()
    start, _ = fit(X, 3, seed=1)
    fits = [fit(shifted, 3, init=start, seed=s) for s in (0, 1, 2**63)]
    for model, report in fits:
        assert report == fits[0][1] and report.init_mode == "warm_start"
        for name in ("weights", "means", "covariances"):
            assert getattr(model, name).tobytes() == getattr(fits[0][0], name).tobytes()


def test_fit_respects_max_iter(monkeypatch):
    rng = np.random.default_rng(3)
    x = rng.normal(0, 1, 2000) + rng.normal(0, 0.3, 2000)
    monkeypatch.setattr(gmm_module, "TOL", 1e-300)
    monkeypatch.setattr(gmm_module, "MAX_ITER", 4)
    _, report = fit(x, 3, seed=0)
    assert report.iterations <= 4
    assert not report.converged


def test_fit_stopped_by_max_iter_returns_the_iterate_it_scored(monkeypatch):
    # the last allowed iteration scores its iterate and stops before another
    # M-step, so the reported log-likelihood is the returned model's
    X, _ = _desk_windows()
    monkeypatch.setattr(gmm_module, "MAX_ITER", 3)
    model, report = fit(X, 3, seed=1)
    assert report.iterations == 3 and not report.converged
    assert report.final_loglik == log_likelihood(model, X)


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 4),
    n_components=st.integers(1, 4),
    n_samples=st.integers(60, 300),
)
@settings(max_examples=40, deadline=None)
def test_fit_trace_monotone_valid_and_reproducible(seed, dim, n_components, n_samples):
    rng = np.random.default_rng(seed)
    x = sample(random_mixture(rng, n_components, dim), n_samples, rng)
    model, report = fit(x, n_components, seed=seed)

    trace = np.asarray(report.loglik_trace)
    assert np.all(np.diff(trace) >= 0.0)
    assert report.iterations == len(trace) and report.final_loglik == trace[-1]
    # the constructor validates the simplex and PD
    GaussianMixtureModel(model.weights, model.means, model.covariances)
    if report.converged:
        # the returned model is the iterate the last trace entry measured
        assert log_likelihood(model, x) == pytest.approx(report.final_loglik, rel=1e-12)

    again, report2 = fit(x, n_components, seed=seed)
    assert report2 == report
    for a, b in [(model.weights, again.weights), (model.means, again.means),
                 (model.covariances, again.covariances)]:
        np.testing.assert_array_equal(a, b)

    _, warm = fit(x[1:], n_components, init=model, seed=seed)
    assert np.all(np.diff(warm.loglik_trace) >= 0.0)


def test_fit_near_degenerate_component_stays_monotone():
    # a tiny tight cluster next to a broad one pushes the smallest covariance
    # eigenvalue toward the stabiliser scale; the trace must stay clean
    rng = np.random.default_rng(42)
    x = np.concatenate([rng.normal(0, 1e-4, 12), rng.normal(0.01, 0.02, 188)])
    model, report = fit(x, 2, seed=3)
    trace = np.asarray(report.loglik_trace)
    assert np.all(np.diff(trace) >= -1e-9)
    assert model.weights.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- sampling


def test_stratified_counts_largest_remainder():
    np.testing.assert_array_equal(
        _stratified_counts(np.array([0.5, 0.3, 0.2]), 7), [4, 2, 1]
    )
    # remainder tie resolved toward the earlier component (stable order)
    np.testing.assert_array_equal(
        _stratified_counts(np.array([0.5, 0.25, 0.25]), 2), [1, 1, 0]
    )


def test_stratified_counts_properties():
    rng = np.random.default_rng(6)
    for _ in range(50):
        k = int(rng.integers(1, 7))
        w = rng.dirichlet(np.ones(k))
        n = int(rng.integers(1, 5000))
        c = _stratified_counts(w, n)
        assert c.sum() == n
        assert np.all(c >= 0)
        assert np.all(np.abs(c - w * n) < 1.0)  # largest remainder never drifts far


def _reference_sample(model, n_total, rng):
    """sample before the single draw: one block of normals per component."""
    gen = np.random.default_rng(rng)
    blocks = []
    for j, c in enumerate(_stratified_counts(model.weights, n_total)):
        if c == 0:
            continue
        z = gen.standard_normal((int(c), model.dim))
        blocks.append(model.means[j] + z @ model._chols[j].T)
    return np.concatenate(blocks, axis=0)


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 15),
    n_components=st.integers(1, 6),
    n_zero=st.integers(0, 5),
    n_total=st.integers(1, 3500),
)
@settings(max_examples=150, deadline=None)
def test_sample_single_draw_matches_block_draws_bit_for_bit(
    seed, dim, n_components, n_zero, n_total
):
    rng = np.random.default_rng(seed)
    model = random_mixture(rng, n_components, dim)
    # zero weights (never all) give components with a zero draw count
    w = model.weights.copy()
    w[rng.permutation(n_components)[: min(n_zero, n_components - 1)]] = 0.0
    model = GaussianMixtureModel(w / w.sum(), model.means, model.covariances)

    gen, ref_gen = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample(model, n_total, gen)
    np.testing.assert_array_equal(got, _reference_sample(model, n_total, ref_gen))
    assert gen.random() == ref_gen.random()  # both consumed the same stream
    # the kernel the engine calls gives the same bits in arrays it is handed
    out, z = np.full((n_total, dim), np.nan), np.full((n_total, dim), np.nan)
    assert gmm_module._sample_into(model, np.random.default_rng(seed), out, z) is out
    assert out.tobytes() == got.tobytes()


def test_sample_stratified_composition_exact(mix_1d):
    # components are 8 sigma apart, so nearest-mean classification is exact
    s = sample(mix_1d, 1000, np.random.default_rng(0))
    assert s.shape == (1000, 1)
    n_right = int(np.sum(s[:, 0] > 0))
    expected = _stratified_counts(mix_1d.weights, 1000)
    assert n_right == expected[1]
    # rows come grouped by component, in index order
    assert np.all(s[: expected[0], 0] < 0) and np.all(s[expected[0] :, 0] > 0)


def test_sample_deterministic_and_allocation_modes(mix_1d):
    a = sample(mix_1d, 500, np.random.default_rng(9))
    b = sample(mix_1d, 500, np.random.default_rng(9))
    np.testing.assert_array_equal(a, b)
    assert not np.shares_memory(a, b)  # every call gets its own array
    with pytest.raises(ValidationError):
        sample(mix_1d, 0, np.random.default_rng(0))


def test_sample_moments_match_mixture(mix_1d):
    s = sample(mix_1d, 50000, np.random.default_rng(4))[:, 0]
    true_mean = float(np.sum(mix_1d.weights * mix_1d.means[:, 0]))
    second = np.sum(
        mix_1d.weights * (mix_1d.covariances[:, 0, 0] + mix_1d.means[:, 0] ** 2)
    )
    true_std = np.sqrt(second - true_mean**2)
    assert s.mean() == pytest.approx(true_mean, abs=4 * true_std / np.sqrt(50000))
    assert s.std() == pytest.approx(true_std, rel=0.02)


def test_sample_multivariate_covariance():
    m = two_comp_2d()
    s = sample(m, 60000, np.random.default_rng(11))
    mix_mean = m.weights @ m.means
    np.testing.assert_allclose(s.mean(axis=0), mix_mean, atol=0.03)
    # mixture covariance: weighted covariances plus between-component spread
    spread = sum(
        w * np.outer(mu - mix_mean, mu - mix_mean)
        for w, mu in zip(m.weights, m.means)
    )
    target = np.einsum("j,jkl->kl", m.weights, m.covariances) + spread
    np.testing.assert_allclose(np.cov(s.T, bias=True), target, atol=0.05)
