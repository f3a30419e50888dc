"""Gaussian mixture models: EM calibration, sampling, the 1-D mixture CDF.

A mixture is P(x) = sum_j w_j * N(x | mu_j, Sigma_j). All density work goes
through Cholesky factors Sigma_j = L_j L_j', with an inverse of the
triangular factor only, never of Sigma itself: for each component,
log N(x) = -0.5 * (k ln 2pi + ln det Sigma + z'z) with z = L^-1 (x - mu).
This is the precision-Cholesky parameterisation of scikit-learn's
GaussianMixture.precisions_cholesky_ (Pedregosa et al., JMLR 2011).

The EM kernel is component-major: fit holds the samples as one (k, N)
matrix X' with a sample per column, and log-densities, responsibilities and
centred samples are (n, N) and (n, k, N) arrays, one row or block per
component. Stacking every L_j^-1 turns all densities into one matrix
product, [L_1^-1; ...; L_n^-1] X' - b. Each later step is then a handful of
array operations along the long sample axis, instead of many operations
whose inner loops run over only the n components or k dimensions; with
N = 252, k = 15 and n = 3 that per-call overhead, not arithmetic, is what
an EM iteration spends most of its time on. The public functions take and
return samples as (N, k) rows, and transpose once at that boundary. One
weighted log-density kernel, _log_weighted, serves fit's E-step and the
M-step's re-seed.

EM runs in log space. The E-step shifts each sample's column by its max
before exponentiating, so responsibilities stay finite even when every
component density underflows in linear space; one exp pass gives both the
log-likelihood and the responsibilities. The M-step re-estimates weights,
means and covariances from responsibility-weighted moments and floors each
covariance diagonal with eps = max(1e-8 * trace(Sigma)/k, 1e-10), which keeps
factorizations well posed without visibly perturbing the fit.

Convergence: |delta per-sample log-likelihood| < TOL (1e-6), at most
MAX_ITER (200) iterations; fit reads both module constants when called.
Cold starts come from a k-means pass (k-means++ style seeding, at most 20
Lloyd iterations) seeded by fit's seed, whose hard labels, as one-hot
responsibilities, go through one M-step, so a cluster left empty gets the
M-step's re-seed; warm starts accept a previously fitted model and ignore
the seed, and typically converge in a couple of iterations when the data
has shifted by one observation.

sample returns a new array of draws grouped by component. Its kernel
_sample_into writes the same bits into two arrays the caller owns and checks
neither; the engine's day loop calls it to reuse one pair of arrays per model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distributions import normal_cdf
from .errors import (
    DegenerateDataError,
    InsufficientDataError,
    NumericError,
    ShapeError,
    ValidationError,
)

_LOG_2PI = np.log(2.0 * np.pi)
TOL = 1e-6  # EM has converged once a step gains less per-sample log-likelihood
MAX_ITER = 200  # and stops after this many iterations either way


def _as_matrix(data) -> np.ndarray:
    """Coerce samples to an (N, k) float matrix; 1-D input means k = 1."""
    X = np.asarray(data, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise ShapeError(f"data must be 1-D or 2-D, got ndim={X.ndim}")
    if X.shape[0] == 0:
        raise InsufficientDataError("data is empty")
    if not np.all(np.isfinite(X)):
        raise ValidationError("data contains non-finite entries")
    return X


def _floored(cov: np.ndarray) -> np.ndarray:
    """Add the floor max(1e-8 * tr/k, 1e-10) to the diagonal of cov, in place.

    cov is a (k, k) or (n, k, k) array that the caller owns; returns cov.
    """
    floor = np.maximum(1e-8 * np.trace(cov, axis1=-2, axis2=-1) / cov.shape[-1], 1e-10)
    diagonal = np.einsum("...ii->...i", cov)  # a writable view, for any strides
    diagonal += floor[..., None]
    return cov


def _factorize(covs: np.ndarray):
    """Cholesky factors L_j, their inverses L_j^-1 and ln det Sigma_j.

    The inverses come from one batched solve over the whole (n, k, k)
    stack, numpy.linalg.inv of the upper-triangular L_j', transposed back
    and stored C-ordered, so the stack reshapes to one (n * k, k) matrix
    without a copy. L_j' needs no row exchange, so each inverse is exactly
    lower triangular; inverting L_j itself would pivot and leave rounding
    noise above the diagonal. Raises numpy.linalg.LinAlgError when a
    covariance is not positive definite, and ValidationError when one is not
    finite (an overflowed M-step; Cholesky would not notice).
    """
    if not np.isfinite(covs).all():
        raise ValidationError("means/covariances contain non-finite entries")
    chols = np.linalg.cholesky(covs)
    prec_chols = np.linalg.inv(chols.transpose(0, 2, 1)).transpose(0, 2, 1).copy()
    logdets = 2.0 * np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1)
    return chols, prec_chols, logdets


def _log_weighted(Xt, weights, means, prec_chols, logdets) -> np.ndarray:
    """ln w_j + ln N(x_i | mu_j, Sigma_j) for every component/sample pair: (n, N).

    Xt is (k, N), one sample per column. z_ji = L_j^-1 (x_i - mu_j) for all
    pairs comes out of one GEMM, [L_1^-1; ...; L_n^-1] @ Xt - b with
    b_j = L_j^-1 mu_j, shaped (n, k, N); z'z sums its squares over axis 1.
    Rounding error in z is of order eps * |L^-1| * |x| rather than the
    eps * |L^-1| * |x - mu| of a triangular solve, so data lying many of the
    narrowest component's standard deviations away from the origin loses
    digits; daily returns sit well within one standard deviation of 0.
    """
    n, k = means.shape
    Z = (prec_chols.reshape(n * k, k) @ Xt).reshape(n, k, -1)
    Z -= prec_chols @ means[:, :, None]
    # einsum, unlike Z * Z, stays silent when a far-away point overflows z'z
    logj = -0.5 * (k * _LOG_2PI + logdets[:, None] + np.einsum("jci,jci->ji", Z, Z))
    with np.errstate(divide="ignore"):  # log(0) for zero weights is fine
        logj += np.log(weights)[:, None]
    return logj


def _logsumexp(logj: np.ndarray, context: str):
    """Log-sum-exp over the components (axis 0) of logj (n, N), in place.

    Returns (shift, e, s): shift is each column's max, e = exp(logj - shift)
    overwrites logj, and s is e summed over axis 0. The log-sum-exp is
    shift + log(s) and the responsibilities are e / s, so one exp pass
    serves both. A column with no finite max, one where every component
    density underflows, raises NumericError naming context.
    """
    shift = logj.max(axis=0)  # a new array, never a view of logj; NaN propagates
    finite = np.isfinite(shift)
    if not finite.all():
        raise NumericError(
            f"{context}: density underflowed for sample {int(np.argmin(finite))}"
        )
    logj -= shift
    e = np.exp(logj, out=logj)
    return shift, e, e.sum(axis=0)


@dataclass(frozen=True, eq=False)
class GaussianMixtureModel:
    """Immutable mixture parameters plus cached Cholesky factors.

    _prec_chols holds each L_j^-1 and _logdets each ln det Sigma_j, so
    density evaluation needs no factorisation or triangular solve.
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    _chols: np.ndarray = field(init=False, repr=False, compare=False)
    _prec_chols: np.ndarray = field(init=False, repr=False, compare=False)
    _logdets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        mu = np.array(self.means, dtype=float)
        cov = np.array(self.covariances, dtype=float)
        if w.ndim != 1 or mu.ndim != 2 or cov.ndim != 3:
            raise ShapeError(
                "expected weights (n,), means (n, k), covariances (n, k, k); "
                f"got ndim {w.ndim}/{mu.ndim}/{cov.ndim}"
            )
        n, k = mu.shape
        if w.shape != (n,) or cov.shape != (n, k, k):
            raise ShapeError(
                f"inconsistent shapes: weights {w.shape}, means {mu.shape}, "
                f"covariances {cov.shape}"
            )
        if n == 0:
            raise ValidationError("mixture needs at least one component")
        if np.any(w < 0.0) or not np.all(np.isfinite(w)):
            raise ValidationError("weights must be finite and non-negative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValidationError(f"weights sum to {w.sum()!r}, not 1")
        if not np.all(np.isfinite(mu)) or not np.all(np.isfinite(cov)):
            raise ValidationError("means/covariances contain non-finite entries")
        asym = np.max(np.abs(cov - np.transpose(cov, (0, 2, 1))))
        if asym > 1e-12 * max(1.0, float(np.max(np.abs(cov)))):
            raise ValidationError(f"covariance asymmetry {asym} exceeds tolerance")
        chols, prec_chols, logdets = _factorize(cov)  # LinAlgError if not PD
        for a in (w, mu, cov, chols, prec_chols, logdets):
            a.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "covariances", cov)
        object.__setattr__(self, "_chols", chols)
        object.__setattr__(self, "_prec_chols", prec_chols)
        object.__setattr__(self, "_logdets", logdets)

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "covariances": self.covariances.tolist(),
        }


@dataclass(frozen=True)
class FitReport:
    """EM run summary; the trace is per-sample log-likelihood by iteration.

    fit never appends a falling value; iterations and final_loglik read the trace.
    """

    converged: bool
    loglik_trace: tuple[float, ...]
    init_mode: str

    @property
    def iterations(self) -> int:
        return len(self.loglik_trace)

    @property
    def final_loglik(self) -> float:
        return self.loglik_trace[-1]


def _m_step(Xt: np.ndarray, r: np.ndarray):
    """Re-estimate mixture parameters from responsibility-weighted moments.

    Xt is (k, N), one sample per column, and r (n, N), the responsibilities,
    each column summing to one. Returns (weights, means, covariances): w_j =
    sum_i r_ji / N, mu_j the weighted mean and Sigma_j the weighted scatter
    plus the diagonal floor (see _floored). A component whose total
    responsibility falls below 1e-8 * N is considered collapsed and is
    re-seeded at the sample the surviving components explain least, with
    weight 1/N and the global covariance; weights are renormalized.
    DegenerateDataError if every component collapsed.
    """
    k, N = Xt.shape
    col = r.sum(axis=1)
    collapsed = col < 1e-8 * N
    if collapsed.all():
        raise DegenerateDataError("all mixture components collapsed")
    reseed = collapsed.any()
    if reseed:  # collapsed components stay out, so no 0/0 is formed
        r, col = r[~collapsed], col[~collapsed]

    # every healthy component at once: D = Xt - mu is (n, k, N) and the
    # scatter one batched (D * r) @ D', symmetrised, scaled and floored in place
    mu = (r @ Xt.T) / col[:, None]
    D = Xt - mu[:, :, None]
    S = (D * r[:, None, :]) @ D.transpose(0, 2, 1)
    S += S.transpose(0, 2, 1)
    S *= (0.5 / col)[:, None, None]
    _floored(S)
    if not reseed:
        return col / col.sum(), mu, S

    # re-seed each collapsed component at the sample the healthy ones explain
    # least, with weight 1/N and the global covariance
    _, prec_chols, logdets = _factorize(S)
    shift, _, s = _logsumexp(
        _log_weighted(Xt, col / col.sum(), mu, prec_chols, logdets), "m_step reseed"
    )
    order = np.argsort(shift + np.log(s), kind="stable")
    dm = Xt - Xt.mean(axis=1, keepdims=True)
    n_c = collapsed.shape[0]
    weights = np.full(n_c, 1.0 / N)
    means = np.empty((n_c, k))
    covs = np.empty((n_c, k, k))
    weights[~collapsed] = col / N
    means[~collapsed] = mu
    covs[~collapsed] = S
    means[collapsed] = Xt[:, order[: int(collapsed.sum())]].T
    covs[collapsed] = _floored(dm @ dm.T / N)
    weights /= weights.sum()
    return weights, means, covs


def _kmeans_init(Xt, n_components: int, gen) -> GaussianMixtureModel:
    """Cold-start parameters: k-means hard labels, then one M-step on them.

    Xt is fit's (k, N) matrix, one sample per column, with N >= n_components
    >= 1, and gen the Generator to draw from. Seeding picks centers with
    probability proportional to squared distance from the chosen set (first
    one uniform); Lloyd then runs for at most 20 iterations or until labels
    stop moving, re-seeding a cluster left empty by an assignment at the
    point farthest from its current center. The final labels, as one-hot
    responsibilities, go through _m_step, as in scikit-learn's
    GaussianMixture: weights are cluster fractions, means cluster centroids
    and covariances floored cluster scatter, and a cluster that is still
    empty gets _m_step's re-seed.
    """
    X = Xt.T  # Lloyd reads samples as rows
    N, k = X.shape

    centers = np.empty((n_components, k))
    centers[0] = X[int(gen.integers(N))]
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for j in range(1, n_components):
        total = d2.sum()
        if total > 0.0:
            idx = int(gen.choice(N, p=d2 / total))
        else:
            idx = int(gen.integers(N))
        centers[j] = X[idx]
        d2 = np.minimum(d2, np.sum((X - centers[j]) ** 2, axis=1))

    labels = np.full(N, -1)
    for _ in range(20):
        dist = np.sum((X[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_labels = dist.argmin(axis=1)
        for j in range(n_components):
            if not np.any(new_labels == j):
                assigned = dist[np.arange(N), new_labels]
                new_labels[int(np.argmax(assigned))] = j
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(n_components):
            members = X[labels == j]
            if members.shape[0]:  # stealing a point above may empty a cluster
                centers[j] = members.mean(axis=0)

    onehot = (labels == np.arange(n_components)[:, None]).astype(float)
    return GaussianMixtureModel(*_m_step(Xt, onehot))


def fit(
    data,
    n_components: int,
    init="kmeans",
    seed: int = 0,
) -> tuple[GaussianMixtureModel, FitReport]:
    """Calibrate a mixture by EM.

    init is either the string "kmeans" (cold start, seeded from seed) or an
    existing GaussianMixtureModel to warm-start from, which ignores seed.
    EM stops when the per-sample log-likelihood gains less than TOL, or
    after MAX_ITER iterations.
    Returns the fitted model together with a FitReport whose trace holds the
    per-sample log-likelihood at the top of every iteration; final_loglik,
    its last entry, is the returned model's, also when MAX_ITER stops it.

    The covariance stabiliser makes each M-step very slightly suboptimal, so
    near convergence the objective can wobble below its previous value.  The
    loop therefore never accepts a downhill step: if an iteration lowers the
    log-likelihood the previous iterate is returned instead, converged when
    the dip was within TOL.  The reported trace is non-decreasing.
    """
    X = _as_matrix(data)
    N, k = X.shape
    if n_components < 1:
        raise ValidationError(f"n_components must be >= 1, got {n_components}")
    if N < n_components:
        raise InsufficientDataError(
            f"cannot fit {n_components} components to {N} samples"
        )
    Xt = np.ascontiguousarray(X.T)
    if isinstance(init, GaussianMixtureModel):
        if init.dim != k:
            raise ShapeError(f"warm-start model dim {init.dim} != data dim {k}")
        if init.n_components != n_components:
            raise ShapeError(
                f"warm-start model has {init.n_components} components, "
                f"requested {n_components}"
            )
        model = init
        init_mode = "warm_start"
    elif init == "kmeans":
        model = _kmeans_init(Xt, n_components, np.random.default_rng(seed))
        init_mode = "kmeans"
    else:
        raise ValidationError(f"unknown init {init!r}")

    # The loop runs on plain component-major arrays; the validated model is
    # built once, at exit. The responsibilities e / s need no check: every
    # sample's column has a finite maximum (checked by _logsumexp), so they
    # lie in [0, 1] with columns summing to one.
    weights, means, covs = model.weights, model.means, model.covariances
    prec_chols, logdets = model._prec_chols, model._logdets
    trace: list[float] = []
    previous = (weights, means, covs)
    for it in range(1, MAX_ITER + 1):
        shift, e, s = _logsumexp(
            _log_weighted(Xt, weights, means, prec_chols, logdets),
            f"fit iteration {it}",
        )
        ll = float((shift + np.log(s)).sum()) / N  # np.mean, bit for bit
        if not np.isfinite(ll):
            raise NumericError(f"log-likelihood non-finite at iteration {it}")
        if trace and ll < trace[-1]:
            # The diagonal stabiliser shifts each M-step away from the exact
            # maximiser, so once the true EM increment falls below that
            # perturbation the objective can dip slightly.  Keep the previous,
            # better iterate; a dip below TOL is just convergence noise.
            weights, means, covs = previous
            converged = trace[-1] - ll < TOL
            break
        trace.append(ll)
        converged = len(trace) >= 2 and trace[-1] - trace[-2] < TOL
        if converged or it == MAX_ITER:  # return the iterate last scored
            break
        previous = (weights, means, covs)
        weights, means, covs = _m_step(Xt, np.divide(e, s, out=e))
        _, prec_chols, logdets = _factorize(covs)

    report = FitReport(
        converged=converged, loglik_trace=tuple(trace), init_mode=init_mode
    )
    return GaussianMixtureModel(weights=weights, means=means, covariances=covs), report


def _stratified_counts(weights, n_total: int) -> np.ndarray:
    """Largest-remainder allocation of n_total draws across components."""
    ideal = np.asarray(weights, dtype=float) * n_total
    base = np.floor(ideal).astype(int)
    short = n_total - int(base.sum())
    if short > 0:
        order = np.argsort(-(ideal - base), kind="stable")
        base[order[:short]] += 1
    return base


def sample(model: GaussianMixtureModel, n_total: int, rng) -> np.ndarray:
    """Draw n_total points from the mixture, stratified by component.

    Allocates round(w_j * n_total) draws per component by largest
    remainder and turns the rows of block j into mu_j + L_j z, so the rows
    come grouped by component in index order. Draw order given one
    Generator: one (n_total, dim) block of standard normals and nothing
    else, the same stream as one block per component drawn in turn.
    Returns a new (n_total, dim) array.
    """
    if n_total < 1:
        raise ValidationError(f"n_total must be >= 1, got {n_total}")
    shape = (n_total, model.dim)
    return _sample_into(model, np.random.default_rng(rng), np.empty(shape), np.empty(shape))


def _sample_into(model, gen, out, z):
    """sample's draws from Generator gen, written into out and returned; z
    holds the standard normals and is overwritten. out and z are distinct
    C-contiguous float64 (n_total, dim) arrays, which are not checked.
    """
    gen.standard_normal(z.shape, out=z)
    stop = 0
    for j, c in enumerate(_stratified_counts(model.weights, len(z))):
        start, stop = stop, stop + int(c)
        if c:
            block = out[start:stop]
            np.matmul(z[start:stop], model._chols[j].T, out=block)
            block += model.means[j]
    return out


def mixture_cdf(model: GaussianMixtureModel, x) -> np.ndarray:
    """CDF sum_j w_j Phi((x - mu_j) / sigma_j) of a 1-D mixture at each x of an (N,) array."""
    if model.dim != 1:
        raise ShapeError(f"mixture_cdf needs a 1-D model, got dim {model.dim}")
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ShapeError(f"mixture_cdf takes an (N,) array of points, got shape {x.shape}")
    sds = np.sqrt(model.covariances[:, 0, 0])
    z = (x[:, None] - model.means[:, 0]) / sds
    return np.sum(model.weights * normal_cdf(z), axis=1)
