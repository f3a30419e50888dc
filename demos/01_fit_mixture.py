"""Fit a two-component Gaussian mixture to bimodal synthetic returns.

Daily returns are drawn from a calm regime (70%, mean +5bp, vol 0.8%) and a
stressed regime (30%, mean -10bp, vol 2.5%). EM should recover both
components; a stratified resample from the fitted model should be
indistinguishable from the fitted distribution under a KS test.
"""

import numpy as np

from riskengine import fit, ks_test, mixture_cdf, sample

rng = np.random.default_rng(7)
n = 5000
stressed = rng.random(n) < 0.3
returns = np.where(
    stressed,
    rng.normal(-0.0010, 0.025, n),
    rng.normal(0.0005, 0.008, n),
)

model, rep = fit(returns, 2, seed=0)

order = np.argsort(model.covariances[:, 0, 0])  # calm component first
print(f"converged={rep.converged} after {rep.iterations} iterations")
print(f"final mean log-likelihood {rep.loglik_trace[-1]:+.6f}")
print()
print("component   weight     mean        vol")
truth = [("calm", 0.70, 0.0005, 0.008), ("stressed", 0.30, -0.0010, 0.025)]
for slot, (name, w, mu, sd) in zip(order, truth):
    got_sd = float(np.sqrt(model.covariances[slot, 0, 0]))
    print(
        f"{name:<10} {model.weights[slot]:>7.4f} {model.means[slot, 0]:>+10.6f}"
        f" {got_sd:>10.6f}"
    )
    print(f"{'  (true)':<10} {w:>7.4f} {mu:>+10.6f} {sd:>10.6f}")

draws = sample(model, 20000, np.random.default_rng(1))[:, 0]
ks_stat, ks_p = ks_test(draws, lambda t: mixture_cdf(model, t))
print()
print(f"KS resample check: stat={ks_stat:.5f} p={ks_p:.3f}")
