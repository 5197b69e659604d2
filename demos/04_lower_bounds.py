"""Closed-form limits: how small a signal is fundamentally undetectable.

The least-favorable construction places s equal spikes of total norm tau on
a uniformly random support while the null inflates its noise to match
second moments.  The testing risk of ANY procedure is then lower-bounded
through the overlap moment generating function; at the calibrated radius
the bound equals the target risk delta.
"""

import numpy as np

import signalnorm as sn

p, N, s = 500, 1000, 5

print("radius below which every test has risk >= delta:")
for delta in (0.1, 0.3, 0.5):
    bundle = sn.minimax_testing_lower_radius(p, N, s, delta)
    tau = sn.tau_from_rho(bundle.r)
    mgf = sn.hypergeometric_mgf_bound(p, bundle.s_prior, N, tau)
    risk = sn.risk_from_mgf(mgf)
    cap = np.exp(2 * bundle.A**2)
    print(f"  delta={delta}: A={bundle.A:.4f}  rho={bundle.rho:.5f}  r={bundle.r:.5f}  "
          f"MGF={mgf:.5f} (cap {cap:.5f})  risk bound={risk:.4f}")

# The cross moment of two likelihood ratios has a closed form at matched norms.
tau = 0.4
a = tau * np.eye(6)[0]
b = tau * (np.eye(6)[0] + np.eye(6)[1]) / np.sqrt(2)
print(f"\ncross moment at overlap <a,b>={a @ b:.4f}, N=20: {sn.chi2_cross(a, b, 20):.4f}")

# Draws from the least-favorable prior (p = 12, s = 3, tau = 0.8) all sit on a
# sphere of radius tau.
rng = np.random.default_rng(5)
draws = [sn.sample_sparse_theta(12, 3, 0.8, rng=rng) for _ in range(3)]
for d in draws:
    print(f"prior draw: support {np.flatnonzero(d)}, norm {np.linalg.norm(d):.4f}")

# Best-achievable accuracy for the squared norm over a norm ball.
print("\nsquared-norm estimation floor over ||theta|| <= kappa (sigma = 1):")
for kappa in (0.1, 1.0, 10.0):
    print(f"  kappa={kappa:5.1f}: {sn.q_lower_bound(p, N, s, 1.0, kappa):.5f}")
