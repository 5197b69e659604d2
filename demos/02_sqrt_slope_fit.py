"""The square-root sorted-L1 fit: a pivotal sparse regression solver.

The penalty weight sequence decreases across ranks, so larger coefficients
pay larger per-unit penalties; the square-root loss makes the fit
noise-level free: no variance input is needed, and the residual norm over
sqrt(n) is itself a consistent noise estimate.
"""

import numpy as np

import signalnorm as sn

rng = np.random.default_rng(7)
n, p, s, sigma = 150, 300, 4, 0.7
theta = sn.sample_sparse_theta(p, s, magnitude=2.0, rng=rng)
X = rng.standard_normal((n, p))
Y = X @ theta + sigma * rng.standard_normal(n)

weights = sn.slope_weights(p, n)
print(f"weight sequence: lam_1 = {weights[0]:.4f} ... lam_p = {weights[-1]:.4f}")
print(f"sorted-L1 norm of theta: {sn.sorted_l1_norm(theta, weights):.4f}")

fit = sn.sqrt_slope_fit(X, Y)
err = np.linalg.norm(fit.theta_hat - theta)
print(f"\nfit: {fit.iterations} iterations, converged = {fit.converged}")
print(f"  objective = {fit.objective:.4f} (objective at zero = {np.linalg.norm(Y):.4f})")
print(f"  ||theta_hat - theta||_2 = {err:.4f}")
print(f"  support recovered: {sorted(map(int, np.flatnonzero(np.abs(fit.theta_hat) > 0.2)))} "
      f"vs truth {sorted(map(int, np.flatnonzero(theta)))}")
print(f"  sigma_hat = {fit.sigma_hat:.4f}  (truth {sigma})")

# The proximal step behind the solver, on its own:
v = np.array([3.0, -1.0, 0.4])
w = np.array([1.0, 0.6, 0.2])
print(f"\nprox of sorted-L1 at v={v}, w={w}: {sn.prox_sorted_l1(v, w)}")
