"""Signal detection with an unknown noise level.

The detector rejects when the norm estimate exceeds
beta * sigma_hat * sqrt(s log(1 + sqrt(p)/s) / N).  Because the statistic is
scale-free under Gaussian noise, beta is calibrated once on simulated nulls
with unit noise and then applies at any noise level.
"""

import numpy as np

import signalnorm as sn

n, p, s, delta, alpha = 100, 30, 3, 0.1, 1.0
N = 2 * n

beta = sn.calibrate_beta(p=p, N=N, s=s, delta=delta, regime="low", alpha=alpha,
                         trials=2000, seed=0)
print(f"calibrated beta at level {delta}: {beta:.3f}")

# Empirical level over fresh nulls, at a noise level the calibration never saw
# (the statistic is scale-free, so calibration at sigma=1 transfers).
trials = 800
rng_level = np.random.SeedSequence(1)
rejections = 0
for child in rng_level.spawn(trials):
    sample = sn.synthesize(sn.ModelSpec(theta=np.zeros(p), sigma=3.0),
                           sn.Dimensions(N=N, p=p, s=s), child)
    rejections += sn.detect(sample, s, "low", alpha=alpha, beta=beta)[0]
print(f"empirical level at sigma=3: {rejections / trials:.3f} (target ~ {delta})")

# Power across signal strengths, in units of the reference separation radius.
radius = sn.detection_threshold(1.0, 1.0, s, p, N)  # sqrt(s log(1 + sqrt(p)/s) / N)
print(f"\nreference separation radius: {radius:.4f}")
for mult in (1.0, 3.0, 5.0):
    detections = 0
    for child in np.random.SeedSequence(int(mult * 10)).spawn(trials):
        rng = np.random.default_rng(child)
        theta = sn.sample_sparse_theta(p, s, mult * radius, rng=rng)
        sample = sn.synthesize(sn.ModelSpec(theta=theta, sigma=1.0),
                               sn.Dimensions(N=N, p=p, s=s), child.spawn(1)[0])
        detections += sn.detect(sample, s, "low", alpha=alpha, beta=beta)[0]
    print(f"  ||theta|| = {mult:.0f} x radius: power = {detections / trials:.3f}")
