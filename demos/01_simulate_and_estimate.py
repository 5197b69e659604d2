"""Generate a synthetic regression sample and estimate its signal norm.

The model is Y = X theta + sigma xi with standardized independent entries.
We draw one sample in the tall regime (more rows than columns) and one in
the wide regime, then run the split-sample pipeline on each with the
matching preliminary stage.
"""

import tempfile
from pathlib import Path

import numpy as np

import signalnorm as sn

# A 3-sparse signal of Euclidean norm 2 in dimension 40.
rng = np.random.default_rng(0)
theta = sn.sample_sparse_theta(p=40, s=3, magnitude=2.0, rng=rng)
print(f"true ||theta||_2 = {np.linalg.norm(theta):.4f}, support = {np.flatnonzero(theta)}")

# Tall design: 400 rows, 40 columns -> least squares pipeline.
spec = sn.ModelSpec(theta=theta, sigma=1.0)
tall = sn.synthesize(spec, sn.Dimensions(N=400, p=40, s=3), seed=42)
est_low = sn.estimate(tall, s=3, regime="low", alpha=1.0)
print("\ntall regime  (N=400, p=40):")
print(f"  branch = {est_low.branch}, sigma_hat = {est_low.sigma_hat:.4f}")
print(f"  squared-norm estimate = {est_low.q_hat:.4f}  (truth {theta @ theta:.4f})")
print(f"  norm estimate         = {est_low.lambda_hat:.4f}  (truth 2.0)")

# Wide design: 360 rows, 240 columns -> square-root sorted-L1 pipeline.
theta_wide = sn.sample_sparse_theta(p=240, s=3, magnitude=2.0, rng=rng)
wide = sn.synthesize(
    sn.ModelSpec(theta=theta_wide, sigma=1.0), sn.Dimensions(N=360, p=240, s=3), seed=43
)
est_high = sn.estimate(wide, s=3, regime="high", alpha=1.0)
print("\nwide regime  (N=360, p=240, three-way split):")
print(f"  branch = {est_high.branch}, parts = {est_high.parts}, "
      f"sigma_hat = {est_high.sigma_hat:.4f}")
print(f"  squared-norm estimate = {est_high.q_hat:.4f}  (truth {theta_wide @ theta_wide:.4f})")
print(f"  norm estimate         = {est_high.lambda_hat:.4f}  (truth 2.0)")

# Samples round-trip through CSV; the ground truth goes to a sidecar.  Both
# files live in a temporary directory, removed once the sample is read back.
with tempfile.TemporaryDirectory(prefix="signalnorm_demo_") as out_dir:
    path = sn.write_sample(tall, Path(out_dir) / "sample.csv")
    back = sn.read_sample(path)
    print(f"\nwrote {path.name} and {path.name}.truth.json; round-trip exact: "
          f"{np.array_equal(back.X, tall.X) and np.array_equal(back.Y, tall.Y)}")
