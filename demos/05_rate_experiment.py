"""A seeded Monte Carlo rate experiment driven by the harness.

The grid grows the dimension with the per-split size (p = n/2) at zero
signal, so the mean squared-norm estimate should decay like the theoretical
null risk; the harness records every trial, aggregates per grid point, and
fits the log-log slope against n.
"""

import json
import tempfile
from pathlib import Path

import signalnorm as sn

config = sn.ExperimentConfig.from_dict({
    "seed": 31415,
    "task": "estimate-norm",
    "regime": "low",
    "replications": 150,
    "n": [64, 128, 256],
    "p_rule": "n/2",
    "s_rule": "p",          # dense branch
    "sigma": [1.0],
    "magnitude": [0.0],     # null signal
})

records = sn.run_trials(config)
errors = sum(r.error is not None for r in records)
print(f"ran {len(records)} trials ({errors} errored)")

# The report goes to a temporary directory, removed once the summary is read.
with tempfile.TemporaryDirectory(prefix="signalnorm_rates_") as out_dir:
    paths = sn.report(records, out_dir=Path(out_dir))
    print(f"wrote {paths['records']} and {paths['summary']}")
    summary = json.loads(Path(paths["summary"]).read_text())

# At zero signal the norm error is the estimate itself, so the mean squared
# norm error the report fits against n is the mean squared-norm estimate.
print("\nmean squared-norm estimate per n:",
      [(pt["n"], round(pt["mse_lambda"], 4)) for pt in summary["points"]])
fit = summary["rate_fits"]["mse_lambda"]
print(f"log-log slope: {fit['slope']:.3f}  (null risk here scales like sqrt(p)/n ~ n^-0.5)")
first = summary["points"][0]
print(f"first grid point aggregates: n={first['n']} p={first['p']} "
      f"mse_q={first['mse_q']:.5f} trials={first['trials']}")
