"""Monte Carlo experiment engine: trial execution, aggregation, rate fitting.

A configuration describes a grid over the per-split size n (with the ambient
dimension and sparsity given as small expressions of n, so they can grow
together), noise levels, and signal magnitudes.  Every trial derives its own
seed from the configuration seed and its grid/replication index, so results
do not depend on execution order, and a large run splits its estimates and
null calibrations, as one batch, over workers forked from the caller
(:mod:`signalnorm._workers`).  Trials that raise are recorded with an error
tag and excluded from aggregates, never silently dropped.
"""

from __future__ import annotations

import ast
import csv
import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import _workers, calibration, lower_bounds, pipeline
from .model import Dimensions, ModelSpec, _checked_seed, sample_sparse_theta, synthesize
from .quadratic import FunctionalEstimate, split_parts

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "RateFit",
    "eval_rule",
    "run_trials",
    "run_single_trial",
    "fit_rate",
    "summarize",
    "metric_points",
    "report",
    "read_records",
    "CSV_COLUMNS",
]

_RULE_FUNCS = {
    "sqrt": math.sqrt,
    "floor": math.floor,
    "ceil": math.ceil,
    "log": math.log,
    "min": min,
    "max": max,
}

_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.FloorDiv: lambda a, b: a // b,
    ast.Mod: lambda a, b: a % b,
    ast.Pow: lambda a, b: a**b,
}


def eval_rule(expr: str, **variables) -> float:
    """Evaluate a small arithmetic rule such as ``"p = n/2"`` or
    ``"floor(sqrt(p))"`` over the supplied variables.

    Only numbers, the named variables, +-*/ // % **, and sqrt/floor/ceil/log/min/max
    are allowed, all in floats; anything else, and a rule that fails arithmetically
    or gives no finite number, raises ``ValueError``.
    """
    body = expr.split("=", 1)[1] if "=" in expr else expr
    try:
        tree = ast.parse(body.strip(), mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse rule {expr!r}: {exc}") from None

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name):
            if node.id in variables:
                return float(variables[node.id])
            raise ValueError(f"unknown variable {node.id!r} in rule {expr!r}")
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            value = ev(node.operand)
            return -value if isinstance(node.op, ast.USub) else value
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return _BINOPS[type(node.op)](ev(node.left), ev(node.right))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _RULE_FUNCS
            and not node.keywords
        ):
            return float(_RULE_FUNCS[node.func.id](*[ev(a) for a in node.args]))
        raise ValueError(f"unsupported construct in rule {expr!r}")

    try:
        value = ev(tree)
        if not math.isfinite(value):
            raise ValueError(f"rule {expr!r} evaluated to {value}")
    except (ArithmeticError, TypeError) as exc:  # 1/0, 2.0**2000, min(), (-1)**0.5
        raise ValueError(f"rule {expr!r} failed: {exc}") from None
    return value


def _rule_int(expr: str, low: int, high: int | None = None, **variables) -> int:
    value = eval_rule(expr, **variables)
    if abs(value - round(value)) > 1e-9:
        raise ValueError(f"rule {expr!r} evaluated to non-integer {value}")
    value = int(round(value))
    if value < low or (high is not None and value > high):
        raise ValueError(f"rule {expr!r} gave {value}, outside [{low}, {high}]")
    return value


@dataclass
class ExperimentConfig:
    """Grid and tuning for one Monte Carlo experiment."""

    seed: int
    task: str = "estimate-norm"  # "estimate-norm" | "detect"
    regime: str = "auto"  # "low" | "high" | "auto"
    replications: int = 1
    n: list[int] = field(default_factory=lambda: [64])
    p_rule: str = "n/2"
    s_rule: str = "floor(sqrt(p))"
    sigma: list[float] = field(default_factory=lambda: [1.0])
    magnitude: list[float] = field(default_factory=lambda: [0.0])
    alpha: float = 4.0
    beta: float | None = None
    c1: float = 1.5
    delta: float = 0.1
    calib_trials: int = 2000
    design: str = "standard-normal"
    noise: str = "standard-normal"
    pattern: str = "equal"

    def __post_init__(self):
        self._check_types()
        _checked_seed(self.seed)
        if self.task not in ("estimate-norm", "detect"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.regime not in ("low", "high", "auto"):
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        for name in ("n", "sigma", "magnitude"):
            if not getattr(self, name):
                raise ValueError(f"{name} grid is empty")
        if min(self.n) < 2:  # each split block needs 2 rows for the pair sum
            raise ValueError(f"every n entry must be >= 2, got {self.n}")
        for name in ("alpha", "beta", "c1"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.calib_trials < 1:
            raise ValueError("calib_trials must be >= 1")
        # Noise levels, magnitudes, laws and pattern by the model's own rules, at
        # load time rather than as an error tag on every trial or at the first draw.
        for sigma in self.sigma:
            ModelSpec(theta=np.zeros(1), sigma=float(sigma), design=self.design, noise=self.noise)
        for magnitude in self.magnitude:
            sample_sparse_theta(1, 1, float(magnitude), self.pattern, rng=np.random.default_rng(0))

    def _check_types(self) -> None:
        """Reject a value whose JSON type is not its field's annotation, before any use."""
        kinds = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a number"),
                 "str": (str, "a string")}

        def check(name, value, kind):
            cls, noun = kinds[kind]
            if not isinstance(value, cls) or isinstance(value, bool):
                raise ValueError(f"{name} must be {noun}, got {value!r}")

        for f in fields(self):
            value, kind = getattr(self, f.name), f.type.removesuffix(" | None")
            if kind.startswith("list["):
                if not isinstance(value, (list, tuple)):
                    raise ValueError(f"{f.name} must be a list, got {value!r}")
                for entry in value:
                    check(f"every {f.name} entry", entry, kind[5:-1])
            elif value is not None or kind == f.type:
                check(f.name, value, kind)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "seed" not in data:
            raise ValueError("config requires a seed")
        # Keys a run would ignore; a default cannot be told from a given value
        # once the config is built, so they are checked here.
        if "calib_trials" in data and data.get("beta") is not None:
            raise ValueError("calib_trials: for calibration, not a given beta")
        if "c1" in data and data.get("regime") == "low":
            raise ValueError("c1: for the high regime, not regime low")
        detect_only = [k for k in ("beta", "calib_trials") if data.get(k) is not None]
        if detect_only and data.get("task") != "detect":
            raise ValueError(f"{', '.join(detect_only)}: for task detect only")
        return cls(**data)

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def fingerprint(self) -> str:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        blob = json.dumps(payload, sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def grid_points(self) -> list[dict]:
        """Expand the grid: one point per (n, sigma, magnitude) combination.
        Each point also fixes the regime its trials run ("auto" picks low iff
        p <= n/2) and `n_used`, the rows they draw and consume, parts * n."""
        fp = self.fingerprint()
        points = []
        for n in map(int, self.n):
            p = _rule_int(self.p_rule, 2, None, n=n)
            s = _rule_int(self.s_rule, 1, p, n=n, p=p)
            regime = self.regime
            if regime == "auto":
                regime = "low" if p <= n // 2 else "high"
            shared = {"n": n, "p": p, "s": s, "regime": regime,
                      "n_used": split_parts(regime, s, p) * n}
            for sigma in self.sigma:
                for magnitude in self.magnitude:
                    idx = len(points)
                    points.append({"config_id": f"{fp}:{idx}", "index": idx, **shared,
                                   "sigma": float(sigma), "magnitude": float(magnitude)})
        return points


@dataclass(kw_only=True)
class TrialRecord:
    """One Monte Carlo replication: one ``records.csv`` row, with errors
    recomputable from its fields.  A record without an error tag holds all
    four estimates (`q_hat`, `lambda_hat`, `err_q`, `err_lambda`).  `n_used`
    is the row budget of its grid point, parts * n: the N of its detection
    threshold and of its reference rates."""

    config_id: str
    seed: int
    n: int
    p: int
    s: int
    sigma: float
    true_q: float
    q_hat: float | None = None
    lambda_hat: float | None = None
    decision: int | None = None
    err_q: float | None = None
    err_lambda: float | None = None
    error: str | None = None
    n_used: int

    @property
    def true_lambda(self) -> float:
        return float(np.sqrt(self.true_q))


CSV_COLUMNS = [f.name for f in fields(TrialRecord)]

# How read_records parses each column, by its TrialRecord annotation: the
# type, and whether an empty cell reads as None ("... | None").
_COLUMN_TYPES = {
    f.name: ({"str": str, "int": int, "float": float}[f.type.split(" ")[0]], "None" in f.type)
    for f in fields(TrialRecord)
}


@dataclass
class RateFit:
    """Least squares fit of log y on log x."""

    slope: float
    intercept: float
    r_squared: float
    points: list


def _trial_seed(config_seed: int, point_index: int, rep: int) -> int:
    ss = np.random.SeedSequence(entropy=config_seed, spawn_key=(point_index, rep))
    return int(ss.generate_state(1, np.uint64)[0])


# Errors that tag a trial; any other exception ends the run.
_TAGGED = (ValueError, ArithmeticError, np.linalg.LinAlgError)


def _tag(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _calibration_args(config: ExperimentConfig) -> dict:
    """The arguments of :func:`signalnorm.calibration.calibrate_beta` that a
    detect task takes from its config."""
    return dict(delta=config.delta, alpha=config.alpha, c1=config.c1, trials=config.calib_trials,
                seed=config.seed, design=config.design, noise=config.noise)


def _estimated_trial(
    config: ExperimentConfig, point: dict, trial_seed: int
) -> tuple[TrialRecord, FunctionalEstimate | None]:
    """One replication's record with its estimates, and the estimate; or the
    record with its error tagged, and None."""
    n, p, s = point["n"], point["p"], point["s"]
    ss_theta, ss_sample = np.random.SeedSequence(trial_seed).spawn(2)
    theta = sample_sparse_theta(
        p, s, point["magnitude"], pattern=config.pattern, rng=np.random.default_rng(ss_theta)
    )
    record = TrialRecord(config_id=point["config_id"], seed=trial_seed, n=n, p=p, s=s,
                         sigma=point["sigma"], true_q=float(theta @ theta),
                         n_used=point["n_used"])
    try:
        spec = ModelSpec(theta=theta, sigma=point["sigma"], design=config.design,
                         noise=config.noise)
        sample = synthesize(spec, Dimensions(N=point["n_used"], p=p, s=s), ss_sample)
        est = pipeline.estimate(sample, s, point["regime"], config.alpha, config.c1)
    except _TAGGED as exc:
        record.error = _tag(exc)
        return record, None
    record.q_hat = est.q_hat
    record.lambda_hat = est.lambda_hat
    record.err_q = est.q_hat - record.true_q
    record.err_lambda = est.lambda_hat - record.true_lambda
    return record, est


def _estimates(config: ExperimentConfig, point: dict, lo: int, hi: int) -> list[tuple]:
    """Replications lo..hi-1 at `point`, each as :func:`_estimated_trial` gives it."""
    return [_estimated_trial(config, point, _trial_seed(config.seed, point["index"], rep))
            for rep in range(lo, hi)]


def _decide(config: ExperimentConfig, record: TrialRecord, est: FunctionalEstimate,
            beta: float | None) -> None:
    """Record the decision at `beta`, calibrated by :func:`signalnorm.pipeline.decide`
    when None, or tag the error that deciding raised."""
    try:
        record.decision = pipeline.decide(est, record.s, record.p, beta,
                                          **_calibration_args(config))[0]
    except _TAGGED as exc:
        record.error = _tag(exc)


def run_single_trial(config: ExperimentConfig, point: dict, trial_seed: int) -> TrialRecord:
    """Execute one replication at one grid point; exceptions become error tags.
    A detect task decides at the configured beta, or without one at a beta
    calibrated for this trial alone: the one :func:`run_trials` calibrates for n."""
    record, est = _estimated_trial(config, point, trial_seed)
    if config.task == "detect" and est is not None:
        _decide(config, record, est, config.beta)
    return record


def _calibration_jobs(config: ExperimentConfig, points: list[dict]) -> dict:
    """The null calibration job of each n, by n, when a detect task has no beta."""
    if config.task != "detect" or config.beta is not None:
        return {}
    jobs = {}
    for pt in points:
        if pt["n"] not in jobs:
            jobs[pt["n"]] = calibration._job(p=pt["p"], N=pt["n_used"], s=pt["s"],
                                             regime=pt["regime"], **_calibration_args(config))
    return jobs


def run_trials(config: ExperimentConfig) -> list[TrialRecord]:
    """All replications over the whole grid, deterministically seeded, in grid order.

    Trial seeds depend only on (config seed, grid index, replication index),
    so any execution order yields the same multiset of records.  The run makes
    one :func:`signalnorm._workers.run` batch of every grid point's estimates
    and, for a detect task without a beta, one null calibration for each n
    (p, s, the regime and the rows used are functions of n); then it makes
    every decision, in trial order.  A large batch splits each point's
    replications and each calibration's null trials over workers forked from
    this process, each with single-threaded BLAS, where that is safe; a
    trial, or a calibration, gives what it gives serially, bit for bit, save
    the exception the README's "Simulation config schema" names.  The caller's
    environment and BLAS thread count are left as they are: `lowdim.ols_fit`
    and the wide fit's Gram rows set the count to one only around their work.

    A calibration that raises a tagged error tags every trial at its n whose
    estimate succeeded; at an n where every estimate failed, its result goes
    unused.  An exception that is not tagged is raised from the earliest
    trial, estimates before calibrations.
    """
    points = config.grid_points()
    jobs = _calibration_jobs(config, points)
    results = _workers.run(
        [(_estimates, (config, pt), config.replications, pt["n_used"] * (pt["p"] + 1))
         for pt in points] + [calibration._call(job) for job in jobs.values()])
    trials = []
    for result in results[:len(points)]:
        if isinstance(result, Exception):
            raise result
        trials += result
    betas = {}  # n -> beta, or the tagged error its calibration raised
    for (n, job), stats in zip(jobs.items(), results[len(points):]):
        if isinstance(stats, _TAGGED):
            betas[n] = stats
        elif isinstance(stats, Exception):
            raise stats
        else:
            betas[n] = calibration._beta(job, stats)
    for record, est in trials:
        if config.task == "detect" and est is not None:
            beta = betas.get(record.n, config.beta)
            if isinstance(beta, Exception):
                record.error = _tag(beta)
            else:
                _decide(config, record, est, beta)
    return [record for record, _ in trials]


def fit_rate(points) -> RateFit:
    """Ordinary least squares of log y on log x over (x, y) pairs."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 2:
        raise ValueError(f"need at least 2 points, got {len(pts)}")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise ValueError("all coordinates must be positive for a log-log fit")
    logx = np.log([x for x, _ in pts])
    logy = np.log([y for _, y in pts])
    slope, intercept = np.polyfit(logx, logy, 1)
    resid = logy - (slope * logx + intercept)
    ss_tot = float(((logy - logy.mean()) ** 2).sum())
    ss_res = float((resid**2).sum())
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
        points=list(zip(logx.tolist(), logy.tolist())),
    )


def _groups(records: list[TrialRecord], key) -> list[list[TrialRecord]]:
    """The records grouped by ``key(record)``, groups and members in first-seen order."""
    groups: dict = {}
    for rec in records:
        groups.setdefault(key(rec), []).append(rec)
    return list(groups.values())


def summarize(records: list[TrialRecord], delta: float = 0.1) -> dict:
    """Per-grid-point aggregates: mean/median errors, upper-delta quantiles of
    absolute errors, rejection rates, and empirical/theoretical risk ratios.

    Points follow the records' order, which :func:`run_trials` makes the grid
    order.  The reference rates are taken at each point's row budget
    `n_used`.  Trials with an error tag are counted and excluded from the
    statistics.
    """
    points = []
    for group in _groups(records, lambda r: r.config_id):
        ok = [r for r in group if r.error is None]
        rec0 = group[0]
        entry = {
            "config_id": rec0.config_id,
            "n": rec0.n,
            "p": rec0.p,
            "s": rec0.s,
            "sigma": rec0.sigma,
            "trials": len(group),
            "errors": len(group) - len(ok),
        }
        if ok:
            err_q = np.array([r.err_q for r in ok])
            err_l = np.array([r.err_lambda for r in ok])
            entry.update(
                {
                    "mean_q_hat": float(np.mean([r.q_hat for r in ok])),
                    "mean_lambda_hat": float(np.mean([r.lambda_hat for r in ok])),
                    "mse_q": float(np.mean(err_q**2)),
                    "mse_lambda": float(np.mean(err_l**2)),
                    "median_abs_err_q": float(np.median(np.abs(err_q))),
                    "median_abs_err_lambda": float(np.median(np.abs(err_l))),
                    "abs_err_q_upper_quantile": float(np.quantile(np.abs(err_q), 1 - delta)),
                    "abs_err_lambda_upper_quantile": float(np.quantile(np.abs(err_l), 1 - delta)),
                }
            )
            base = lower_bounds.rate_sq(rec0.s, rec0.p, rec0.n_used)  # psi^2, constants 1
            phi = float(rec0.sigma * np.sqrt(base))
            entry["theoretical_phi"] = phi
            entry["ratio_lambda_mse_to_phi_sq"] = (
                entry["mse_lambda"] / phi**2 if phi > 0 else None
            )
            q_rate = lower_bounds.q_lower_bound(rec0.p, rec0.n_used, rec0.s, rec0.sigma,
                                                rec0.true_lambda)
            entry["theoretical_q"] = q_rate
            entry["ratio_q_mse_to_rate_sq"] = entry["mse_q"] / q_rate**2 if q_rate > 0 else None
            decisions = [r.decision for r in ok if r.decision is not None]
            if decisions:
                entry["rejection_rate"] = float(np.mean(decisions))
        points.append(entry)
    return {"delta": delta, "points": points}


_METRIC_TERMS = {
    "mse_lambda": lambda r: r.err_lambda**2,
    "mse_q": lambda r: r.err_q**2,
    "mean_abs_err_q": lambda r: abs(r.err_q),
    "mean_abs_err_lambda": lambda r: abs(r.err_lambda),
}


def metric_points(records: list[TrialRecord], metric: str) -> list[tuple[int, float]]:
    """``(n, y)`` per per-split size n, ascending, where y is `metric` over
    every trial at that n: "mse_lambda", "mse_q", "mean_abs_err_q" or
    "mean_abs_err_lambda".  Trials with an error tag are skipped.

    Grouping is by n alone, not by grid point as in :func:`summarize`, so
    every sigma and magnitude at one n pools into one point.
    """
    try:
        term = _METRIC_TERMS[metric]
    except KeyError:
        raise ValueError(f"unknown metric {metric!r}") from None
    groups = _groups([r for r in records if r.error is None], lambda r: r.n)
    return sorted((g[0].n, float(np.mean([term(r) for r in g]))) for g in groups)


def report(records: list[TrialRecord], out_dir: str | Path = ".", delta: float = 0.1) -> dict:
    """Write ``records.csv`` (fixed column order) and ``summary.json``.

    Returns the paths written.  The summary's ``rate_fits`` holds the
    log-log fits of :func:`metric_points` against n for "mse_lambda" and
    "mse_q", each present when at least two sizes have a positive value.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "records.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows([getattr(rec, col) for col in CSV_COLUMNS] for rec in records)
    summary = summarize(records, delta=delta)
    fits = {}
    for metric in ("mse_lambda", "mse_q"):
        pts = metric_points(records, metric)
        if len(pts) >= 2 and all(y > 0 for _, y in pts):
            fits[metric] = fit_rate(pts)
    if fits:
        summary["rate_fits"] = {name: asdict(f) for name, f in fits.items()}
    json_path = out_dir / "summary.json"
    with open(json_path, "w") as fh:
        json.dump(summary, fh, indent=2)
    return {"records": csv_path, "summary": json_path}


def read_records(path: str | Path) -> list[TrialRecord]:
    """Read back a ``records.csv`` written by :func:`report`.  A row not as wide
    as the header, a cell that does not parse, and a row without an error tag
    that misses an estimate raise ``ValueError`` naming the line, and the
    column for a bad cell."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in CSV_COLUMNS if c not in (reader.fieldnames or [])]
        if missing:
            raise ValueError(f"{path}: missing columns {missing}")
        for row in reader:
            where = f"{path}: line {reader.line_num}"
            if None in row or None in row.values():
                raise ValueError(f"{where} is not as wide as the header")
            values = {}
            for name, (kind, optional) in _COLUMN_TYPES.items():
                try:
                    values[name] = None if optional and not row[name] else kind(row[name])
                except ValueError as exc:
                    raise ValueError(f"{where}, column {name}: {exc}") from None
            rec = TrialRecord(**values)
            if rec.error is None and None in (rec.q_hat, rec.lambda_hat, rec.err_q, rec.err_lambda):
                raise ValueError(f"{where} has no error tag but misses an estimate")
            records.append(rec)
    return records
