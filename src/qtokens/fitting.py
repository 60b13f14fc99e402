"""Nonlinear least-squares estimation of the scaling-law constants.

The seven constants (E, A, alpha, B, beta, c1, c2) are fitted to observed
accuracies by a damped least-squares iteration with a forward-difference
Jacobian. Damping follows the standard schedule (lambda starts at 1e-3,
grows 10x on a rejected step, shrinks 10x on an accepted one) applied to
a column-scaled normal matrix; the scale for each parameter is the running
maximum of its Jacobian column norm, which keeps badly scaled directions
from blowing up early in the search.

Goodness of fit is reported as R-squared and the Pearson correlation of
predictions against observations. Parameter uncertainty comes from
refitting on seeded bootstrap resamples.

Every fit runs on unclamped residuals, within at most ``MAX_EVALS``
residual evaluations and ``MAX_ITERS`` iterations per start.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import FittingError
from .scaling_law import ScalingConstants, _dq, _score

N_PARAMS = 7
MAX_EVALS = 2000
MAX_ITERS = 200
FTOL = 1e-10
LAMBDA0 = 1e-3
FD_REL_STEP = 1e-6
LAMBDA_MAX = 1e30
GRAD_TOL = 1e-12

EXPERIMENTS_CSV_HEADER = [
    "model_size_m",
    "data_label",
    "fraction_pct",
    "n_tokens",
    "train_loss",
    "eval_loss",
    "accuracy_pct",
    "diversity",
    "syntheticity",
]


@dataclass(frozen=True)
class ExperimentPoint:
    """One observed training run joined with its corpus quality scores."""

    n_millions: float
    d_tokens: float
    dr: float
    s: float
    accuracy: float
    train_loss: float | None = None
    eval_loss: float | None = None
    label: str = ""
    fraction_pct: int = 100

    def __post_init__(self):
        for name in ("n_millions", "d_tokens", "dr", "s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise FittingError(f"{name} must be finite and > 0, got {value}")
        if not (0.0 <= self.accuracy <= 1.0):
            raise FittingError(f"accuracy must be in [0, 1], got {self.accuracy}")


@dataclass
class FitReport:
    """Fit outcome: constants, diagnostics, and per-point residuals."""

    constants: ScalingConstants
    se: dict[str, float] | None
    r2: float
    pearson: float
    sse: float
    n_points: int
    n_evals: int
    n_iters: int
    converged: bool
    residuals: list[float]


def _point_arrays(points: Sequence[ExperimentPoint]):
    n = np.array([p.n_millions for p in points], dtype=float)
    d = np.array([p.d_tokens for p in points], dtype=float)
    dr = np.array([p.dr for p in points], dtype=float)
    s = np.array([p.s for p in points], dtype=float)
    y = np.array([p.accuracy for p in points], dtype=float)
    return n, d, dr, s, y


def model_predictions(theta: np.ndarray, n, d, dr, s, form: str) -> np.ndarray:
    """Vectorized unclamped model over experiment arrays; may return
    non-finite values for wild parameters (callers reject those trial steps)."""
    e, a, alpha, b, beta, c1, c2 = theta
    with np.errstate(all="ignore"):
        return _score(n, _dq(d, dr, s, c1, c2, form, np.exp), e, a, alpha, b, beta)


def _theta_of(consts: ScalingConstants) -> np.ndarray:
    return np.array(
        [consts.e, consts.a, consts.alpha, consts.b, consts.beta, consts.c1, consts.c2]
    )


def _consts_of(theta: np.ndarray, form: str) -> ScalingConstants:
    e, a, alpha, b, beta, c1, c2 = (float(v) for v in theta)
    return ScalingConstants(e=e, a=a, alpha=alpha, b=b, beta=beta, c1=c1, c2=c2, form=form)


def _levenberg_marquardt(
    residual: Callable[[np.ndarray], np.ndarray],
    theta0: np.ndarray,
) -> tuple[np.ndarray, float, int, int, bool]:
    """Minimize ||residual(theta)||^2; returns (theta, sse, evals, iters, converged)."""
    n_evals = 0

    def call(th):
        nonlocal n_evals
        n_evals += 1
        return residual(th)

    theta = np.asarray(theta0, dtype=float).copy()
    r = call(theta)
    sse = float(r @ r)
    if not math.isfinite(sse):
        raise FittingError("model is not finite at the initial guess")
    lam = LAMBDA0
    col_scale = np.zeros(theta.size)
    n_iters = 0
    converged = False
    while n_iters < MAX_ITERS and n_evals + theta.size < MAX_EVALS:
        n_iters += 1
        jac = np.empty((r.size, theta.size))
        for j in range(theta.size):
            h = FD_REL_STEP * max(abs(theta[j]), 1.0)
            probe = theta.copy()
            probe[j] += h
            jac[:, j] = (call(probe) - r) / h
        if not np.all(np.isfinite(jac)):
            jac = np.nan_to_num(jac, nan=0.0, posinf=0.0, neginf=0.0)
        col_scale = np.maximum(col_scale, np.linalg.norm(jac, axis=0))
        scale = np.where(col_scale > 0, col_scale, 1.0)
        gradient = jac.T @ r
        normal = jac.T @ jac
        if float(np.max(np.abs(gradient))) < GRAD_TOL:
            converged = True
            break
        accepted = False
        while n_evals < MAX_EVALS and lam <= LAMBDA_MAX:
            try:
                step = np.linalg.solve(normal + lam * np.diag(scale**2), -gradient)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            r_new = call(theta + step)
            sse_new = float(r_new @ r_new)
            if math.isfinite(sse_new) and sse_new < sse:
                improvement = (sse - sse_new) / sse
                theta = theta + step
                r = r_new
                sse = sse_new
                lam = max(lam / 10, 1e-15)
                accepted = True
                if improvement < FTOL or sse == 0.0:
                    converged = True
                break
            lam *= 10
        if not accepted:
            converged = bool(float(np.max(np.abs(gradient))) < math.sqrt(GRAD_TOL))
            break
        if converged:
            break
    return theta, sse, n_evals, n_iters, converged


def fit_constants(
    points: Sequence[ExperimentPoint],
    init: ScalingConstants,
    n_restarts: int = 0,
    restart_seed: int = 0,
) -> FitReport:
    """Fit the seven constants to observed accuracies, in the functional
    form of ``init``.

    The returned SSE is never worse than at the initial guess, and the
    whole procedure is deterministic for identical inputs. Residuals use
    the unclamped model, since a clamp would zero the gradient wherever
    predictions saturate. Each start may use up to ``MAX_EVALS`` residual
    evaluations and ``MAX_ITERS`` iterations.

    ``n_restarts`` extra runs start from seeded perturbations of the
    initial guess (each with its own evaluation budget); the best SSE
    wins. Off by default.
    """
    form = init.form
    if len(points) < N_PARAMS + 1:
        raise FittingError(
            f"need at least {N_PARAMS + 1} points to fit {N_PARAMS} parameters, "
            f"got {len(points)}"
        )
    n, d, dr, s, y = _point_arrays(points)

    def residual(theta):
        return model_predictions(theta, n, d, dr, s, form) - y

    theta0 = _theta_of(init)
    theta, sse, n_evals, n_iters, converged = _levenberg_marquardt(residual, theta0)
    for i in range(n_restarts):
        rng = np.random.default_rng([restart_seed, i])
        perturbed = theta0 * rng.uniform(0.5, 1.5, size=theta0.size) + rng.normal(
            0.0, 0.1, size=theta0.size
        )
        try:
            theta_r, sse_r, evals_r, iters_r, conv_r = _levenberg_marquardt(residual, perturbed)
        except FittingError:
            continue
        n_evals += evals_r
        n_iters += iters_r
        if sse_r < sse:
            theta, sse, converged = theta_r, sse_r, conv_r
    constants = _consts_of(theta, form)
    pred = model_predictions(theta, n, d, dr, s, form)
    residuals = (pred - y).tolist()
    return FitReport(
        constants=constants,
        se=None,
        r2=r_squared(pred.tolist(), y.tolist()),
        pearson=pearson(pred.tolist(), y.tolist()),
        sse=sse,
        n_points=len(points),
        n_evals=n_evals,
        n_iters=n_iters,
        converged=converged,
        residuals=residuals,
    )


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Product-moment correlation of two equal-length sequences."""
    if len(x) != len(y):
        raise FittingError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise FittingError("pearson needs at least 2 points")
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    sx = float(xc @ xc)
    sy = float(yc @ yc)
    if sx == 0.0 or sy == 0.0:
        raise FittingError("undefined correlation: zero variance")
    return float((xc @ yc) / math.sqrt(sx * sy))


def r_squared(predicted: Sequence[float], observed: Sequence[float]) -> float:
    """Coefficient of determination, 1 - SSE / SStot."""
    if len(predicted) != len(observed):
        raise FittingError(f"length mismatch: {len(predicted)} vs {len(observed)}")
    if len(observed) < 2:
        raise FittingError("r_squared needs at least 2 points")
    pred = np.asarray(predicted, dtype=float)
    obs = np.asarray(observed, dtype=float)
    sstot = float(np.sum((obs - obs.mean()) ** 2))
    if sstot == 0.0:
        raise FittingError("undefined r_squared: zero variance in observed")
    sse = float(np.sum((obs - pred) ** 2))
    return 1.0 - sse / sstot


PARAM_NAMES = ("E", "A", "alpha", "B", "beta", "c1", "c2")


def bootstrap_se(
    points: Sequence[ExperimentPoint],
    base: FitReport,
    n_resamples: int,
    seed: int,
) -> dict[str, float]:
    """Per-parameter standard errors from seeded with-replacement resamples.

    Each resample's index stream derives from (seed, resample index), so
    results do not depend on evaluation order. Refits start from the base
    fit's constants.
    """
    if n_resamples < 2:
        raise FittingError(f"n_resamples must be >= 2, got {n_resamples}")
    n = len(points)
    fitted = []
    failures = 0
    for i in range(n_resamples):
        rng = np.random.default_rng([seed, i])
        idx = rng.integers(0, n, size=n)
        resample = [points[j] for j in idx]
        try:
            report = fit_constants(resample, base.constants)
        except FittingError:
            failures += 1
            continue
        fitted.append(_theta_of(report.constants))
    if failures > n_resamples // 2:
        raise FittingError(
            f"bootstrap failed: {failures} of {n_resamples} resample fits errored"
        )
    if len(fitted) < 2:
        raise FittingError("bootstrap needs at least 2 successful resample fits")
    spread = np.std(np.vstack(fitted), axis=0, ddof=1)
    return {name: float(v) for name, v in zip(PARAM_NAMES, spread)}


def _quality_lookup(quality: Sequence[tuple]) -> dict[tuple[str, int], tuple[float, float]]:
    """Map (label, percent) to (Dr, S) from quality rows (label, pct, dr, s)."""
    lookup: dict[tuple[str, int], tuple[float, float]] = {}
    for label, pct, dr, s in quality:
        key = (label, int(pct))
        if key in lookup:
            raise FittingError(f"duplicate quality row for {key}")
        lookup[key] = (float(dr), float(s))
    return lookup


def _experiment_point(result: tuple, dr: float, s: float) -> ExperimentPoint:
    """Point for a result row (size_m, label, pct, n_tokens, train_loss,
    eval_loss, accuracy_pct) with its quality scores; accuracy percent
    becomes a fraction and a loss of None stays None."""
    size_m, label, pct, n_tokens, train_loss, eval_loss, acc_pct = result
    return ExperimentPoint(
        n_millions=float(size_m),
        d_tokens=float(n_tokens),
        dr=dr,
        s=s,
        accuracy=float(acc_pct) / 100.0,
        train_loss=float(train_loss) if train_loss is not None else None,
        eval_loss=float(eval_loss) if eval_loss is not None else None,
        label=label,
        fraction_pct=int(pct),
    )


def join_fixture_tables(
    results: Sequence[tuple],
    quality: Sequence[tuple],
) -> list[ExperimentPoint]:
    """Join result rows to quality rows on (label, percent).

    Result rows are (size_m, label, pct, n_tokens, train_loss, eval_loss,
    accuracy_pct); quality rows are (label, pct, dr, s). Accuracy percent
    is converted to a fraction.
    """
    lookup = _quality_lookup(quality)
    missing = sorted(
        {(row[1], int(row[2])) for row in results if (row[1], int(row[2])) not in lookup}
    )
    if missing:
        raise FittingError(f"result rows with no quality match: {missing}")
    return [_experiment_point(row, *lookup[(row[1], int(row[2]))]) for row in results]


def load_quality_csv(path: str) -> list[tuple]:
    """Read a quality CSV (data_label, fraction_pct, diversity,
    syntheticity) as (label, pct, dr, s) rows for ``load_experiments_csv``."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for row_no, row in enumerate(reader, start=2):
            try:
                rows.append(
                    (
                        row["data_label"],
                        int(row["fraction_pct"]),
                        float(row["diversity"]),
                        float(row["syntheticity"]),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise FittingError(f"quality CSV row {row_no}: {exc}") from exc
    return rows


def load_experiments_csv(
    path: str, quality: Sequence[tuple] | None = None
) -> list[ExperimentPoint]:
    """Read experiment points from CSV.

    The diversity/syntheticity columns may be empty when a separate
    quality table is supplied; in that case rows are joined on
    (data_label, fraction_pct).
    """
    lookup = _quality_lookup(quality) if quality is not None else None
    points = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        got = reader.fieldnames or []
        required = set(EXPERIMENTS_CSV_HEADER) - {"diversity", "syntheticity"}
        if not required.issubset(got):
            raise FittingError(
                f"experiments CSV missing columns: {sorted(required - set(got))}"
            )
        for row_no, row in enumerate(reader, start=2):
            try:
                label = row["data_label"]
                pct = int(row["fraction_pct"])
                div = row.get("diversity") or ""
                syn = row.get("syntheticity") or ""
                if div and syn:
                    dr, s = float(div), float(syn)
                elif lookup is not None:
                    if (label, pct) not in lookup:
                        raise FittingError(f"no quality row for {(label, pct)}")
                    dr, s = lookup[(label, pct)]
                else:
                    raise FittingError("diversity/syntheticity columns empty "
                                       "and no quality table supplied")
                result = (row["model_size_m"], label, pct, row["n_tokens"],
                          row.get("train_loss") or None, row.get("eval_loss") or None,
                          row["accuracy_pct"])
                points.append(_experiment_point(result, dr, s))
            except (FittingError, KeyError, TypeError, ValueError) as exc:
                raise FittingError(f"row {row_no}: {exc}") from exc
    return points


def fit_report_to_dict(report: FitReport, points: Sequence[ExperimentPoint], seed: int) -> dict:
    """JSON-ready view of a fit report, with the seed and a record per
    fitted point (the plotting command consumes those)."""
    return {
        "constants": report.constants.to_dict(),
        "se": report.se,
        "r2": report.r2,
        "pearson": report.pearson,
        "sse": report.sse,
        "n_points": report.n_points,
        "n_evals": report.n_evals,
        "n_iters": report.n_iters,
        "converged": report.converged,
        "residuals": report.residuals,
        "seed": seed,
        "points": [
            {
                "n_millions": point.n_millions,
                "d_tokens": point.d_tokens,
                "dr": point.dr,
                "s": point.s,
                "label": point.label,
                "fraction_pct": point.fraction_pct,
                "observed": point.accuracy,
                "predicted": point.accuracy + residual,
                "residual": residual,
            }
            for point, residual in zip(points, report.residuals)
        ],
    }
