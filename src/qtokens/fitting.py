"""Nonlinear least-squares estimation of the scaling-law constants.

The seven constants (E, A, alpha, B, beta, c1, c2) are fitted to observed
accuracies by Levenberg-Marquardt with a closed-form Jacobian. Damping
follows the standard schedule (lambda starts at 1e-3, grows 10x on a
rejected step, shrinks 10x on an accepted one) applied to a column-scaled
normal matrix; the scale for each parameter is the running maximum of its
Jacobian column norm, which keeps badly scaled directions from blowing up
early in the search.

One solver runs a stack of problems at once, keeping the damping, the
accept/reject decision and the stopping rule per row, so that restarts
and bootstrap resamples cost one batched linear solve and one stacked
model evaluation per trial step rather than one each.

Goodness of fit is reported as R-squared and the Pearson correlation of
predictions against observations. Parameter uncertainty comes from
refitting on seeded bootstrap resamples.

Every fit runs on unclamped residuals, for at most ``MAX_ITERS``
iterations per start. Within an iteration, a start tries steps with
growing damping until one lowers its SSE or lambda passes ``LAMBDA_MAX``,
so an iteration makes at most about 46 trial evaluations.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import FittingError
from .scaling_law import ScalingConstants, _dq, _score

N_PARAMS = 7
MAX_ITERS = 200
FTOL = 1e-10
LAMBDA0 = 1e-3
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
    bootstrap_converged: int | None = None


def _point_arrays(points: Sequence[ExperimentPoint]) -> np.ndarray:
    """(5, m) stack of N, D, Dr, S and accuracy."""
    return np.array([[p.n_millions for p in points], [p.d_tokens for p in points],
                     [p.dr for p in points], [p.s for p in points],
                     [p.accuracy for p in points]], dtype=float)


def _params(theta: np.ndarray):
    """The seven parameters of a (7,) or (K, 7) theta, shaped to broadcast
    over (m,) or (K, m) data."""
    return np.asarray(theta, dtype=float).T[..., None]


def model_predictions(theta: np.ndarray, n, d, dr, s, form: str) -> np.ndarray:
    """Vectorized unclamped model over experiment arrays, for a (7,) theta
    with (m,) data or a (K, 7) stack with (K, m) data. It may return
    non-finite values for wild parameters; the solver rejects those trial
    steps and silences numpy's warnings about them."""
    e, a, alpha, b, beta, c1, c2 = _params(theta)
    return _score(n, _dq(d, dr, s, c1, c2, form, np.exp), e, a, alpha, b, beta)


def model_jacobian(theta: np.ndarray, n, d, dr, s, form: str) -> np.ndarray:
    """Closed-form derivative of ``model_predictions`` with respect to the
    seven parameters, one row per parameter: (7, m) for (m,) data, or
    (K, 7, m) for a stack."""
    _, a, alpha, b, beta, c1, c2 = _params(theta)
    dq = _dq(d, dr, s, c1, c2, form, np.exp)
    jac = np.empty(dq.shape[:-1] + (N_PARAMS,) + dq.shape[-1:])
    jac[..., 0, :] = 1.0
    jac[..., 1, :] = 1 / n**alpha  # N^-alpha
    jac[..., 2, :] = -a * np.log(n) * jac[..., 1, :]
    jac[..., 3, :] = 1 / dq**beta  # Dq^-beta
    jac[..., 4, :] = -b * np.log(dq) * jac[..., 3, :]
    # c1 and c2 act through ln Dq, whose slopes are Dr or ln Dr and S or ln S.
    jac[..., 5, :] = -b * beta * jac[..., 3, :]
    jac[..., 6, :] = jac[..., 5, :] * (s if form in ("F1", "F2") else np.log(s))
    jac[..., 5, :] *= dr if form in ("F1", "F3") else np.log(dr)
    return jac


def _theta_of(consts: ScalingConstants) -> np.ndarray:
    return np.array(
        [consts.e, consts.a, consts.alpha, consts.b, consts.beta, consts.c1, consts.c2]
    )


def _consts_of(theta: np.ndarray, form: str) -> ScalingConstants:
    e, a, alpha, b, beta, c1, c2 = (float(v) for v in theta)
    return ScalingConstants(e=e, a=a, alpha=alpha, b=b, beta=beta, c1=c1, c2=c2, form=form)


def _levenberg_marquardt(theta0: np.ndarray, data: np.ndarray, picks: np.ndarray, form: str):
    """Minimize ||model(theta) - y||^2 for each of K stacked problems.

    ``theta0`` is (K, 7), ``data`` the (5, m) stack of N, D, Dr, S and y,
    and row i of ``picks`` (K, m') the indices of the points problem i
    fits. Every row follows its own damping schedule, exactly as if it
    were solved alone. Returns per-row (theta, residuals, sse, evals,
    iters, converged); a row whose model is not finite at its start keeps
    a non-finite SSE and is never iterated.
    """

    def residuals(th, part):
        r = model_predictions(th, *part[:4], form) - part[4]
        return r, np.einsum("km,km->k", r, r)

    theta = np.array(theta0, dtype=float)
    k = len(theta)
    evals, iters, converged = np.ones(k, dtype=int), np.zeros(k, dtype=int), np.zeros(k, bool)
    with np.errstate(all="ignore"):
        sub = data[:, picks]
        r, sse = residuals(theta, sub)
        # The working set: the rows still iterating, with their state and data.
        rows = np.flatnonzero(np.isfinite(sse))
        th, res, ss = theta[rows], r[rows], sse[rows]
        sub = sub if rows.size == k else sub[:, rows]
        lm = np.full(rows.size, LAMBDA0)
        col_scale = np.zeros((rows.size, N_PARAMS))
        ev, it = evals[rows], iters[rows]
        while rows.size:
            it += 1
            ev += 1  # one Jacobian counts as one evaluation
            jac_t = model_jacobian(th, *sub[:4], form)
            jac_t[~np.isfinite(jac_t)] = 0.0
            normal = jac_t @ jac_t.transpose(0, 2, 1)
            col_scale = np.maximum(col_scale, np.sqrt(normal.diagonal(axis1=1, axis2=2)))
            damping = np.eye(N_PARAMS) * np.where(col_scale > 0, col_scale, 1.0)[:, None, :] ** 2
            gradient = (jac_t @ res[..., None])[..., 0]
            del jac_t  # the largest array here; the trial rounds do not need it
            grad_max = np.max(np.abs(gradient), axis=1)
            conv = grad_max < GRAD_TOL
            accepted = np.zeros(rows.size, dtype=bool)
            while True:
                at = np.flatnonzero(~conv & ~accepted & (lm <= LAMBDA_MAX))
                if not at.size:
                    break
                system = normal[at] + lm[at, None, None] * damping[at]
                try:
                    step = np.linalg.solve(system, -gradient[at, :, None])[..., 0]
                except np.linalg.LinAlgError:  # find the singular rows one by one
                    step = np.zeros((at.size, N_PARAMS))
                    solved = np.ones(at.size, dtype=bool)
                    for i in range(at.size):
                        try:
                            step[i] = np.linalg.solve(
                                system[i : i + 1], -gradient[at[i : i + 1], :, None])[0, :, 0]
                        except np.linalg.LinAlgError:
                            solved[i] = False
                    lm[at[~solved]] *= 10
                    at, step = at[solved], step[solved]
                trial = th[at] + step
                r_new, sse_new = residuals(trial, sub if at.size == rows.size else sub[:, at])
                ev[at] += 1
                better = np.isfinite(sse_new) & (sse_new < ss[at])
                lm[at[~better]] *= 10
                won = at[better]
                improvement = (ss[won] - sse_new[better]) / ss[won]
                th[won], res[won], ss[won] = trial[better], r_new[better], sse_new[better]
                lm[won] = np.maximum(lm[won] / 10, 1e-15)
                conv[won] = (improvement < FTOL) | (ss[won] == 0.0)
                accepted[won] = True
            # A row that found no better step stops, converged if its gradient is small.
            conv |= ~accepted & (grad_max < math.sqrt(GRAD_TOL))
            keep = accepted & ~conv & (it < MAX_ITERS)
            if not keep.all():  # retire the rows that are done
                done, gone = ~keep, rows[~keep]
                theta[gone], r[gone], sse[gone] = th[done], res[done], ss[done]
                evals[gone], iters[gone], converged[gone] = ev[done], it[done], conv[done]
                rows, th, res, ss, lm, col_scale, ev, it = (
                    x[keep] for x in (rows, th, res, ss, lm, col_scale, ev, it))
                sub = sub[:, keep]
    return theta, r, sse, evals, iters, converged


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
    predictions saturate. Each start runs for at most ``MAX_ITERS``
    iterations; ``n_evals`` counts its model evaluations, a Jacobian
    counting as one.

    ``n_restarts`` extra starts are seeded perturbations of the initial
    guess, solved in one stack with it; the best SSE wins, the earliest
    start on a tie, and a restart whose model is not finite at its start
    is skipped. Off by default.
    """
    if n_restarts < 0:
        raise FittingError(f"n_restarts must be >= 0, got {n_restarts}")
    form = init.form
    if len(points) < N_PARAMS + 1:
        raise FittingError(
            f"need at least {N_PARAMS + 1} points to fit {N_PARAMS} parameters, "
            f"got {len(points)}"
        )
    data = _point_arrays(points)
    starts = [_theta_of(init)]
    for i in range(n_restarts):
        rng = np.random.default_rng([restart_seed, i])
        starts.append(starts[0] * rng.uniform(0.5, 1.5, size=N_PARAMS)
                      + rng.normal(0.0, 0.1, size=N_PARAMS))
    picks = np.broadcast_to(np.arange(len(points)), (len(starts), len(points)))
    theta, r, sse, evals, iters, converged = _levenberg_marquardt(
        np.array(starts), data, picks, form)
    ok = np.isfinite(sse)
    if not ok[0]:
        raise FittingError("model is not finite at the initial guess")
    best = int(np.argmin(np.where(ok, sse, np.inf)))
    residuals = r[best]
    pred = residuals + data[4]
    return FitReport(
        constants=_consts_of(theta[best], form),
        se=None,
        r2=r_squared(pred.tolist(), data[4].tolist()),
        pearson=pearson(pred.tolist(), data[4].tolist()),
        sse=float(sse[best]),
        n_points=len(points),
        n_evals=int(evals[ok].sum()),
        n_iters=int(iters[ok].sum()),
        converged=bool(converged[best]),
        residuals=residuals.tolist(),
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
    results do not depend on evaluation order. All refits start from the
    base fit's constants and are solved in one stack, each row exactly as
    it would be alone. How many of them converged within ``MAX_ITERS`` is
    recorded on ``base.bootstrap_converged``: the spread of a refit that
    stopped at the cap reflects the cap as much as the data.
    """
    if n_resamples < 2:
        raise FittingError(f"n_resamples must be >= 2, got {n_resamples}")
    n = len(points)
    idx = [np.random.default_rng([seed, i]).integers(0, n, size=n) for i in range(n_resamples)]
    starts = np.tile(_theta_of(base.constants), (n_resamples, 1))
    theta, _, sse, _, _, converged = _levenberg_marquardt(
        starts, _point_arrays(points), np.array(idx), base.constants.form)
    ok = np.isfinite(sse)
    failures = n_resamples - int(ok.sum())
    if failures > n_resamples // 2:
        raise FittingError(
            f"bootstrap failed: {failures} of {n_resamples} resample fits errored"
        )
    if n_resamples - failures < 2:
        raise FittingError("bootstrap needs at least 2 successful resample fits")
    base.bootstrap_converged = int(converged.sum())
    spread = np.std(theta[ok], axis=0, ddof=1)
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
    becomes a fraction and the losses are not read."""
    size_m, label, pct, n_tokens, _, _, acc_pct = result
    return ExperimentPoint(
        n_millions=float(size_m),
        d_tokens=float(n_tokens),
        dr=dr,
        s=s,
        accuracy=float(acc_pct) / 100.0,
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
                          None, None, row["accuracy_pct"])
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
        "bootstrap_converged": report.bootstrap_converged,
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
