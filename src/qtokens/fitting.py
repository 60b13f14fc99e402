"""Nonlinear least-squares estimation of the scaling-law constants.

The model E + A*N^-alpha + B*Dq^-beta is linear in E, A and B once alpha,
beta, c1 and c2 are fixed, so the seven constants are fitted by variable
projection (Golub & Pereyra, 1973). Levenberg-Marquardt searches only
(alpha, beta, c1, c2). Each point it tries is evaluated once, by
``_solve_linear``: E, A and B are solved exactly by least squares on the
columns [1, N^-alpha, Dq^-beta], and the same columns give the residuals
and Kaufman's (1975) Jacobian that the next step uses: the alpha, beta,
c1 and c2 rows of the model's derivative, projected off their span.
Damping follows Marquardt's schedule on diag(J^T J): lambda starts at
1e-3, grows 10x on a rejected step and shrinks 10x on an accepted one.

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
from dataclasses import asdict, astuple, dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import FittingError, ScalingDomainError, _shown
from .scaling_law import PARAM_NAMES, ScalingConstants, _check_positive, _dq, _score

N_PARAMS = len(PARAM_NAMES)
MAX_ITERS = 200
FTOL = 1e-12
LAMBDA0 = 1e-3
LAMBDA_MAX = 1e30
GRAD_TOL = 1e-12
# The parameters the solver searches (alpha, beta, c1, c2); E, A and B are solved.
_SEARCHED = [2, 4, 5, 6]

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
QUALITY_CSV_HEADER = ["data_label", "fraction_pct", "diversity", "syntheticity"]


@dataclass(frozen=True)
class ExperimentPoint:
    """One observed training run joined with its corpus quality scores; an N,
    D, Dr or S outside the law's domain raises ``ScalingDomainError``."""

    n_millions: float
    d_tokens: float
    dr: float
    s: float
    accuracy: float
    label: str = ""
    fraction_pct: int = 100

    def __post_init__(self):
        for name in ("n_millions", "d_tokens", "dr", "s"):
            _check_positive(name, getattr(self, name))
        if not (0.0 <= self.accuracy <= 1.0):
            raise FittingError(f"accuracy must be in [0, 1], got {_shown(self.accuracy)}")


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
    bootstrap_converged: int | None = None  # set, like ``se``, from ``bootstrap_se``


def _point_arrays(points: Sequence[ExperimentPoint]) -> np.ndarray:
    """(5, m) stack of N, D, Dr, S and accuracy."""
    return np.array([[p.n_millions for p in points], [p.d_tokens for p in points],
                     [p.dr for p in points], [p.s for p in points],
                     [p.accuracy for p in points]], dtype=float)


def _theta_of(consts: ScalingConstants) -> np.ndarray:
    return np.array(astuple(consts)[:N_PARAMS])


def _consts_of(theta: np.ndarray, form: str) -> ScalingConstants:
    return ScalingConstants(*theta.tolist(), form=form)


def _solve_linear(p: np.ndarray, data: np.ndarray, form: str):
    """The law at the searched parameters ``p``, with E, A and B solved by
    least squares: the one place the fitter evaluates it.

    Dq and the columns [1, N^-alpha, Dq^-beta] are built once. Returns the
    full theta, the residuals, the SSE and Kaufman's Jacobian: the alpha,
    beta, c1 and c2 rows of the model's derivative, non-finite entries
    zeroed, projected off the span of the columns. The SSE is not finite
    where the columns or the model are not. Each column is scaled to a
    largest entry of 1 before an SVD, and directions below the rank
    cutoff are dropped, so an underflowed Dq^-beta or collinear
    [1, N^-alpha] gets a minimum-norm solution rather than a blown-up one.
    """
    n, d, dr, s, y = data
    alpha, beta, c1, c2 = p
    dq = _dq(d, dr, s, c1, c2, form, np.exp)
    cols = np.array([np.ones_like(y), 1 / n**alpha, 1 / dq**beta])
    if not np.isfinite(cols).all():
        return None, None, math.nan, None
    scale = np.max(np.abs(cols), axis=1)
    scale[scale == 0.0] = 1.0
    u, sv, vt = np.linalg.svd(cols.T / scale, full_matrices=False)
    rank = int(np.count_nonzero(sv > sv[0] * len(y) * np.finfo(float).eps))
    u, sv, vt = u[:, :rank], sv[:rank], vt[:rank]
    e, a, b = vt.T @ ((u.T @ y) / sv) / scale
    r = _score(n, dq, e, a, alpha, b, beta) - y
    # c1 and c2 act through ln Dq, whose slopes are Dr or ln Dr and S or ln S.
    by_log_dq = -b * beta * cols[2]
    jac = np.array([-a * np.log(n) * cols[1], -b * np.log(dq) * cols[2],
                    by_log_dq * (dr if form in ("F1", "F3") else np.log(dr)),
                    by_log_dq * (s if form in ("F1", "F2") else np.log(s))])
    jac[~np.isfinite(jac)] = 0.0
    jac -= (jac @ u) @ u.T
    return np.array([e, a, alpha, b, beta, c1, c2]), r, float(r @ r), jac


def _levenberg_marquardt(p0: np.ndarray, data: np.ndarray, form: str):
    """Minimize ||model(theta) - y||^2 by variable projection.

    ``p0`` is the start for (alpha, beta, c1, c2) and ``data`` the (5, m)
    stack of N, D, Dr, S and y. E, A and B are solved exactly at every
    point tried, and the search steps along the Jacobian that point's
    solve returned. Returns (theta, residuals, sse, evals, iters,
    converged); the SSE stays NaN, and nothing is iterated, when the
    model is not finite at the start.
    """
    with np.errstate(all="ignore"):
        theta, r, sse, jac = _solve_linear(p0, data, form)
        evals, iters, lm, converged = 1, 0, LAMBDA0, False
        while math.isfinite(sse) and not converged and iters < MAX_ITERS:
            iters += 1
            evals += 1  # one per iteration for its Jacobian; see fit_constants
            normal, gradient = jac @ jac.T, jac @ r
            grad_max = float(np.max(np.abs(gradient)))
            if grad_max < GRAD_TOL:
                converged = True
                break
            diag = normal.diagonal()
            damping = np.diag(np.where(diag > 0, diag, 1.0))
            while lm <= LAMBDA_MAX:
                try:
                    step = np.linalg.solve(normal + lm * damping, -gradient)
                except np.linalg.LinAlgError:
                    lm *= 10
                    continue
                trial = _solve_linear(theta[_SEARCHED] + step, data, form)
                evals += 1
                if trial[2] < sse:
                    converged = (sse - trial[2]) / sse < FTOL or trial[2] == 0.0
                    theta, r, sse, jac = trial
                    lm = max(lm / 10, 1e-15)
                    break
                lm *= 10
            else:  # no step lowered the SSE: stop, converged if the gradient is small
                converged = grad_max < math.sqrt(GRAD_TOL)
                break
    return theta, r, sse, evals, iters, converged


def fit_constants(
    points: Sequence[ExperimentPoint],
    init: ScalingConstants,
    n_restarts: int = 0,
    restart_seed: int = 0,
) -> FitReport:
    """Fit the seven constants to observed accuracies, in the functional
    form of ``init``.

    Only alpha, beta, c1 and c2 of ``init`` are read: E, A and B are
    solved exactly for them, so the returned SSE is never worse than at
    the initial guess. The whole procedure is deterministic for identical
    inputs. Residuals use the unclamped model, since a clamp would zero
    the gradient wherever predictions saturate. Each start runs for at
    most ``MAX_ITERS`` iterations. ``n_evals`` counts one per point tried
    plus one per iteration for the Jacobian it steps along, though that
    comes with its point's solve, so fit reports keep their counts.

    ``n_restarts`` extra starts are seeded perturbations of the searched
    parameters of the initial guess, each fitted on its own; the best SSE
    wins, the earliest start on a tie, and a restart whose model is not
    finite at its start is skipped. Off by default.
    """
    if n_restarts < 0:
        raise FittingError(f"n_restarts must be >= 0, got {_shown(n_restarts)}")
    form = init.form
    if len(points) < N_PARAMS + 1:
        raise FittingError(
            f"need at least {N_PARAMS + 1} points to fit {N_PARAMS} parameters, "
            f"got {len(points)}"
        )
    data = _point_arrays(points)
    p0 = _theta_of(init)[_SEARCHED]
    starts = [p0]
    for i in range(n_restarts):
        rng = np.random.default_rng([restart_seed, i])
        starts.append(p0 * rng.uniform(0.5, 1.5, size=p0.size)
                      + rng.normal(0.0, 0.1, size=p0.size))
    fits = [_levenberg_marquardt(start, data, form) for start in starts]
    if not math.isfinite(fits[0][2]):
        raise FittingError("model is not finite at the initial guess")
    ok = [fit for fit in fits if math.isfinite(fit[2])]
    theta, residuals, sse, _, _, converged = min(ok, key=lambda fit: fit[2])
    pred = residuals + data[4]
    return FitReport(
        constants=_consts_of(theta, form),
        se=None,
        r2=r_squared(pred.tolist(), data[4].tolist()),
        pearson=pearson(pred.tolist(), data[4].tolist()),
        sse=sse,
        n_points=len(points),
        n_evals=sum(fit[3] for fit in ok),
        n_iters=sum(fit[4] for fit in ok),
        converged=converged,
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


def bootstrap_se(
    points: Sequence[ExperimentPoint],
    base: FitReport,
    n_resamples: int,
    seed: int,
) -> tuple[dict[str, float], int]:
    """Per-parameter standard errors from seeded with-replacement resamples,
    and how many of the refits converged within ``MAX_ITERS``.

    Each resample's index stream derives from (seed, resample index), so
    results do not depend on evaluation order. Every refit is solved on
    its own, from the searched parameters of the base fit. The spread of
    a refit that stopped at the cap reflects the cap as much as the data.
    """
    if n_resamples < 2:
        raise FittingError(f"n_resamples must be >= 2, got {_shown(n_resamples)}")
    data = _point_arrays(points)
    n = len(points)
    start, form = _theta_of(base.constants)[_SEARCHED], base.constants.form
    fits = []
    for i in range(n_resamples):
        idx = np.random.default_rng([seed, i]).integers(0, n, size=n)
        fits.append(_levenberg_marquardt(start, data[:, idx], form))
    fitted = [fit[0] for fit in fits if math.isfinite(fit[2])]
    failures = n_resamples - len(fitted)
    if failures > n_resamples // 2:
        raise FittingError(
            f"bootstrap failed: {failures} of {n_resamples} resample fits errored"
        )
    if len(fitted) < 2:
        raise FittingError("bootstrap needs at least 2 successful resample fits")
    spread = np.std(fitted, axis=0, ddof=1)
    return {name: float(v) for name, v in zip(PARAM_NAMES, spread)}, sum(fit[5] for fit in fits)


def read_csv(path: str, required: Sequence[str]) -> list[dict]:
    """The rows of a UTF-8 CSV file as dicts keyed by its header, after
    checking that the header names every ``required`` column. A row may
    stop before a column that is not required; one with more cells than
    the header, or none for a required column, is an error naming its
    row, counting the header as row 1."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            missing = [name for name in required if name not in header]
            if missing:
                raise FittingError(f"{path}: missing columns {missing}")
            least = max((header.index(name) + 1 for name in required), default=0)
            rows = []
            for row_no, cells in enumerate(filter(None, reader), start=2):  # blank lines skipped
                if not least <= len(cells) <= len(header):
                    raise FittingError(f"{path}: row {row_no} has {len(cells)} cells; "
                                       f"the header has {len(header)}")
                rows.append(dict(zip(header, cells)))
            return rows
    except UnicodeDecodeError as exc:
        raise FittingError(f"{path}: not UTF-8 ({exc.reason})") from exc
    except csv.Error as exc:  # a field longer than csv.field_size_limit()
        raise FittingError(f"{path}: {exc}") from exc


def experiment_points(
    rows: Iterable[Mapping], quality: Iterable[Mapping] | None = None
) -> list[ExperimentPoint]:
    """Experiment points from rows keyed by ``EXPERIMENTS_CSV_HEADER``'s names.

    A row gives its diversity and syntheticity both or neither; a value
    that is missing, None or "" is not given. A row that gives neither is
    joined on (data_label, fraction_pct) to the quality rows, keyed by
    ``QUALITY_CSV_HEADER``'s names. Accuracy percent becomes a fraction
    and the losses are not read. Errors name the row, counting a CSV
    header as row 1.
    """
    lookup: dict[tuple[str, int], tuple[float, float]] = {}
    for row_no, row in enumerate(quality or (), start=2):
        try:
            key = (row["data_label"], int(row["fraction_pct"]))
            if key in lookup:
                raise FittingError(f"duplicate key {key}")
            lookup[key] = (float(row["diversity"]), float(row["syntheticity"]))
        except (FittingError, KeyError, TypeError, ValueError) as exc:
            raise FittingError(f"quality row {row_no}: {exc}") from exc
    points = []
    for row_no, row in enumerate(rows, start=2):
        try:
            key = (row["data_label"], int(row["fraction_pct"]))
            div, syn = row.get("diversity"), row.get("syntheticity")
            given = (div not in (None, ""), syn not in (None, ""))
            if all(given):
                dr, s = float(div), float(syn)
            elif any(given):
                raise FittingError("give diversity and syntheticity both or neither")
            elif quality is None:
                raise FittingError("diversity/syntheticity columns empty "
                                   "and no quality table supplied")
            elif key not in lookup:
                raise FittingError(f"no quality row for {key}")
            else:
                dr, s = lookup[key]
            points.append(ExperimentPoint(
                n_millions=float(row["model_size_m"]),
                d_tokens=float(row["n_tokens"]),
                dr=dr,
                s=s,
                accuracy=float(row["accuracy_pct"]) / 100.0,
                label=key[0],
                fraction_pct=key[1],
            ))
        except (FittingError, ScalingDomainError, KeyError, TypeError, ValueError) as exc:
            raise FittingError(f"row {row_no}: {exc}") from exc
    return points


def load_experiments_csv(
    path: str, quality: Iterable[Mapping] | None = None
) -> list[ExperimentPoint]:
    """Read experiment points from CSV with ``experiment_points``. Every
    column but diversity and syntheticity is required."""
    return experiment_points(read_csv(path, EXPERIMENTS_CSV_HEADER[:-2]), quality)


def fit_report_to_dict(report: FitReport, points: Sequence[ExperimentPoint], seed: int) -> dict:
    """JSON-ready view of a fit report, with the seed and a record per
    fitted point (the plotting command consumes those)."""
    return {
        **asdict(report),
        "constants": report.constants.to_dict(),
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
