import math
from dataclasses import replace

import numpy as np
import pytest

from qtokens import fitting, fixtures
from qtokens.errors import FittingError, QTokensError, ScalingDomainError
from qtokens.fitting import (
    _SEARCHED,
    EXPERIMENTS_CSV_HEADER,
    QUALITY_CSV_HEADER,
    ExperimentPoint,
    _consts_of,
    _levenberg_marquardt,
    _point_arrays,
    _solve_linear,
    _theta_of,
    bootstrap_se,
    experiment_points,
    fit_constants,
    fit_report_to_dict,
    load_experiments_csv,
    pearson,
    r_squared,
)
from qtokens.fixtures import QUALITY_TABLE, RESULTS_TABLE, fixture_points
from qtokens.scaling_law import (
    FORMS,
    PRESETS,
    QualityInputs,
    ScalingConstants,
    _dq,
    _score,
    default_initial_guess,
    predict_accuracy_unclamped,
)


def synthetic_points(truth: ScalingConstants, n_points=42, seed=42, noise=0.0):
    rng = np.random.default_rng(seed)
    sizes = (25, 50, 75, 125, 350, 500, 1500)
    points = []
    for i in range(n_points):
        n = sizes[i % len(sizes)]
        d = float(10 ** rng.uniform(8, 10.5))
        dr = float(rng.uniform(0.25, 0.5))
        s = float(rng.uniform(0.02, 0.15))
        dq = d * math.exp(truth.c1 * dr + truth.c2 * s)
        acc = truth.e + truth.a / n**truth.alpha + truth.b / dq**truth.beta
        if noise:
            acc += float(rng.normal(0, noise))
        points.append(ExperimentPoint(n, d, dr, s, min(max(acc, 0.0), 1.0)))
    return points


TRUTH = ScalingConstants(e=0.6, a=0.4, alpha=0.30, b=5.0, beta=0.35, c1=-2.0, c2=1.5, form="F1")
PERTURBED = ScalingConstants(
    e=0.72, a=0.32, alpha=0.36, b=6.5, beta=0.2975, c1=-2.4, c2=1.2, form="F1"
)


def test_pearson_perfect_positive():
    x = [1.0, 2.0, 3.0, 4.0]
    assert pearson(x, x) == pytest.approx(1.0, rel=1e-15)


def test_pearson_perfect_negative():
    x = [1.0, 2.0, 3.0, 4.0]
    y = [-2 * v + 3 for v in x]
    assert pearson(x, y) == pytest.approx(-1.0, rel=1e-15)


def test_pearson_hand_computed_five_points():
    # x = 1..5, y = (2,4,5,4,5): cov 6, var_x 10, var_y 6, r = 6 / sqrt(60)
    x = [1.0, 2.0, 3.0, 4.0, 5.0]
    y = [2.0, 4.0, 5.0, 4.0, 5.0]
    assert pearson(x, y) == pytest.approx(0.7745966692414834, rel=1e-15)


def test_pearson_errors():
    with pytest.raises(FittingError, match="zero variance"):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(FittingError):
        pearson([1.0], [1.0])
    with pytest.raises(FittingError):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])


def test_r_squared_identity_and_mean():
    obs = [1.0, 2.0, 3.0, 4.0]
    assert r_squared(obs, obs) == 1.0
    assert r_squared([2.5] * 4, obs) == 0.0


def test_r_squared_hand_computed():
    # SSE = 0.6, SStot = 6 -> R2 = 0.9
    predicted = [1.8, 3.4, 5.0, 4.2, 4.6]
    observed = [2.0, 4.0, 5.0, 4.0, 5.0]
    assert r_squared(predicted, observed) == pytest.approx(0.9, rel=1e-12)


def test_r_squared_zero_variance():
    with pytest.raises(FittingError, match="zero variance"):
        r_squared([1.0, 2.0], [3.0, 3.0])


def test_r_squared_errors():
    with pytest.raises(FittingError, match="^length mismatch: 2 vs 3$"):
        r_squared([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(FittingError, match="^r_squared needs at least 2 points$"):
        r_squared([1.0], [1.0])


def test_r_squared_equals_pearson_squared_for_regression_predictions():
    # For least-squares affine predictions of the observations, R2 equals
    # the squared correlation. (For an arbitrary affine map p = a*o + b the
    # correlation is +-1 while R2 < 1, so the identity needs the fitted map.)
    rng = np.random.default_rng(17)
    for _ in range(20):
        x = rng.normal(size=12)
        obs = 0.7 * x + rng.normal(scale=0.5, size=12)
        design = np.column_stack([np.ones(12), x])
        coef, *_ = np.linalg.lstsq(design, obs, rcond=None)
        pred = design @ coef
        lhs = r_squared(pred.tolist(), obs.tolist())
        rhs = pearson(pred.tolist(), obs.tolist()) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-9)
    # identity map corner case
    obs = rng.normal(size=10)
    assert r_squared(obs.tolist(), obs.tolist()) == 1.0
    assert pearson(obs.tolist(), obs.tolist()) ** 2 == pytest.approx(1.0, rel=1e-14)


def test_exact_model_recovery():
    points = synthetic_points(TRUTH)
    report = fit_constants(points, PERTURBED)
    assert report.sse < 1e-12
    got = report.constants
    for name in ("e", "a", "alpha", "b", "beta", "c1", "c2"):
        truth_v = getattr(TRUTH, name)
        assert getattr(got, name) == pytest.approx(truth_v, rel=1e-4)


def _law(theta: np.ndarray, data: np.ndarray, form: str) -> np.ndarray:
    """The unclamped law at ``theta`` over the points of ``data``."""
    n, d, dr, s, _ = data
    e, a, alpha, b, beta, c1, c2 = theta
    return _score(n, _dq(d, dr, s, c1, c2, form, np.exp), e, a, alpha, b, beta)


def _columns(theta: np.ndarray, data: np.ndarray, form: str) -> np.ndarray:
    """The columns [1, N^-alpha, Dq^-beta] of E, A and B at ``theta``."""
    n, d, dr, s, y = data
    _, _, alpha, _, beta, c1, c2 = theta
    return np.array([np.ones_like(y), 1 / n**alpha, 1 / _dq(d, dr, s, c1, c2, form, np.exp)**beta])


def _searched_rows(theta: np.ndarray, data: np.ndarray, form: str) -> np.ndarray:
    """Central differences of the law along alpha, beta, c1 and c2, at
    fixed E, A and B."""
    rows = []
    for j in _SEARCHED:
        h = 1e-5 * max(abs(theta[j]), 1e-3)
        up, down = theta.copy(), theta.copy()
        up[j] += h
        down[j] -= h
        rows.append((_law(up, data, form) - _law(down, data, form)) / (2 * h))
    return np.array(rows)


@pytest.mark.parametrize("form", FORMS)
def test_model_predictions_match_scalar_law(form):
    points = fixture_points()
    p = _theta_of(PRESETS["paper-ours"])[_SEARCHED]
    theta, r, _, _ = _solve_linear(p, _point_arrays(points), form)
    consts = _consts_of(theta, form)
    want = [
        predict_accuracy_unclamped(QualityInputs(pt.d_tokens, pt.dr, pt.s, pt.n_millions), consts)
        for pt in points
    ]
    np.testing.assert_allclose(r + _point_arrays(points)[4], want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("form", FORMS)
def test_jacobian_matches_central_differences(form):
    # Kaufman's Jacobian: the law's derivative along alpha, beta, c1 and c2
    # at fixed E, A and B, projected off the span of the columns.
    points = fixture_points()
    data = _point_arrays(points)
    optimum = _theta_of(fit_constants(points, default_initial_guess(form)).constants)[_SEARCHED]
    rng = np.random.default_rng(7)
    for p in [optimum] + [optimum * rng.uniform(0.8, 1.2, size=4) for _ in range(3)]:
        theta, _, _, jac = _solve_linear(p, data, form)
        assert jac.shape == (4, len(points))
        basis, _ = np.linalg.qr(_columns(theta, data, form).T)
        numeric = _searched_rows(theta, data, form)
        numeric -= (numeric @ basis) @ basis.T
        for row, want in zip(jac, numeric):
            np.testing.assert_allclose(row, want, rtol=1e-5, atol=1e-7 * np.max(np.abs(row)))


def test_restarts_report_the_best_of_starts_fitted_alone():
    points = synthetic_points(TRUTH, noise=0.004, seed=3)
    p0 = _theta_of(PERTURBED)[_SEARCHED]
    starts = [p0]
    for i in range(3):
        rng = np.random.default_rng([1, i])
        starts.append(p0 * rng.uniform(0.5, 1.5, size=4) + rng.normal(0.0, 0.1, size=4))
    alone = [_levenberg_marquardt(start, _point_arrays(points), "F1") for start in starts]
    best = min(alone, key=lambda fit: fit[2])
    report = fit_constants(points, PERTURBED, n_restarts=3, restart_seed=1)
    assert _theta_of(report.constants).tolist() == best[0].tolist()
    assert report.sse == best[2]
    assert report.converged == best[5]
    assert report.n_evals == sum(fit[3] for fit in alone if math.isfinite(fit[2]))
    assert report.n_iters == sum(fit[4] for fit in alone if math.isfinite(fit[2]))


def test_singular_damped_solve_raises_lambda_and_retries(monkeypatch):
    points = fixture_points()
    plain = fit_constants(points, default_initial_guess("F1"))
    real_solve, systems = np.linalg.solve, []

    def solve(a, b):
        systems.append(a.copy())
        if len(systems) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    report = fit_constants(points, default_initial_guess("F1"))
    first, retry = systems[:2]
    # The same 4 x 4 system with ten times the damping: the diagonal of
    # J^T J (1 + lambda) becomes J^T J (1 + 10 lambda).
    off = ~np.eye(4, dtype=bool)
    assert retry[off].tolist() == first[off].tolist()
    lam = fitting.LAMBDA0
    np.testing.assert_allclose(retry.diagonal() / first.diagonal(),
                               (1 + 10 * lam) / (1 + lam), rtol=1e-12)
    assert report.converged
    assert report.sse == pytest.approx(plain.sse, rel=1e-9)


def test_fit_stops_when_no_step_lowers_the_sse(monkeypatch):
    # Every trial point is rejected, so lambda grows 10x from LAMBDA0 until
    # it passes LAMBDA_MAX and the fit stops at its start, not converged
    # because the gradient there is large.
    points = fixture_points()
    solve, tried = fitting._solve_linear, []

    def rejecting(p, data, form):
        tried.append(p)
        fit = solve(p, data, form)
        return fit if len(tried) == 1 else fit[:2] + (math.nan,) + fit[3:]

    monkeypatch.setattr(fitting, "_solve_linear", rejecting)
    report = fit_constants(points, default_initial_guess("F1"))
    trials, lam = 0, fitting.LAMBDA0
    while lam <= fitting.LAMBDA_MAX:
        trials, lam = trials + 1, lam * 10
    assert len(tried) == 1 + trials
    assert (report.n_iters, report.n_evals) == (1, 1 + 1 + trials)
    assert report.converged is False
    assert report.sse == solve(tried[0], _point_arrays(points), "F1")[2]


def _record_fits(monkeypatch) -> list:
    """Record (data, form, result) of every problem the solver fits."""
    solve, fits = fitting._levenberg_marquardt, []

    def recording(p0, data, form):
        fit = solve(p0, data, form)
        fits.append((data, form, fit))
        return fit

    monkeypatch.setattr(fitting, "_levenberg_marquardt", recording)
    return fits


def test_fixture_bootstrap_refits_all_converge(monkeypatch):
    fits = _record_fits(monkeypatch)
    points = fixture_points()
    base = fit_constants(points, default_initial_guess("F1"))
    _, converged = bootstrap_se(points, base, n_resamples=24, seed=42)
    assert len(fits) == 1 + 24
    assert converged == 24
    assert all(fit[5] for _, _, fit in fits)


@pytest.mark.parametrize("form", FORMS)
def test_fits_are_stationary(monkeypatch, form):
    # E, A and B are solved exactly, so the SSE gradient along their
    # columns is zero to rounding. Over all seven parameters the gradient
    # cosine ||J^T r|| / (||J|| ||r||) stays below 1e-6; a seven-parameter
    # search stopped with up to 7e-4 on the fixture's refits. J holds the
    # law's own derivative, as that search saw it: the solver's projected
    # rows give the same gradient but far smaller norms, and F4's refit
    # that stops at MAX_ITERS has a cosine near 1e-5 against them.
    fits = _record_fits(monkeypatch)
    points = fixture_points()
    base = fit_constants(points, default_initial_guess(form))
    bootstrap_se(points, base, n_resamples=24, seed=42)
    assert len(fits) == 1 + 24
    for data, _, (theta, r, *_) in fits:
        jac = np.empty((7, data.shape[1]))
        jac[[0, 1, 3]] = _columns(theta, data, form)
        jac[_SEARCHED] = _searched_rows(theta, data, form)
        gradient = jac @ r
        linear = np.abs(gradient) / (np.linalg.norm(jac, axis=1) * np.linalg.norm(r))
        assert linear[[0, 1, 3]].max() < 1e-10
        assert np.linalg.norm(gradient) / (np.linalg.norm(jac) * np.linalg.norm(r)) < 1e-6


@pytest.mark.parametrize("beta, parent_sse",
                         [(18.5, 0.06495788455799145), (19.0, 0.07051913694899525),
                          (40.0, 0.06495788455802279)])
def test_degenerate_beta_starts_fit(beta, parent_sse):
    # Near beta = 19, Dq^-beta is around 1e-190 and its square underflows;
    # at beta = 40 the column is exactly zero, so B drops out of the solve
    # and beta, c1 and c2 cannot move. ``parent_sse`` is what the
    # seven-parameter search reached from the same start.
    points = fixture_points()
    report = fit_constants(points, replace(default_initial_guess("F1"), beta=beta))
    assert report.sse <= parent_sse
    if beta < 20:
        plain = fit_constants(points, default_initial_guess("F1"))
        assert report.sse == pytest.approx(plain.sse, rel=1e-9)


def test_points_at_one_model_size_fit_finite_constants():
    # With one N, the columns 1 and N^-alpha are collinear: the rank cutoff
    # gives a minimum-norm E and A, not two huge values of opposite sign.
    points = [p for p in fixture_points() if p.n_millions == 125]
    assert len(points) == 30
    report = fit_constants(points, default_initial_guess("F1"))
    assert all(math.isfinite(v) for v in _theta_of(report.constants))
    assert report.sse <= 0.004730009285667521  # the seven-parameter search's SSE


def test_fit_is_deterministic():
    points = fixture_points()
    init = default_initial_guess("F1")
    a = fit_constants(points, init)
    b = fit_constants(points, init)
    assert a.constants == b.constants
    assert a.sse == b.sse
    assert a.residuals == b.residuals
    assert a.n_evals == b.n_evals


def test_fit_never_worse_than_init():
    points = fixture_points()
    init = default_initial_guess("F1")
    data = _point_arrays(points)
    sse0 = float(np.sum((_law(_theta_of(init), data, "F1") - data[4]) ** 2))
    report = fit_constants(points, init)
    assert report.sse <= sse0


def test_fixture_fit_pearson():
    report = fit_constants(fixture_points(), default_initial_guess("F1"))
    assert report.pearson >= 0.80
    assert report.n_points == 207
    assert report.n_evals <= 2000


def test_fit_requires_enough_points():
    points = synthetic_points(TRUTH)[:7]
    with pytest.raises(FittingError, match="at least 8"):
        fit_constants(points, PERTURBED)


def test_fit_rejects_nonfinite_initial_model():
    points = synthetic_points(TRUTH, n_points=12)
    # alpha so negative that n^alpha underflows to zero -> a / 0 diverges
    bad = ScalingConstants(e=0.6, a=0.4, alpha=-2000.0, b=5.0, beta=0.35, c1=0, c2=0)
    with pytest.raises(FittingError, match="initial guess"):
        fit_constants(points, bad)


def test_fit_sse_equals_sum_of_squared_residuals():
    report = fit_constants(fixture_points(), default_initial_guess("F1"))
    assert report.sse == pytest.approx(sum(r * r for r in report.residuals), rel=1e-12)


def test_fit_restarts_deterministic_and_no_worse():
    points = synthetic_points(TRUTH, noise=0.004, seed=3)
    plain = fit_constants(points, PERTURBED)
    a = fit_constants(points, PERTURBED, n_restarts=3, restart_seed=1)
    b = fit_constants(points, PERTURBED, n_restarts=3, restart_seed=1)
    assert a.constants == b.constants
    assert a.sse <= plain.sse
    assert a.n_evals >= plain.n_evals


def test_bootstrap_zero_noise():
    points = synthetic_points(TRUTH)
    base = fit_constants(points, PERTURBED)
    se, _ = bootstrap_se(points, base, n_resamples=8, seed=5)
    assert set(se) == {"E", "A", "alpha", "B", "beta", "c1", "c2"}
    assert all(v < 1e-6 for v in se.values())


def test_bootstrap_deterministic():
    points = synthetic_points(TRUTH, noise=0.004, seed=3)
    base = fit_constants(points, PERTURBED)
    se_a, _ = bootstrap_se(points, base, n_resamples=6, seed=11)
    se_b, _ = bootstrap_se(points, base, n_resamples=6, seed=11)
    assert se_a == se_b


def test_bootstrap_rejects_tiny_resample_count():
    points = synthetic_points(TRUTH)
    base = fit_constants(points, PERTURBED)
    for bad in (0, 1):
        with pytest.raises(FittingError, match="n_resamples"):
            bootstrap_se(points, base, n_resamples=bad, seed=0)


@pytest.mark.parametrize(
    "n_resamples, failed, message",
    [(6, 4, "^bootstrap failed: 4 of 6 resample fits errored$"),
     (2, 1, "^bootstrap needs at least 2 successful resample fits$"),
     (6, 3, None), (3, 1, None)],
)
def test_bootstrap_failure_rules(monkeypatch, n_resamples, failed, message):
    # More than half of the refits failing, or fewer than two succeeding, is
    # an error; otherwise the SEs come from the refits that succeeded.
    points = synthetic_points(TRUTH, noise=0.004, seed=3)
    base = fit_constants(points, PERTURBED)
    solve = fitting._levenberg_marquardt
    solved = []

    def failing(p0, data, form):
        fit = solve(p0, data, form)
        solved.append(fit[0])
        return fit[:2] + (math.nan,) + fit[3:] if len(solved) <= failed else fit

    monkeypatch.setattr(fitting, "_levenberg_marquardt", failing)
    if message is not None:
        with pytest.raises(FittingError, match=message):
            bootstrap_se(points, base, n_resamples=n_resamples, seed=11)
        return
    se, _ = bootstrap_se(points, base, n_resamples=n_resamples, seed=11)
    assert len(solved) == n_resamples
    assert list(se.values()) == np.std(solved[failed:], axis=0, ddof=1).tolist()


def test_verify_fixtures_rejects_altered_tables(monkeypatch):
    monkeypatch.setattr(fixtures, "QUALITY_TABLE", QUALITY_TABLE[:-1])
    with pytest.raises(QTokensError, match="^fixture tables corrupted: 29 quality rows, "
                                           "207 result rows$"):
        fixture_points()
    monkeypatch.setattr(fixtures, "QUALITY_TABLE", QUALITY_TABLE)
    first = RESULTS_TABLE[0]
    altered = (first[:-1] + (first[-1] + 0.01,),) + RESULTS_TABLE[1:]
    monkeypatch.setattr(fixtures, "RESULTS_TABLE", altered)
    with pytest.raises(QTokensError, match="^fixture checksum mismatch: [0-9a-f]{64}$"):
        fixture_points()


def test_bootstrap_se_shrinks_with_more_points():
    # Constants chosen so every term is well identified against the noise:
    # the model-size term spans ~0.27, the token term ~0.07, noise sigma 0.005.
    truth = ScalingConstants(e=0.2, a=1.0, alpha=0.30, b=50.0, beta=0.35,
                             c1=-2.0, c2=1.5, form="F1")
    small = synthetic_points(truth, n_points=56, seed=21, noise=0.005)
    large = synthetic_points(truth, n_points=224, seed=21, noise=0.005)
    base_small = fit_constants(small, truth)
    base_large = fit_constants(large, truth)
    se_small, _ = bootstrap_se(small, base_small, n_resamples=48, seed=9)
    se_large, _ = bootstrap_se(large, base_large, n_resamples=48, seed=9)
    assert all(v > 0 for v in se_small.values())
    assert all(v > 0 for v in se_large.values())
    # quadrupling the data should roughly halve the standard errors
    ratios = {k: se_small[k] / se_large[k] for k in se_small}
    assert all(r > 1.3 for r in ratios.values())
    stable = [ratios[k] for k in ("E", "alpha", "beta", "c1", "c2")]
    assert 1.5 <= float(np.median(stable)) <= 4.5


# The embedded quality table as the rows a quality CSV reads to.
QUALITY_ROWS = [dict(zip(QUALITY_CSV_HEADER, row)) for row in QUALITY_TABLE]


def test_join_row_63():
    p = fixture_points()[62]
    assert (p.n_millions, p.d_tokens) == (25.0, 10_993_147_242.0)
    assert (p.dr, p.s) == (0.36370, 0.02635)
    assert p.accuracy == pytest.approx(0.3827, rel=1e-12)
    assert (p.label, p.fraction_pct) == ("Random", 100)


def test_join_row_207():
    p = fixture_points()[206]
    assert (p.n_millions, p.d_tokens) == (1500.0, 2_507_011_688.0)
    assert (p.dr, p.s) == (0.28578, 0.11902)
    assert p.accuracy == pytest.approx(0.4527, rel=1e-12)


def test_join_unknown_label():
    result = (25, "Mystery", 10, 1000000, 1.0, 2.0, 40.0)
    with pytest.raises(FittingError, match=r"^row 2: no quality row for \('Mystery', 10\)$"):
        experiment_points([dict(zip(EXPERIMENTS_CSV_HEADER, result))], QUALITY_ROWS)


def test_join_duplicate_quality():
    quality = [dict(zip(QUALITY_CSV_HEADER, row))
               for row in (("Random", 10, 0.3, 0.02), ("Random", 10, 0.31, 0.02))]
    result = (25, "Random", 10, 1000000, 1.0, 2.0, 40.0)
    with pytest.raises(FittingError,
                       match=r"^quality row 3: duplicate key \('Random', 10\)$"):
        experiment_points([dict(zip(EXPERIMENTS_CSV_HEADER, result))], quality)


EXP_HEADER = (
    "model_size_m,data_label,fraction_pct,n_tokens,train_loss,eval_loss,"
    "accuracy_pct,diversity,syntheticity\n"
)


def test_load_experiments_csv(tmp_path):
    path = tmp_path / "exp.csv"
    path.write_text(
        EXP_HEADER
        + "25,Random,10,1083200970,1.36,6.89,37.87,0.3775,0.02699\n"
        + "50,Random,10,1083200970,3.26,4.00,35.30,0.3775,0.02699\n",
        encoding="utf-8",
    )
    points = load_experiments_csv(str(path))
    assert len(points) == 2
    assert points[0].accuracy == pytest.approx(0.3787)
    assert (points[0].n_millions, points[0].d_tokens, points[0].dr, points[0].s) == (
        25.0, 1083200970.0, 0.3775, 0.02699
    )
    assert (points[1].label, points[1].fraction_pct) == ("Random", 10)


def test_load_experiments_csv_with_quality_table(tmp_path):
    path = tmp_path / "exp.csv"
    path.write_text(
        EXP_HEADER + "25,Random,10,1083200970,1.36,6.89,37.87,,\n", encoding="utf-8"
    )
    points = load_experiments_csv(str(path), quality=QUALITY_ROWS)
    assert points[0].dr == 0.37750


def test_load_experiments_csv_without_quality_scores(tmp_path):
    path = tmp_path / "exp.csv"
    path.write_text(
        EXP_HEADER + "25,Mystery,10,1083200970,1.36,6.89,37.87,,\n", encoding="utf-8"
    )
    with pytest.raises(
        FittingError,
        match="^row 2: diversity/syntheticity columns empty and no quality table supplied$",
    ):
        load_experiments_csv(str(path))
    with pytest.raises(FittingError, match=r"^row 2: no quality row for \('Mystery', 10\)$"):
        load_experiments_csv(str(path), quality=QUALITY_ROWS)
    # A row that gives only one of Dr and S is refused, with or without a
    # quality table, rather than having the given value replaced.
    for scores in ("0.99,", ",0.02699"):
        path.write_text(
            EXP_HEADER + f"25,Random,10,1083200970,1.36,6.89,37.87,{scores}\n",
            encoding="utf-8",
        )
        for quality in (None, QUALITY_ROWS):
            with pytest.raises(
                FittingError,
                match="^row 2: give diversity and syntheticity both or neither$",
            ):
                load_experiments_csv(str(path), quality=quality)
    # Without a syntheticity column, a diversity value is half a pair too.
    path.write_text(
        "model_size_m,data_label,fraction_pct,n_tokens,train_loss,eval_loss,"
        "accuracy_pct,diversity\n25,Random,10,1083200970,1.36,6.89,37.87,0.99\n",
        encoding="utf-8",
    )
    with pytest.raises(FittingError, match="^row 2: give diversity"):
        load_experiments_csv(str(path), quality=QUALITY_ROWS)
    # Only a missing key, None or "" counts as not given.
    result = dict(zip(EXPERIMENTS_CSV_HEADER, (25, "Random", 10, 1e9, 1.0, 2.0, 40.0)))
    with pytest.raises(FittingError, match="^row 2: give diversity"):
        experiment_points([{**result, "diversity": 0.0, "syntheticity": None}], QUALITY_ROWS)
    (point,) = experiment_points([{**result, "diversity": None, "syntheticity": ""}],
                                 QUALITY_ROWS)
    assert (point.dr, point.s) == (0.37750, 0.02699)


def test_load_experiments_csv_bad_row(tmp_path):
    path = tmp_path / "exp.csv"
    path.write_text(
        EXP_HEADER + "25,Random,10,1083200970,1.36,6.89,oops,0.37,0.02\n", encoding="utf-8"
    )
    with pytest.raises(FittingError, match="row 2"):
        load_experiments_csv(str(path))


def test_experiment_points_name_the_row_of_a_value_outside_the_domain():
    row = dict(zip(EXPERIMENTS_CSV_HEADER, (0, "Random", 10, 1e9, 1.0, 2.0, 40.0, 0.3, 0.1)))
    with pytest.raises(FittingError, match="^row 2: n_millions must be finite and > 0, got 0.0$"):
        experiment_points([row])


def test_load_experiments_csv_missing_columns(tmp_path):
    path = tmp_path / "exp.csv"
    path.write_text("model_size_m,n_tokens\n25,100\n", encoding="utf-8")
    with pytest.raises(FittingError, match="missing columns"):
        load_experiments_csv(str(path))


@pytest.mark.parametrize("row, cells", [
    ("25,Random,10,1083200970,1.36,,6.89,37.87,0.3775,0.02699", 10),
    ('25,"Random,10,1083200970,1.36,6.89,37.87,0.3775,0.02699', 2),  # the quote runs to EOF
    ("25,Random,10", 3),
], ids=["stray-comma", "unclosed-quote", "three-cells"])
def test_load_experiments_csv_row_of_the_wrong_length(tmp_path, row, cells):
    # A shifted row is not read as other columns' values, and a short one
    # is not reported as a missing quality score.
    path = tmp_path / "exp.csv"
    path.write_text(EXP_HEADER + "50,Random,10,1083200970,3.26,4.00,35.30,0.3775,0.02699\n"
                    + row + "\n", encoding="utf-8")
    with pytest.raises(FittingError) as err:
        load_experiments_csv(str(path), quality=QUALITY_ROWS)
    assert str(err.value) == f"{path}: row 3 has {cells} cells; the header has 9"


def test_read_csv_checks_the_quality_rows_too(tmp_path):
    path = tmp_path / "quality.csv"
    path.write_text("data_label,fraction_pct,diversity,syntheticity\n"
                    "Random,10,0,37750,0.02699\n", encoding="utf-8")
    with pytest.raises(FittingError) as err:
        fitting.read_csv(str(path), QUALITY_CSV_HEADER)
    assert str(err.value) == f"{path}: row 2 has 5 cells; the header has 4"


def test_load_experiments_csv_row_may_stop_before_the_scores(tmp_path):
    path = tmp_path / "exp.csv"
    path.write_text(EXP_HEADER + "25,Random,10,1083200970,1.36,6.89,37.87\n"
                    "50,Random,10,1083200970,3.26,4.00,35.30,\n", encoding="utf-8")
    points = load_experiments_csv(str(path), quality=QUALITY_ROWS)
    assert [(p.n_millions, p.dr, p.s) for p in points] == [(25.0, 0.37750, 0.02699),
                                                          (50.0, 0.37750, 0.02699)]


def test_fit_report_dict_roundtrips_predictions():
    points = synthetic_points(TRUTH, n_points=10)
    report = fit_constants(points, PERTURBED)
    payload = fit_report_to_dict(report, points, seed=42)
    assert payload["seed"] == 42
    assert len(payload["points"]) == 10
    for rec, point, residual in zip(payload["points"], points, report.residuals):
        assert rec["observed"] == point.accuracy
        assert rec["predicted"] == pytest.approx(point.accuracy + residual, rel=1e-12)


def test_experiment_point_validation():
    # The law's own domain check, with its class and message.
    with pytest.raises(ScalingDomainError, match="^n_millions must be finite and > 0, got 0.0$"):
        ExperimentPoint(0.0, 1e9, 0.3, 0.1, 0.5)
    with pytest.raises(FittingError):
        ExperimentPoint(25, 1e9, 0.3, 0.1, 1.5)
