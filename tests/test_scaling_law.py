import dataclasses
import json
import math
import re
import struct
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from qtokens.corpus import Corpus, sample_fraction
from qtokens.errors import CorpusError, FittingError, RefineError, ScalingDomainError, ScorerError
from qtokens.fitting import ExperimentPoint, bootstrap_se, fit_constants
from qtokens.fixtures import fixture_points
from qtokens.refine import minhash_signature, select_by_weight
from qtokens.scaling_law import (
    FORMS,
    PRESETS,
    QualityInputs,
    ScalingConstants,
    clamp_unit,
    default_initial_guess,
    effective_tokens,
    invert_effective_tokens,
    predict_accuracy,
    predict_accuracy_unclamped,
    scaling_factor_q,
)
from qtokens.syntheticity import score_corpus, train_kgram_scorer

# Reference inputs: the 100% slice of the randomly sampled pipeline and of
# the selection+synthesis pipeline, from the embedded quality table.
RANDOM_100 = {"d": 10_993_147_242.0, "dr": 0.36370, "s": 0.02635}
SELSYN_100 = {"d": 2_507_011_688.0, "dr": 0.28578, "s": 0.11902}


def test_constants_validation():
    with pytest.raises(ScalingDomainError):
        ScalingConstants(e=1, a=1, alpha=0.5, b=1, beta=0.0, c1=0, c2=0)
    # A constant is named as in the constants JSON.
    with pytest.raises(ScalingDomainError, match="^constant E is not finite$"):
        ScalingConstants(e=math.nan, a=1, alpha=0.5, b=1, beta=0.5, c1=0, c2=0)
    with pytest.raises(ScalingDomainError):
        ScalingConstants(e=1, a=1, alpha=0.5, b=1, beta=0.5, c1=0, c2=0, form="F9")
    with pytest.raises(ScalingDomainError):
        ScalingConstants(e=math.nan, a=1, alpha=0.5, b=1, beta=0.5, c1=0, c2=0)


def test_constants_json_roundtrip():
    consts = PRESETS["paper-ours"]
    back = ScalingConstants.from_dict(json.loads(json.dumps(consts.to_dict())))
    assert back == consts
    data = consts.to_dict()
    assert set(data) == {"E", "A", "alpha", "B", "beta", "c1", "c2", "form"}


def test_constants_from_dict_missing_key():
    data = PRESETS["paper-ours"].to_dict()
    del data["beta"]
    with pytest.raises(ScalingDomainError, match="^constants JSON missing key 'beta'$"):
        ScalingConstants.from_dict(data)


def test_presets():
    ours = PRESETS["paper-ours"]
    assert (ours.e, ours.a, ours.alpha) == (1.1400, -0.8546, 0.0450)
    assert (ours.b, ours.beta) == (-18.3078, 0.3683)
    assert (ours.c1, ours.c2) == (-12.7756, 0.6369)
    chinchilla = PRESETS["besiroglu-chinchilla"]
    assert (chinchilla.e, chinchilla.a, chinchilla.alpha) == (1.8172, 482.01, 0.3478)
    assert (chinchilla.b, chinchilla.beta) == (2085.43, 0.3658)
    assert chinchilla.c1 == chinchilla.c2 == 0.0
    init = default_initial_guess()
    assert (init.c1, init.c2) == (0.5, 0.5)
    assert init.e == chinchilla.e


def test_q_identity_when_coefficients_zero():
    for form in FORMS:
        consts = replace(PRESETS["paper-ours"], c1=0.0, c2=0.0, form=form)
        for dr, s in ((0.1, 0.9), (3.0, 0.001)):
            assert scaling_factor_q(dr, s, consts) == 1.0


@pytest.mark.parametrize("form", FORMS)
def test_q_is_effective_tokens_per_token_under_each_form(form):
    # Q = Dq / D of the constants' own form, which differs from F1's factor.
    consts = replace(PRESETS["paper-ours"], form=form)
    rng = np.random.default_rng(31)
    for _ in range(50):
        dr = float(rng.uniform(0.2, 0.6))
        s = float(rng.uniform(0.01, 0.2))
        q = scaling_factor_q(dr, s, consts)
        assert q == effective_tokens(QualityInputs(d=1.0, dr=dr, s=s, n_millions=1.0), consts)
        if form != "F1":
            assert q != scaling_factor_q(dr, s, replace(consts, form="F1"))
    # Outside the law's domain, where F2-F4 would raise 0 to a negative power.
    for dr, s, name in ((0.0, 0.1, "dr"), (0.3, 0.0, "s")):
        with pytest.raises(ScalingDomainError, match=f"^{name} must be finite and > 0, got 0.0$"):
            scaling_factor_q(dr, s, consts)


def test_q_hand_evaluation_random_100():
    ours = PRESETS["paper-ours"]
    q = scaling_factor_q(RANDOM_100["dr"], RANDOM_100["s"], ours)
    assert q == math.exp(-12.7756 * 0.36370 + 0.6369 * 0.02635)
    assert q == pytest.approx(9.756e-3, rel=5e-4)


def test_q_hand_evaluation_selsyn_100():
    ours = PRESETS["paper-ours"]
    q_selsyn = scaling_factor_q(SELSYN_100["dr"], SELSYN_100["s"], ours)
    q_random = scaling_factor_q(RANDOM_100["dr"], RANDOM_100["s"], ours)
    assert q_selsyn == math.exp(-12.7756 * 0.28578 + 0.6369 * 0.11902)
    assert q_selsyn == pytest.approx(2.80e-2, rel=1e-3)
    assert q_selsyn > q_random


def test_q_rejects_non_finite():
    ours = PRESETS["paper-ours"]
    with pytest.raises(ScalingDomainError, match="^dr must be finite and > 0, got inf$"):
        scaling_factor_q(math.inf, 0.1, ours)
    with pytest.raises(ScalingDomainError, match="^s must be finite and > 0, got nan$"):
        scaling_factor_q(0.1, math.nan, ours)
    # A non-finite constant cannot be built, so it never reaches Q.
    with pytest.raises(ScalingDomainError, match="^constant c1 is not finite$"):
        scaling_factor_q(0.1, 0.1, replace(ours, c1=math.nan))


def test_effective_tokens_f1_identity():
    consts = ScalingConstants(e=0, a=0, alpha=0.5, b=0, beta=0.5, c1=0, c2=0, form="F1")
    q_in = QualityInputs(d=1e9, dr=0.4, s=0.1, n_millions=25)
    assert effective_tokens(q_in, consts) == 1e9


def test_effective_tokens_random_100():
    q_in = QualityInputs(n_millions=25, **RANDOM_100)
    dq = effective_tokens(q_in, PRESETS["paper-ours"])
    expected = RANDOM_100["d"] * math.exp(-12.7756 * 0.36370 + 0.6369 * 0.02635)
    assert dq == expected
    assert dq == pytest.approx(1.073e8, rel=1e-3)


def test_effective_tokens_f4_exponent_one():
    consts = ScalingConstants(e=0, a=0, alpha=0.5, b=0, beta=0.5, c1=1, c2=1, form="F4")
    q_in = QualityInputs(d=1e6, dr=0.25, s=0.5, n_millions=10)
    assert effective_tokens(q_in, consts) == pytest.approx(1e6 * 0.25 * 0.5, rel=1e-15)


def test_all_forms_positive():
    rng = np.random.default_rng(2)
    for _ in range(50):
        consts = ScalingConstants(
            e=0, a=0, alpha=0.5, b=0, beta=0.5,
            c1=float(rng.uniform(-5, 5)), c2=float(rng.uniform(-5, 5)),
            form=str(rng.choice(["F1", "F2", "F3", "F4"])),
        )
        q_in = QualityInputs(
            d=float(10 ** rng.uniform(3, 10)),
            dr=float(rng.uniform(0.05, 0.9)),
            s=float(rng.uniform(0.01, 0.9)),
            n_millions=1.0,
        )
        dq = effective_tokens(q_in, consts)
        assert dq > 0


def test_clamp_unit():
    assert clamp_unit(-0.3) == 0.0
    assert clamp_unit(0.42) == 0.42
    assert clamp_unit(1.7) == 1.0
    # The same float as min(max(x, 0.0), 1.0), bit for bit: -0.0 keeps its sign, NaN stays NaN.
    for x in (-0.3, -0.0, 0.0, 0.42, 1.0, 1.7, math.nan):
        assert same_float(clamp_unit(x), min(max(x, 0.0), 1.0))
    assert math.copysign(1.0, clamp_unit(-0.0)) == -1.0


def test_predict_constant_model():
    consts = ScalingConstants(e=0.5, a=0, alpha=0.5, b=0, beta=0.5, c1=0, c2=0)
    q_in = QualityInputs(d=1e9, dr=0.3, s=0.1, n_millions=100)
    assert predict_accuracy(q_in, consts) == 0.5


def test_predict_clamps_high():
    consts = ScalingConstants(e=2.0, a=0, alpha=0.5, b=0, beta=0.5, c1=0, c2=0)
    q_in = QualityInputs(d=1e9, dr=0.3, s=0.1, n_millions=100)
    assert predict_accuracy(q_in, consts) == 1.0


def test_predict_random_100_hand_evaluation():
    ours = PRESETS["paper-ours"]
    q_in = QualityInputs(n_millions=25, **RANDOM_100)
    got = predict_accuracy(q_in, ours)
    dq = RANDOM_100["d"] * math.exp(-12.7756 * 0.36370 + 0.6369 * 0.02635)
    expected = 1.14 - 0.8546 / 25**0.045 - 18.3078 / dq**0.3683
    assert got == pytest.approx(expected, rel=1e-15)
    assert got == pytest.approx(0.380, abs=0.015)
    assert got == pytest.approx(0.3827, abs=0.015)  # observed accuracy


def test_predict_in_unit_interval():
    rng = np.random.default_rng(8)
    for _ in range(200):
        consts = ScalingConstants(
            e=float(rng.uniform(-2, 3)), a=float(rng.uniform(-500, 500)),
            alpha=float(rng.uniform(0.01, 1)), b=float(rng.uniform(-100, 100)),
            beta=float(rng.uniform(0.05, 1)), c1=float(rng.uniform(-15, 5)),
            c2=float(rng.uniform(-5, 5)),
        )
        q_in = QualityInputs(
            d=float(10 ** rng.uniform(6, 11)), dr=float(rng.uniform(0.05, 0.9)),
            s=float(rng.uniform(0.01, 0.5)), n_millions=float(rng.uniform(1, 2000)),
        )
        assert 0.0 <= predict_accuracy(q_in, consts) <= 1.0


def test_invert_simple_closed_form():
    consts = ScalingConstants(e=1.0, a=0.0, alpha=0.5, b=1.0, beta=1.0, c1=0, c2=0)
    assert invert_effective_tokens(consts, 10, 1.5) == pytest.approx(2.0, rel=1e-15)


def test_invert_out_of_domain():
    consts = ScalingConstants(e=1.0, a=0.0, alpha=0.5, b=1.0, beta=1.0, c1=0, c2=0)
    with pytest.raises(ScalingDomainError, match="loss unreachable"):
        invert_effective_tokens(consts, 10, 0.5)  # (l - e) < 0 while b > 0
    # With A = 0 the score E itself needs infinite data: the denominator is 0.
    with pytest.raises(ScalingDomainError, match="^loss unreachable at this model size$"):
        invert_effective_tokens(consts, 10, 1.0)


def test_invert_rejects_effective_tokens_beyond_the_float_range():
    # The quotient is 2.0 / 1.77, and 1 / beta = 1000 raises it past 1e308.
    consts = ScalingConstants(e=1.0, a=-0.5, alpha=0.1, b=-2.0, beta=0.001, c1=0, c2=0)
    with pytest.raises(ScalingDomainError,
                       match=r"^effective tokens overflow at N=25.0, score=0.5$"):
        invert_effective_tokens(consts, 25.0, 0.5)


@pytest.mark.parametrize(
    "n_millions, score, message",
    [(0.0, 0.5, "^n_millions must be finite and > 0, got 0.0$"),
     (-25.0, 0.5, "^n_millions must be finite and > 0, got -25.0$"),
     (25.0, math.nan, "^score is not finite: nan$"),
     (25.0, math.inf, "^score is not finite: inf$")],
    ids=["zero-n", "negative-n", "nan-score", "inf-score"],
)
def test_invert_rejects_bad_inputs(n_millions, score, message):
    with pytest.raises(ScalingDomainError, match=message):
        invert_effective_tokens(PRESETS["paper-ours"], n_millions, score)


def test_invert_roundtrip_fitted_constants():
    ours = PRESETS["paper-ours"]
    q_in = QualityInputs(n_millions=25, **RANDOM_100)
    dq = effective_tokens(q_in, ours)
    score = predict_accuracy_unclamped(q_in, ours)
    back = invert_effective_tokens(ours, 25, score)
    assert back == pytest.approx(dq, rel=1e-9)
    assert back == pytest.approx(1.073e8, rel=1e-3)


def test_invert_roundtrip_random_sample():
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 100:
        e = float(rng.uniform(-1, 2))
        a = float(rng.uniform(-300, 300))
        alpha = float(rng.uniform(0.02, 0.9))
        beta = float(rng.uniform(0.1, 1.2))
        n = float(10 ** rng.uniform(0.5, 3.5))
        dq = float(10 ** rng.uniform(2, 11))
        scale = max(1.0, abs(e) + abs(a) / n**alpha)
        t = float(rng.choice([-1.0, 1.0])) * 10 ** float(rng.uniform(-3, 0.5)) * scale
        b = t * dq**beta
        if not math.isfinite(b) or b == 0:
            continue
        consts = ScalingConstants(e=e, a=a, alpha=alpha, b=b, beta=beta, c1=0, c2=0)
        score = e + a / n**alpha + b / dq**beta
        assert invert_effective_tokens(consts, n, score) == pytest.approx(dq, rel=1e-9)
        checked += 1


def test_f1_partial_derivative_signs():
    rng = np.random.default_rng(4)
    for _ in range(50):
        c1 = float(rng.uniform(-10, 10)) or 1.0
        c2 = float(rng.uniform(-10, 10)) or 1.0
        consts = ScalingConstants(e=0, a=0, alpha=0.5, b=0, beta=0.5, c1=c1, c2=c2)
        d = float(10 ** rng.uniform(5, 10))
        dr = float(rng.uniform(0.1, 0.8))
        s = float(rng.uniform(0.02, 0.5))
        h = 1e-6

        def dq(dr, s):
            return effective_tokens(QualityInputs(d=d, dr=dr, s=s, n_millions=1.0), consts)

        base = dq(dr, s)
        d_dr = (dq(dr + h * dr, s) - base) / (h * dr)
        d_s = (dq(dr, s + h * s) - base) / (h * s)
        assert math.copysign(1, d_dr) == math.copysign(1, c1)
        assert math.copysign(1, d_s) == math.copysign(1, c2)


def test_fitted_constants_quality_direction():
    # c1 < 0, c2 > 0: lowering diversity or raising syntheticity raises Q.
    ours = PRESETS["paper-ours"]
    rng = np.random.default_rng(13)
    for _ in range(100):
        dr = float(rng.uniform(0.2, 0.6))
        s = float(rng.uniform(0.01, 0.2))
        q = scaling_factor_q(dr, s, ours)
        assert scaling_factor_q(dr, s + 1e-6, ours) > q
        assert scaling_factor_q(dr - 1e-6, s, ours) > q


# Every form's Dq is only defined on this domain; F2-F4 raise Dr or S to a power.
@pytest.mark.parametrize(
    "field, value",
    [("d", 0.0), ("dr", -0.1), ("dr", 0.0), ("s", 0.0), ("n_millions", math.inf)],
    ids=["zero-d", "negative-dr", "zero-dr", "zero-s", "infinite-n"],
)
def test_quality_inputs_validation(field, value):
    inputs = {"d": 1.0, "dr": 0.1, "s": 0.1, "n_millions": 1.0, field: value}
    with pytest.raises(ScalingDomainError, match=f"^{field} must be finite and > 0, got"):
        QualityInputs(**inputs)


@pytest.mark.parametrize("form", ["F1", "F2", "F3", "F4"])
def test_effective_tokens_overflow_is_a_domain_error(form):
    consts = ScalingConstants(e=1.0, a=0.0, alpha=0.5, b=1.0, beta=0.5, c1=1e6, c2=1e6, form=form)
    with pytest.raises(ScalingDomainError, match=f"overflow under form {form}"):
        effective_tokens(QualityInputs(d=1e9, dr=2.0, s=2.0, n_millions=1.0), consts)


HUGE = 10**400  # an int beyond the float range
# An int with more digits than str() converts by default (4,300); messages
# name it by its size.
GIANT = 10**5000
GIANT_SHOWN = f"an int of {GIANT.bit_length()} bits"


@pytest.mark.parametrize(
    "call, message",
    [(lambda: QualityInputs(d=HUGE, dr=0.3, s=0.05, n_millions=125.0),
      f"^d must be finite and > 0, got {HUGE}$"),
     (lambda: invert_effective_tokens(PRESETS["paper-ours"], HUGE, 0.5),
      f"^n_millions must be finite and > 0, got {HUGE}$"),
     (lambda: invert_effective_tokens(PRESETS["paper-ours"], 125.0, HUGE),
      f"^score is not finite: {HUGE}$"),
     (lambda: invert_effective_tokens(PRESETS["paper-ours"], 125.0, -HUGE),
      f"^score is not finite: {-HUGE}$"),
     (lambda: scaling_factor_q(HUGE, 0.1, PRESETS["paper-ours"]),
      f"^dr must be finite and > 0, got {HUGE}$"),
     (lambda: ExperimentPoint(n_millions=125.0, d_tokens=HUGE, dr=0.3, s=0.05, accuracy=0.5),
      f"^d_tokens must be finite and > 0, got {HUGE}$"),
     (lambda: ScalingConstants(e=HUGE, a=1, alpha=0.5, b=1, beta=0.5, c1=0, c2=0),
      "^constant E is not finite$"),
     (lambda: QualityInputs(d=GIANT, dr=0.3, s=0.05, n_millions=125.0),
      f"^d must be finite and > 0, got {GIANT_SHOWN}$"),
     (lambda: invert_effective_tokens(PRESETS["paper-ours"], GIANT, 0.5),
      f"^n_millions must be finite and > 0, got {GIANT_SHOWN}$"),
     (lambda: invert_effective_tokens(PRESETS["paper-ours"], 125.0, GIANT),
      f"^score is not finite: {GIANT_SHOWN}$"),
     (lambda: invert_effective_tokens(PRESETS["paper-ours"], 125.0, -GIANT),
      f"^score is not finite: a negative int of {GIANT.bit_length()} bits$"),
     (lambda: scaling_factor_q(GIANT, 0.1, PRESETS["paper-ours"]),
      f"^dr must be finite and > 0, got {GIANT_SHOWN}$"),
     (lambda: ExperimentPoint(GIANT, 1e9, 0.3, 0.05, 0.5),
      f"^n_millions must be finite and > 0, got {GIANT_SHOWN}$")],
    ids=["quality-inputs", "invert-n", "invert-score", "invert-negative-score",
         "scaling-factor-q", "experiment-point", "constants",
         "giant-quality-inputs", "giant-invert-n", "giant-invert-score",
         "giant-invert-negative-score", "giant-scaling-factor-q", "giant-experiment-point"],
)
def test_an_int_beyond_the_float_range_is_a_domain_error(call, message):
    with pytest.raises(ScalingDomainError, match=message):
        call()


def test_a_giant_accuracy_is_named_by_its_size():
    with pytest.raises(FittingError, match=f"^accuracy must be in \\[0, 1\\], got {GIANT_SHOWN}$"):
        ExperimentPoint(125.0, 1e9, 0.3, 0.05, GIANT)


NEGATIVE_GIANT_SHOWN = f"a negative int of {GIANT.bit_length()} bits"
TWO_DOCS = Corpus.from_texts(["a b", "c d"])


def _fixture_fit():
    points = fixture_points()
    return points, fit_constants(points, default_initial_guess("F1"))


@pytest.mark.parametrize(
    "call, error, message",
    [(lambda: sample_fraction(TWO_DOCS, GIANT), CorpusError,
      f"fraction must be in (0, 1], got {GIANT_SHOWN}"),
     (lambda: select_by_weight(TWO_DOCS, [0.0, 0.0], -GIANT), RefineError,
      f"budget_tokens must be >= 1, got {NEGATIVE_GIANT_SHOWN}"),
     (lambda: minhash_signature(TWO_DOCS, GIANT), RefineError,
      f"seed must be in [0, 2**64), got {GIANT_SHOWN}"),
     (lambda: fit_constants(fixture_points(), default_initial_guess("F1"), n_restarts=-GIANT),
      FittingError, f"n_restarts must be >= 0, got {NEGATIVE_GIANT_SHOWN}"),
     (lambda: bootstrap_se(*_fixture_fit(), n_resamples=-GIANT, seed=0), FittingError,
      f"n_resamples must be >= 2, got {NEGATIVE_GIANT_SHOWN}"),
     (lambda: train_kgram_scorer(TWO_DOCS, k=-GIANT), ScorerError,
      f"k must be >= 1, got {NEGATIVE_GIANT_SHOWN}"),
     (lambda: train_kgram_scorer(TWO_DOCS, smoothing=-GIANT), ScorerError,
      f"smoothing must be > 0, got {NEGATIVE_GIANT_SHOWN}"),
     (lambda: train_kgram_scorer(TWO_DOCS, k=GIANT), ScorerError,
      f"k={GIANT_SHOWN} exceeds longest reference document (2 tokens)"),
     (lambda: score_corpus(SimpleNamespace(context_len=-GIANT), TWO_DOCS), ScorerError,
      f"context_len must be >= 1, got {NEGATIVE_GIANT_SHOWN}")],
    ids=["sample-fraction", "select-budget", "minhash-seed", "fit-restarts",
         "bootstrap-resamples", "kgram-k", "kgram-smoothing", "kgram-k-too-long",
         "context-len"],
)
def test_a_giant_int_is_named_by_its_size_in_each_modules_error(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_quality_inputs_keeps_its_dataclass_contract():
    q = QualityInputs(1e9, 0.3, 0.05, 125.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        q.d = 2e9
    same = QualityInputs(d=1e9, dr=0.3, s=0.05, n_millions=125.0)
    assert q == same and hash(q) == hash(same)
    assert q != QualityInputs(1e9, 0.3, 0.05, 126.0)
    assert repr(q) == "QualityInputs(d=1000000000.0, dr=0.3, s=0.05, n_millions=125.0)"
    assert (q.d, q.dr, q.s, q.n_millions) == (1e9, 0.3, 0.05, 125.0)
    assert [f.name for f in dataclasses.fields(QualityInputs)] == ["d", "dr", "s", "n_millions"]
    assert replace(q, s=0.1) == QualityInputs(1e9, 0.3, 0.1, 125.0)
    with pytest.raises(ScalingDomainError, match="^d must be finite and > 0, got 0.0$"):
        replace(q, d=0.0)
    # With two bad fields, the first in field order is named.
    with pytest.raises(ScalingDomainError, match="^dr must be finite and > 0, got nan$"):
        QualityInputs(d=1e9, dr=math.nan, s=-1.0, n_millions=125.0)
    with pytest.raises(ScalingDomainError, match="^s must be finite and > 0, got -1.0$"):
        QualityInputs(d=1e9, dr=0.3, s=-1.0, n_millions=math.inf)


# The law written out from the module docstring, in the operation order of
# ``_dq``, ``_score`` and ``invert_effective_tokens``.
def reference_dq(d, dr, s, c):
    if c.form == "F1":
        return d * math.exp(c.c1 * dr + c.c2 * s)
    if c.form == "F2":
        return d * dr**c.c1 * math.exp(c.c2 * s)
    if c.form == "F3":
        return d * math.exp(c.c1 * dr) * s**c.c2
    return d * dr**c.c1 * s**c.c2


def reference_score(n, dq, c):
    return c.e + c.a / n**c.alpha + c.b / dq**c.beta


def reference_invert(c, n, score):
    n_alpha = n**c.alpha
    return (c.b * n_alpha / ((score - c.e) * n_alpha - c.a)) ** (1.0 / c.beta)


def same_float(x, y):
    """Bit-for-bit equality, so -0.0 differs from 0.0 and NaN equals NaN."""
    return struct.pack("<d", x) == struct.pack("<d", y)


@pytest.mark.parametrize(
    "consts",
    [PRESETS["paper-ours"], PRESETS["besiroglu-chinchilla"]]
    + [replace(PRESETS["paper-ours"], form=form) for form in FORMS[1:]],
    ids=["paper-ours", "besiroglu-chinchilla", "F2", "F3", "F4"],
)
def test_scalar_api_matches_the_reference_law_bit_for_bit(consts):
    rng = np.random.default_rng(37)
    for n, d, dr, s in zip((10 ** rng.uniform(0, 4, 2000)).tolist(),
                           (10 ** rng.uniform(6, 12, 2000)).tolist(),
                           rng.uniform(0.05, 0.9, 2000).tolist(),
                           rng.uniform(0.01, 0.5, 2000).tolist()):
        q_in = QualityInputs(d=d, dr=dr, s=s, n_millions=n)
        dq = reference_dq(d, dr, s, consts)
        score = reference_score(n, dq, consts)
        assert effective_tokens(q_in, consts) == dq
        assert predict_accuracy_unclamped(q_in, consts) == score
        assert same_float(predict_accuracy(q_in, consts), min(max(score, 0.0), 1.0))
        assert invert_effective_tokens(consts, n, score) == reference_invert(consts, n, score)
