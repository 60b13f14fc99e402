import json
import math

import numpy as np
import pytest

from qtokens.errors import ScalingDomainError
from qtokens.scaling_law import (
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
    for dr, s in ((0.1, 0.9), (3.0, 0.001)):
        assert scaling_factor_q(dr, s, 0.0, 0.0) == 1.0


def test_q_hand_evaluation_random_100():
    ours = PRESETS["paper-ours"]
    q = scaling_factor_q(RANDOM_100["dr"], RANDOM_100["s"], ours.c1, ours.c2)
    assert q == math.exp(-12.7756 * 0.36370 + 0.6369 * 0.02635)
    assert q == pytest.approx(9.756e-3, rel=5e-4)


def test_q_hand_evaluation_selsyn_100():
    ours = PRESETS["paper-ours"]
    q_selsyn = scaling_factor_q(SELSYN_100["dr"], SELSYN_100["s"], ours.c1, ours.c2)
    q_random = scaling_factor_q(RANDOM_100["dr"], RANDOM_100["s"], ours.c1, ours.c2)
    assert q_selsyn == math.exp(-12.7756 * 0.28578 + 0.6369 * 0.11902)
    assert q_selsyn == pytest.approx(2.80e-2, rel=1e-3)
    assert q_selsyn > q_random


def test_q_rejects_non_finite():
    with pytest.raises(ScalingDomainError):
        scaling_factor_q(math.inf, 0.1, 1.0, 1.0)
    with pytest.raises(ScalingDomainError):
        scaling_factor_q(0.1, 0.1, math.nan, 1.0)


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
        q = scaling_factor_q(dr, s, ours.c1, ours.c2)
        assert scaling_factor_q(dr, s + 1e-6, ours.c1, ours.c2) > q
        assert scaling_factor_q(dr - 1e-6, s, ours.c1, ours.c2) > q


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
