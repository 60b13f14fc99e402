"""Quality-adjusted token scaling law.

The accuracy model is ``clamp(E + A / N^alpha + B / Dq^beta)`` where N is
the model size in millions of parameters and Dq is the quality-adjusted
("effective") token count. Dq multiplies the raw token count D by a
scaling factor built from the corpus diversity score Dr and syntheticity
score S; four functional forms of that factor are supported:

    F1: D * exp(c1 * Dr + c2 * S)
    F2: D * Dr^c1 * exp(c2 * S)
    F3: D * exp(c1 * Dr) * S^c2
    F4: D * Dr^c1 * S^c2

Accuracy is a fraction in [0, 1]; N is in millions. Only this unit
convention reproduces the shipped preset's accuracy predictions.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace
from typing import Mapping

from .errors import ScalingDomainError

FORMS = ("F1", "F2", "F3", "F4")
# The seven constants by their JSON names, in ``ScalingConstants`` field order.
PARAM_NAMES = ("E", "A", "alpha", "B", "beta", "c1", "c2")


@dataclass(frozen=True)
class ScalingConstants:
    """The seven fitted parameters plus the effective-token form."""

    e: float
    a: float
    alpha: float
    b: float
    beta: float
    c1: float
    c2: float
    form: str = "F1"

    def __post_init__(self):
        if self.form not in FORMS:
            raise ScalingDomainError(f"form must be one of {FORMS}, got {self.form!r}")
        if self.beta == 0:
            raise ScalingDomainError("beta must be nonzero")
        for name, value in zip(PARAM_NAMES, astuple(self)):  # stops before form
            if not math.isfinite(value):
                raise ScalingDomainError(f"constant {name} is not finite")

    def to_dict(self) -> dict:
        return dict(zip(PARAM_NAMES + ("form",), astuple(self)))

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScalingConstants":
        try:
            return cls(*(float(data[name]) for name in PARAM_NAMES),
                       form=str(data.get("form", "F1")))
        except KeyError as exc:
            raise ScalingDomainError(f"constants JSON missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ScalingDomainError(f"constants JSON has a bad value: {exc}") from exc


# Shipped presets: the fitted constants for this model, and the published
# re-estimate of the original token-count law (no quality terms, so the
# scaling factor collapses to 1).
PRESETS: dict[str, ScalingConstants] = {
    "paper-ours": ScalingConstants(
        e=1.1400, a=-0.8546, alpha=0.0450, b=-18.3078, beta=0.3683,
        c1=-12.7756, c2=0.6369, form="F1",
    ),
    "besiroglu-chinchilla": ScalingConstants(
        e=1.8172, a=482.01, alpha=0.3478, b=2085.43, beta=0.3658,
        c1=0.0, c2=0.0, form="F1",
    ),
}


def default_initial_guess(form: str = "F1") -> ScalingConstants:
    """Standard starting point for fits: the published token-count law
    constants with both quality coefficients at 0.5."""
    base = PRESETS["besiroglu-chinchilla"]
    return replace(base, c1=0.5, c2=0.5, form=form)


@dataclass(frozen=True)
class QualityInputs:
    """One prediction query: token count, quality scores, model size."""

    d: float
    dr: float
    s: float
    n_millions: float

    def __post_init__(self):
        for name in ("d", "dr", "s", "n_millions"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ScalingDomainError(f"{name} must be finite and > 0, got {value}")


def _dq(d, dr, s, c1, c2, form, exp=math.exp):
    """Effective tokens ``D * Q(Dr, S)`` under ``form``, without domain
    checks. Takes Python floats with the default ``math.exp`` or numpy
    arrays with ``exp=np.exp``; the scalar API, the fitter and the report
    all evaluate F1-F4 here. Floats that overflow raise
    ``ScalingDomainError``; arrays overflow to inf.
    """
    try:
        if form == "F1":
            return d * exp(c1 * dr + c2 * s)
        if form == "F2":
            return d * dr**c1 * exp(c2 * s)
        if form == "F3":
            return d * exp(c1 * dr) * s**c2
        return d * dr**c1 * s**c2
    except OverflowError as exc:
        raise ScalingDomainError(
            f"effective tokens overflow under form {form} with c1={c1}, c2={c2}"
        ) from exc


def _score(n, dq, e, a, alpha, b, beta):
    """Unclamped score ``E + A / N^alpha + B / Dq^beta``, for floats or
    numpy arrays. Floats that overflow or divide by zero raise
    ``ScalingDomainError``."""
    try:
        return e + a / n**alpha + b / dq**beta
    except (OverflowError, ZeroDivisionError) as exc:
        raise ScalingDomainError(f"score is undefined at N={n}, Dq={dq}: {exc}") from exc


def scaling_factor_q(dr: float, s: float, c1: float, c2: float) -> float:
    """Multiplicative quality adjustment ``exp(c1 * dr + c2 * s)``."""
    for name, value in (("dr", dr), ("s", s), ("c1", c1), ("c2", c2)):
        if not math.isfinite(value):
            raise ScalingDomainError(f"{name} is not finite: {value}")
    return _dq(1.0, dr, s, c1, c2, "F1")


def effective_tokens(q_in: QualityInputs, consts: ScalingConstants) -> float:
    """Effective token count Dq for a validated query."""
    return _dq(q_in.d, q_in.dr, q_in.s, consts.c1, consts.c2, consts.form)


def clamp_unit(x: float) -> float:
    """Restrict a score to [0, 1]."""
    return min(max(x, 0.0), 1.0)


def predict_accuracy_unclamped(q_in: QualityInputs, consts: ScalingConstants) -> float:
    """Model score before clamping; the quantity the fit and the
    inversion operate on."""
    return _score(q_in.n_millions, effective_tokens(q_in, consts),
                  consts.e, consts.a, consts.alpha, consts.b, consts.beta)


def predict_accuracy(q_in: QualityInputs, consts: ScalingConstants) -> float:
    """Predicted average zero-shot accuracy, clamped to [0, 1]."""
    return clamp_unit(predict_accuracy_unclamped(q_in, consts))


def invert_effective_tokens(consts: ScalingConstants, n_millions: float, score: float) -> float:
    """Effective tokens needed to reach an (unclamped) score at size N.

    Solves ``score = E + A / N^alpha + B / Dq^beta`` for Dq:
    ``Dq = (B * N^alpha / ((score - E) * N^alpha - A)) ** (1 / beta)``.
    Callers must pass unclamped scores; outside the domain of the real
    root, or where Dq is beyond the float range, this raises
    ``ScalingDomainError``.
    """
    if not (math.isfinite(n_millions) and n_millions > 0):
        raise ScalingDomainError(f"n_millions must be finite and > 0, got {n_millions}")
    if not math.isfinite(score):
        raise ScalingDomainError(f"score is not finite: {score}")
    try:
        n_alpha = n_millions**consts.alpha
        denom = (score - consts.e) * n_alpha - consts.a
        numer = consts.b * n_alpha
        if denom == 0:
            raise ScalingDomainError("loss unreachable at this model size")
        quotient = numer / denom
        if not (math.isfinite(quotient) and quotient > 0):
            raise ScalingDomainError("loss unreachable at this model size")
        return quotient ** (1.0 / consts.beta)
    except OverflowError as exc:
        raise ScalingDomainError(
            f"effective tokens overflow at N={n_millions}, score={score}"
        ) from exc
