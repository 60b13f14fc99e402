"""Static SVG/CSV report files for a fit.

The plots are hand-rolled SVG (no plotting dependency, byte-stable
output): a predicted-vs-observed accuracy scatter, an accuracy-vs-
effective-tokens view with per-model-size prediction curves, and a CSV
grid of the scaling factor over the (diversity, syntheticity) plane.
"""

from __future__ import annotations

import math
import os
from typing import Sequence

from .errors import QTokensError, ScalingDomainError
from .fitting import pearson
from .scaling_law import ScalingConstants, _check_number, _check_positive, _dq, _score, clamp_unit

WIDTH = 640
HEIGHT = 480
MARGIN = 60
# Axes span the data plus 8% of its range on each side, with 5 tick intervals.
PAD_FRAC = 0.08
TICKS = 5
# The Q surface is a 21 x 21 grid over the fitted points' Dr and S ranges.
SURFACE_STEPS = 21

PRED_VS_TRUE_SVG = "pred_vs_true.svg"
ACC_VS_DQ_SVG = "acc_vs_dq.svg"
Q_SURFACE_CSV = "q_surface.csv"

# Point fields the plots read; the first four must also be positive.
POSITIVE_POINT_KEYS = ("n_millions", "d_tokens", "dr", "s")
POINT_KEYS = POSITIVE_POINT_KEYS + ("observed", "predicted")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


class _Axes:
    """Linear or log-x mapping from data space to pixel space."""

    def __init__(self, xlim, ylim, log_x=False):
        self.xlim = xlim
        self.ylim = ylim
        self.log_x = log_x

    def x(self, v: float) -> float:
        lo, hi = self.xlim
        if self.log_x:
            v, lo, hi = math.log10(v), math.log10(lo), math.log10(hi)
        frac = (v - lo) / (hi - lo)
        return MARGIN + frac * (WIDTH - 2 * MARGIN)

    def y(self, v: float) -> float:
        lo, hi = self.ylim
        frac = (v - lo) / (hi - lo)
        return HEIGHT - MARGIN - frac * (HEIGHT - 2 * MARGIN)


def _pad_limits(values: Sequence[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    span = (hi - lo) or abs(hi) or 1.0
    return lo - PAD_FRAC * span, hi + PAD_FRAC * span


def _svg_document(body: list[str], title: str, xlabel: str, ylabel: str) -> str:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
        f'<text x="{WIDTH / 2:.1f}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>',
        f'<text x="16" y="{HEIGHT / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {HEIGHT / 2:.1f})">{ylabel}</text>',
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
        f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="black"/>',
    ]
    parts.extend(body)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _ticks(axes: _Axes) -> list[str]:
    parts = []
    for i in range(TICKS + 1):
        xf = axes.xlim[0] + (axes.xlim[1] - axes.xlim[0]) * i / TICKS
        if axes.log_x:
            lg0, lg1 = math.log10(axes.xlim[0]), math.log10(axes.xlim[1])
            xf = 10 ** (lg0 + (lg1 - lg0) * i / TICKS)
            label = f"{xf:.2g}"
        else:
            label = _fmt(xf)
        px = axes.x(xf)
        parts.append(
            f'<line x1="{px:.1f}" y1="{HEIGHT - MARGIN}" x2="{px:.1f}" '
            f'y2="{HEIGHT - MARGIN + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.1f}" y="{HEIGHT - MARGIN + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{label}</text>'
        )
        yf = axes.ylim[0] + (axes.ylim[1] - axes.ylim[0]) * i / TICKS
        py = axes.y(yf)
        parts.append(
            f'<line x1="{MARGIN - 5}" y1="{py:.1f}" x2="{MARGIN}" y2="{py:.1f}" '
            f'stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN - 8}" y="{py + 3:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{_fmt(yf)}</text>'
        )
    return parts


def pred_vs_true_svg(observed: Sequence[float], predicted: Sequence[float]) -> str:
    """Scatter of predicted against observed accuracy with a y=x guide."""
    r = pearson(predicted, observed)
    lim = _pad_limits(list(observed) + list(predicted))
    axes = _Axes(lim, lim)
    body = _ticks(axes)
    body.append(
        f'<line x1="{axes.x(lim[0]):.1f}" y1="{axes.y(lim[0]):.1f}" '
        f'x2="{axes.x(lim[1]):.1f}" y2="{axes.y(lim[1]):.1f}" '
        f'stroke="gray" stroke-dasharray="4 3"/>'
    )
    for obs, pred in zip(observed, predicted):
        body.append(
            f'<circle cx="{axes.x(obs):.1f}" cy="{axes.y(pred):.1f}" r="3" '
            f'fill="steelblue" fill-opacity="0.6"/>'
        )
    body.append(
        f'<text x="{WIDTH - MARGIN - 8}" y="{MARGIN + 18}" text-anchor="end" '
        f'font-family="sans-serif" font-size="12">pearson r = {r:.4f}</text>'
    )
    return _svg_document(body, "Predicted vs observed accuracy", "observed", "predicted")


def acc_vs_dq_svg(points: Sequence[dict], constants: ScalingConstants) -> str:
    """Observed accuracy against effective tokens, with model curves.
    ``points`` must have passed ``_check_points``."""
    dqs = [_dq(p["d_tokens"], p["dr"], p["s"], constants.c1, constants.c2, constants.form)
           for p in points]
    for i, dq in enumerate(dqs):
        if not 0 < dq < math.inf:  # a log axis, and a float product can overflow to inf
            raise ScalingDomainError(f"point {i}: effective tokens {dq} cannot be plotted")
    accs = [p["observed"] for p in points]
    xlim = (min(dqs) / 1.5, max(dqs) * 1.5)
    ylim = _pad_limits(accs)
    axes = _Axes(xlim, ylim, log_x=True)
    body = _ticks(axes)
    palette = ("#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee", "#aa3377", "#bbbbbb")
    sizes = sorted({p["n_millions"] for p in points})
    for k, size in enumerate(sizes):
        color = palette[k % len(palette)]
        steps = 64
        lg0, lg1 = math.log10(xlim[0]), math.log10(xlim[1])
        coords = []
        for i in range(steps + 1):
            dq = 10 ** (lg0 + (lg1 - lg0) * i / steps)
            score = clamp_unit(_score(size, dq, constants.e, constants.a, constants.alpha,
                                      constants.b, constants.beta))
            if ylim[0] <= score <= ylim[1]:
                coords.append(f"{axes.x(dq):.1f},{axes.y(score):.1f}")
        if len(coords) >= 2:
            body.append(
                f'<polyline points="{" ".join(coords)}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
        body.append(
            f'<text x="{WIDTH - MARGIN - 8}" y="{MARGIN + 16 + 14 * k}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10" fill="{color}">N = {size:g}M</text>'
        )
        for p, dq in zip(points, dqs):
            if p["n_millions"] == size:
                body.append(
                    f'<circle cx="{axes.x(dq):.1f}" cy="{axes.y(p["observed"]):.1f}" '
                    f'r="3" fill="{color}" fill-opacity="0.6"/>'
                )
    return _svg_document(body, "Accuracy vs effective tokens", "effective tokens", "accuracy")


def q_surface_csv(
    constants: ScalingConstants,
    dr_range: tuple[float, float],
    s_range: tuple[float, float],
) -> str:
    """``SURFACE_STEPS`` x ``SURFACE_STEPS`` grid of the fitted form's
    scaling factor Q = Dq / D over the (diversity, syntheticity) plane;
    both ranges must lie above 0."""
    lines = ["diversity,syntheticity,q"]
    for i in range(SURFACE_STEPS):
        dr = dr_range[0] + (dr_range[1] - dr_range[0]) * i / (SURFACE_STEPS - 1)
        for j in range(SURFACE_STEPS):
            s = s_range[0] + (s_range[1] - s_range[0]) * j / (SURFACE_STEPS - 1)
            q = _dq(1.0, dr, s, constants.c1, constants.c2, constants.form)
            lines.append(f"{dr:.6f},{s:.6f},{q:.8e}")
    return "\n".join(lines) + "\n"


def _check_points(points) -> None:
    """Reject a malformed point list before any file is written."""
    if not isinstance(points, list) or len(points) < 2:
        raise QTokensError("need >= 2 points to plot correlation")
    for i, point in enumerate(points):
        if not isinstance(point, dict):
            raise QTokensError(f"point {i} is not a JSON object")
        for key in POINT_KEYS:
            if key not in point:
                raise QTokensError(f"point {i} has no {key!r}")
            name = f"point {i}: {key!r}"
            value = _check_number(name, point[key])
            if key in POSITIVE_POINT_KEYS:
                _check_positive(name, value)


def write_report(report_dict: dict, out_dir: str) -> list[str]:
    """Emit the three report files for a fit-report dictionary.

    The dictionary must carry per-point records (the fit command writes
    them); without at least two points the scatter is undefined. Every
    point is checked and every file rendered before any file is written.
    """
    if not isinstance(report_dict, dict):
        raise QTokensError("fit report is not a JSON object")
    points = report_dict.get("points")
    _check_points(points)
    if "constants" not in report_dict:
        raise QTokensError("fit report has no constants")
    constants = ScalingConstants.from_dict(report_dict["constants"])
    drs = [p["dr"] for p in points]
    ss = [p["s"] for p in points]
    # Every file is rendered before any is written, so a failure leaves none.
    files = {
        PRED_VS_TRUE_SVG: pred_vs_true_svg([p["observed"] for p in points],
                                           [p["predicted"] for p in points]),
        ACC_VS_DQ_SVG: acc_vs_dq_svg(points, constants),
        Q_SURFACE_CSV: q_surface_csv(constants, (min(drs), max(drs)), (min(ss), max(ss))),
    }
    os.makedirs(out_dir, exist_ok=True)
    outputs = []
    for name, text in files.items():
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        outputs.append(path)
    return outputs
