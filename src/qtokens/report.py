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
from .scaling_law import (
    ScalingConstants,
    _check_number,
    _check_positive,
    _dq,
    _score,
    clamp_unit,
    scaling_factor_q,
)

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


def _lerp(lo: float, hi: float, i: int, n: int) -> float:
    """Step ``i`` of ``n`` even steps from ``lo`` to ``hi``."""
    return lo + (hi - lo) * i / n


def _px(v) -> str:
    """A computed (float) pixel position to 0.1 px; a fixed (int) one as is."""
    return f"{v:.1f}" if isinstance(v, float) else str(v)


def _text(x, y, label, size: int, anchor: str = "middle", attrs: str = "") -> str:
    return (f'<text x="{_px(x)}" y="{_px(y)}" text-anchor="{anchor}" '
            f'font-family="sans-serif" font-size="{size}"{attrs}>{label}</text>')


def _line(x1, y1, x2, y2, style: str = 'stroke="black"') -> str:
    return f'<line x1="{_px(x1)}" y1="{_px(y1)}" x2="{_px(x2)}" y2="{_px(y2)}" {style}/>'


def _circle(cx: float, cy: float, fill: str) -> str:
    return f'<circle cx="{_px(cx)}" cy="{_px(cy)}" r="3" fill="{fill}" fill-opacity="0.6"/>'


class _Axes:
    """Linear or log-x mapping from data space to pixel space."""

    def __init__(self, xlim, ylim, log_x=False):
        self.ylim = ylim
        self.log_x = log_x
        # The x limits in the space the axis is linear in.
        self._xspan = (math.log10(xlim[0]), math.log10(xlim[1])) if log_x else xlim

    def x(self, v: float) -> float:
        lo, hi = self._xspan
        if self.log_x:
            v = math.log10(v)
        frac = (v - lo) / (hi - lo)
        return MARGIN + frac * (WIDTH - 2 * MARGIN)

    def y(self, v: float) -> float:
        lo, hi = self.ylim
        frac = (v - lo) / (hi - lo)
        return HEIGHT - MARGIN - frac * (HEIGHT - 2 * MARGIN)

    def x_at(self, i: int, n: int) -> float:
        """The data x at step ``i`` of ``n`` even steps along the axis."""
        v = _lerp(*self._xspan, i, n)
        return 10 ** v if self.log_x else v


def _pad_limits(values: Sequence[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    span = (hi - lo) or abs(hi) or 1.0
    return lo - PAD_FRAC * span, hi + PAD_FRAC * span


def _svg_document(axes: _Axes, body: list[str], title: str, xlabel: str, ylabel: str) -> str:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        _text(WIDTH / 2, 24, title, 16),
        _text(WIDTH / 2, HEIGHT - 12, xlabel, 12),
        _text(16, HEIGHT / 2, ylabel, 12, attrs=f' transform="rotate(-90 16 {_px(HEIGHT / 2)})"'),
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
        f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="black"/>',
    ]
    for i in range(TICKS + 1):
        xf = axes.x_at(i, TICKS)
        px = axes.x(xf)
        yf = _lerp(*axes.ylim, i, TICKS)
        py = axes.y(yf)
        parts += [
            _line(px, HEIGHT - MARGIN, px, HEIGHT - MARGIN + 5),
            _text(px, HEIGHT - MARGIN + 18, f"{xf:.2g}" if axes.log_x else f"{xf:.2f}", 10),
            _line(MARGIN - 5, py, MARGIN, py),
            _text(MARGIN - 8, py + 3, f"{yf:.2f}", 10, anchor="end"),
        ]
    parts.extend(body)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def pred_vs_true_svg(observed: Sequence[float], predicted: Sequence[float]) -> str:
    """Scatter of predicted against observed accuracy with a y=x guide."""
    r = pearson(predicted, observed)
    lim = _pad_limits(list(observed) + list(predicted))
    axes = _Axes(lim, lim)
    body = [_line(axes.x(lim[0]), axes.y(lim[0]), axes.x(lim[1]), axes.y(lim[1]),
                  'stroke="gray" stroke-dasharray="4 3"')]
    body += [_circle(axes.x(obs), axes.y(pred), "steelblue")
             for obs, pred in zip(observed, predicted)]
    body.append(_text(WIDTH - MARGIN - 8, MARGIN + 18, f"pearson r = {r:.4f}", 12, anchor="end"))
    return _svg_document(axes, body, "Predicted vs observed accuracy", "observed", "predicted")


def acc_vs_dq_svg(points: Sequence[dict], constants: ScalingConstants) -> str:
    """Observed accuracy against effective tokens, with model curves.
    ``points`` must have passed ``_check_points``."""
    dqs = [_dq(p["d_tokens"], p["dr"], p["s"], constants.c1, constants.c2, constants.form)
           for p in points]
    for i, dq in enumerate(dqs):
        if not 0 < dq < math.inf:  # a log axis, and a float product can overflow to inf
            raise ScalingDomainError(f"point {i}: effective tokens {dq} cannot be plotted")
    ylim = _pad_limits([p["observed"] for p in points])
    axes = _Axes((min(dqs) / 1.5, max(dqs) * 1.5), ylim, log_x=True)
    steps = 64  # points on each model size's curve
    curve_dqs = [axes.x_at(i, steps) for i in range(steps + 1)]
    palette = ("#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee", "#aa3377", "#bbbbbb")
    body = []
    for k, size in enumerate(sorted({p["n_millions"] for p in points})):
        color = palette[k % len(palette)]
        coords = []
        for dq in curve_dqs:
            score = clamp_unit(_score(size, dq, constants.e, constants.a, constants.alpha,
                                      constants.b, constants.beta))
            if ylim[0] <= score <= ylim[1]:
                coords.append(f"{axes.x(dq):.1f},{axes.y(score):.1f}")
        if len(coords) >= 2:
            body.append(f'<polyline points="{" ".join(coords)}" fill="none" '
                        f'stroke="{color}" stroke-width="1.5"/>')
        body.append(_text(WIDTH - MARGIN - 8, MARGIN + 16 + 14 * k, f"N = {size:g}M", 10,
                          anchor="end", attrs=f' fill="{color}"'))
        body += [_circle(axes.x(dq), axes.y(p["observed"]), color)
                 for p, dq in zip(points, dqs) if p["n_millions"] == size]
    return _svg_document(axes, body, "Accuracy vs effective tokens", "effective tokens", "accuracy")


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
        dr = _lerp(*dr_range, i, SURFACE_STEPS - 1)
        for j in range(SURFACE_STEPS):
            s = _lerp(*s_range, j, SURFACE_STEPS - 1)
            lines.append(f"{dr:.6f},{s:.6f},{scaling_factor_q(dr, s, constants):.8e}")
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
