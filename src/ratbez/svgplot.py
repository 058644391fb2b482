"""Dependency-free SVG charts.

Four plot kinds: the curve trace itself, the derivative-magnitude
profile (optionally with a horizontal bound overlay), both sampled at
512 evenly spaced parameters, and per-degree bound-comparison and
runtime charts built from experiment rows.  `render_plot` builds the
series of each kind and draws them through one chart body into a
complete SVG document string.
"""

from __future__ import annotations

import numpy as np

from ._kernels import _rowwise_norm
from .curve import RationalBezierCurve, _points
from .derivative import build_derivative_form, eval_derivative_explicit_many
from .experiments import Table1Row

_WIDTH, _HEIGHT = 720, 460
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 66, 18, 30, 46
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
_SAMPLES = 512  # parameters sampled by the curve kinds

CURVE_KINDS = ("curve", "derivative_norm")
PLOT_KINDS = CURVE_KINDS + ("bound_comparison", "runtime")


def _axis(values: np.ndarray, pad: float, start: int, end: int):
    """The range of `values` padded by `pad` of its width at each end (a
    flat range is widened), and its affine map onto pixels `start`..`end`."""
    lo, hi = float(values.min()), float(values.max())
    widen = max(1.0, abs(lo)) * 0.5 if hi <= lo else (hi - lo) * pad
    lo, hi = lo - widen, hi + widen
    if not np.isfinite(hi - lo):
        raise ValueError(f"plot range [{lo:.6g}, {hi:.6g}] overflows")
    return lo, hi, lambda v: start + (v - lo) / (hi - lo) * (end - start)


def _series_chart(series, hlines, xlabel: str, ylabel: str, title: str) -> str:
    """Render labelled (xs, ys) series plus labelled horizontal overlay lines."""
    all_x = np.concatenate([np.asarray(xs, dtype=float) for _, xs, _ in series])
    all_y = np.concatenate([np.asarray(ys, dtype=float) for _, _, ys in series]
                           + [np.array([y for _, y in hlines], dtype=float)])
    if not (np.isfinite(all_x).all() and np.isfinite(all_y).all()):
        raise ValueError("plot data must be finite")
    x0, x1 = _MARGIN_L, _WIDTH - _MARGIN_R
    y0, y1 = _HEIGHT - _MARGIN_B, _MARGIN_T
    xlo, xhi, to_px = _axis(all_x, 0.0, x0, x1)
    ylo, yhi, to_py = _axis(all_y, 0.05, y0, y1)
    labels = [label for label, *_ in series] + [label for label, _ in hlines]
    colors = [_PALETTE[i % len(_PALETTE)] for i in range(len(labels))]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="monospace" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.0f}" y="18" text-anchor="middle" font-size="14">{title}</text>',
        '<g class="axes" stroke="#333" fill="#333">',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}"/>',
    ]
    for i in range(5):
        fx, fy = xlo + (xhi - xlo) * (i / 4), ylo + (yhi - ylo) * (i / 4)
        px, py = to_px(fx), to_py(fy)
        parts += [
            f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y0 + 5}"/>',
            f'<text x="{px:.2f}" y="{y0 + 18}" text-anchor="middle" stroke="none">{fx:.6g}</text>',
            f'<line x1="{x0 - 5}" y1="{py:.2f}" x2="{x0}" y2="{py:.2f}"/>',
            f'<text x="{x0 - 8}" y="{py + 4:.2f}" text-anchor="end" stroke="none">{fy:.6g}</text>',
        ]
    parts += [
        f'<text x="{(x0 + x1) / 2:.0f}" y="{_HEIGHT - 8}" text-anchor="middle" stroke="none">{xlabel}</text>',
        f'<text x="14" y="{(y0 + y1) / 2:.0f}" text-anchor="middle" stroke="none" '
        f'transform="rotate(-90 14 {(y0 + y1) / 2:.0f})">{ylabel}</text>',
        "</g>",
        f'<g class="data" data-x-min="{xlo:.9g}" data-x-max="{xhi:.9g}" '
        f'data-y-min="{ylo:.9g}" data-y-max="{yhi:.9g}">',
    ]
    for (label, xs, ys), color in zip(series, colors):
        pts = " ".join(f"{to_px(px):.2f},{to_py(py):.2f}" for px, py in zip(xs, ys))
        parts.append(f'<polyline class="series" data-label="{label}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5" points="{pts}"/>')
    for (label, y), color in zip(hlines, colors[len(series):]):
        py = to_py(y)
        parts.append(f'<line class="overlay" data-label="{label}" data-y="{y:.9g}" '
                     f'x1="{x0}" y1="{py:.2f}" x2="{x1}" y2="{py:.2f}" '
                     f'stroke="{color}" stroke-width="1.2" stroke-dasharray="6 4"/>')
    parts.append("</g>")
    if len(labels) > 1:
        parts.append('<g class="legend">')
        for i, (label, color) in enumerate(zip(labels, colors)):
            ly = _MARGIN_T + 8 + 16 * i
            parts += [f'<rect x="{x1 - 170}" y="{ly - 9}" width="10" height="10" fill="{color}"/>',
                      f'<text x="{x1 - 155}" y="{ly}">{label}</text>']
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts)


def render_plot(kind: str, curve: RationalBezierCurve | None = None,
                rows: list[Table1Row] | None = None,
                overlay_bound: float | None = None) -> str:
    """The SVG document of one plot kind; curve kinds need `curve`, table
    kinds `rows`.  The curve kinds sample 512 parameters: `curve` traces
    (t, x) for 1-d curves and (x, y) otherwise, `derivative_norm` profiles
    |r'(t)| over [0, 1], with `overlay_bound` drawn as a horizontal line
    (no other kind takes one).  Data that is not finite, or whose padded
    range overflows, raises `ValueError`."""
    if kind not in PLOT_KINDS:
        raise ValueError(f"unknown plot kind {kind!r}; expected one of {PLOT_KINDS}")
    if overlay_bound is not None and kind != "derivative_norm":
        raise ValueError(f"plot kind {kind!r} takes no overlay bound; only 'derivative_norm' does")
    source = curve if kind in CURVE_KINDS else rows
    if source is None:
        needs = "a curve input" if kind in CURVE_KINDS else "results-table rows"
        raise ValueError(f"plot kind {kind!r} needs {needs}")
    if kind in CURVE_KINDS:
        ts = np.linspace(0.0, 1.0, _SAMPLES)
    elif not rows:
        raise ValueError("no rows to plot")
    else:
        ns = [r.degree for r in rows]
    if kind == "curve":
        pts = _points(curve, ts)
        if curve.dimension == 1:
            chart = [("r(t)", ts, pts[:, 0])], (), "t", "x", "curve"
        else:
            chart = [("r(t)", pts[:, 0], pts[:, 1])], (), "x", "y", "curve"
    elif kind == "derivative_norm":
        norms = _rowwise_norm(eval_derivative_explicit_many(build_derivative_form(curve), ts))
        hlines = () if overlay_bound is None else [("bound", float(overlay_bound))]
        chart = [("|r'(t)|", ts, norms)], hlines, "t", "|r'(t)|", "derivative magnitude"
    elif kind == "bound_comparison":
        series = [("measured peak", ns, [r.max_first_derivative for r in rows]),
                  ("conjectured bound", ns, [r.conjectured_bound for r in rows]),
                  ("elevation bound", ns, [r.elevation_bound for r in rows])]
        chart = series, (), "n", "value", "bounds vs measured peak"
    else:
        series = [("runtime", ns, [r.runtime_seconds for r in rows])]
        chart = series, (), "n", "seconds", "elevation bound runtime"
    return _series_chart(*chart)
