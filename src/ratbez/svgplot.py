"""Dependency-free SVG charts.

Four plot kinds: the curve trace itself, the derivative-magnitude
profile (optionally with a horizontal bound overlay), and per-degree
bound-comparison and runtime charts built from experiment rows.
Renderers return complete SVG documents as strings.
"""

from __future__ import annotations

import numpy as np

from ._kernels import _rowwise_norm
from .curve import RationalBezierCurve, _rational
from .derivative import build_derivative_form, eval_derivative_explicit_many
from .experiments import Table1Row

_WIDTH, _HEIGHT = 720, 460
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 66, 18, 30, 46
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


class _Frame:
    """Affine data-to-pixel mapping with a padded y range."""

    def __init__(self, xmin, xmax, ymin, ymax):
        if xmax <= xmin:
            pad = max(1.0, abs(xmin)) * 0.5
            xmin, xmax = xmin - pad, xmax + pad
        if ymax <= ymin:
            pad = max(1.0, abs(ymin)) * 0.5
            ymin, ymax = ymin - pad, ymax + pad
        else:
            pad = (ymax - ymin) * 0.05
            ymin, ymax = ymin - pad, ymax + pad
        self.xmin, self.xmax = float(xmin), float(xmax)
        self.ymin, self.ymax = float(ymin), float(ymax)

    def x(self, v) -> float:
        span = _WIDTH - _MARGIN_L - _MARGIN_R
        return _MARGIN_L + (v - self.xmin) / (self.xmax - self.xmin) * span

    def y(self, v) -> float:
        span = _HEIGHT - _MARGIN_T - _MARGIN_B
        return _HEIGHT - _MARGIN_B - (v - self.ymin) / (self.ymax - self.ymin) * span


def _series_chart(series, hlines=(), xlabel="", ylabel="", title="") -> str:
    """Render labelled (xs, ys) series plus horizontal overlay lines."""
    all_x = np.concatenate([np.asarray(xs, dtype=float) for _, xs, _ in series])
    all_y = np.concatenate(
        [np.asarray(ys, dtype=float) for _, _, ys in series]
        + [np.array([y for _, y in hlines], dtype=float)]
        if hlines
        else [np.asarray(ys, dtype=float) for _, _, ys in series]
    )
    frame = _Frame(all_x.min(), all_x.max(), all_y.min(), all_y.max())

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="monospace" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.0f}" y="18" text-anchor="middle" font-size="14">{title}</text>'
        )

    x0, x1 = _MARGIN_L, _WIDTH - _MARGIN_R
    y0, y1 = _HEIGHT - _MARGIN_B, _MARGIN_T
    axes = [
        '<g class="axes" stroke="#333" fill="#333">',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}"/>',
    ]
    for i in range(5):
        fx = frame.xmin + (frame.xmax - frame.xmin) * i / 4
        px = frame.x(fx)
        axes.append(f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y0 + 5}"/>')
        axes.append(
            f'<text x="{px:.2f}" y="{y0 + 18}" text-anchor="middle" stroke="none">{fx:.6g}</text>'
        )
        fy = frame.ymin + (frame.ymax - frame.ymin) * i / 4
        py = frame.y(fy)
        axes.append(f'<line x1="{x0 - 5}" y1="{py:.2f}" x2="{x0}" y2="{py:.2f}"/>')
        axes.append(
            f'<text x="{x0 - 8}" y="{py + 4:.2f}" text-anchor="end" stroke="none">{fy:.6g}</text>'
        )
    if xlabel:
        axes.append(
            f'<text x="{(x0 + x1) / 2:.0f}" y="{_HEIGHT - 8}" text-anchor="middle" stroke="none">{xlabel}</text>'
        )
    if ylabel:
        axes.append(
            f'<text x="14" y="{(y0 + y1) / 2:.0f}" text-anchor="middle" stroke="none" '
            f'transform="rotate(-90 14 {(y0 + y1) / 2:.0f})">{ylabel}</text>'
        )
    axes.append("</g>")
    parts.extend(axes)

    parts.append(
        f'<g class="data" data-x-min="{frame.xmin:.9g}" data-x-max="{frame.xmax:.9g}" '
        f'data-y-min="{frame.ymin:.9g}" data-y-max="{frame.ymax:.9g}">'
    )
    for idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(
            f"{frame.x(px):.2f},{frame.y(py):.2f}" for px, py in zip(xs, ys)
        )
        parts.append(
            f'<polyline class="series" data-label="{label}" fill="none" '
            f'stroke="{color}" stroke-width="1.5" points="{pts}"/>'
        )
    for idx, (label, y) in enumerate(hlines):
        color = _PALETTE[(len(series) + idx) % len(_PALETTE)]
        py = frame.y(y)
        parts.append(
            f'<line class="overlay" data-label="{label}" data-y="{y:.9g}" '
            f'x1="{x0}" y1="{py:.2f}" x2="{x1}" y2="{py:.2f}" '
            f'stroke="{color}" stroke-width="1.2" stroke-dasharray="6 4"/>'
        )
    parts.append("</g>")

    legend_items = [(label, _PALETTE[i % len(_PALETTE)]) for i, (label, _, _) in enumerate(series)]
    legend_items += [
        (label, _PALETTE[(len(series) + i) % len(_PALETTE)]) for i, (label, _) in enumerate(hlines)
    ]
    if len(legend_items) > 1:
        parts.append('<g class="legend">')
        for i, (label, color) in enumerate(legend_items):
            ly = _MARGIN_T + 8 + 16 * i
            parts.append(
                f'<rect x="{x1 - 170}" y="{ly - 9}" width="10" height="10" fill="{color}"/>'
            )
            parts.append(f'<text x="{x1 - 155}" y="{ly}">{label}</text>')
        parts.append("</g>")

    parts.append("</svg>")
    return "\n".join(parts)


def _sample_curve(curve: RationalBezierCurve, samples: int) -> tuple[np.ndarray, np.ndarray]:
    ts = np.linspace(0.0, 1.0, samples)
    return ts, _rational(curve.homogeneous(), ts)


def plot_curve_svg(curve: RationalBezierCurve, samples: int = 512) -> str:
    """Trace of r(t): (t, x) for 1-d curves, (x, y) otherwise."""
    ts, pts = _sample_curve(curve, samples)
    if curve.dimension == 1:
        return _series_chart([("r(t)", ts, pts[:, 0])], xlabel="t", ylabel="x", title="curve")
    return _series_chart([("r(t)", pts[:, 0], pts[:, 1])], xlabel="x", ylabel="y", title="curve")


def plot_derivative_norm_svg(
    curve: RationalBezierCurve,
    samples: int = 512,
    overlay_bound: float | None = None,
) -> str:
    """Profile of |r'(t)| over [0, 1], optionally against a bound line."""
    ts = np.linspace(0.0, 1.0, samples)
    norms = _rowwise_norm(eval_derivative_explicit_many(build_derivative_form(curve), ts))
    hlines = [("bound", float(overlay_bound))] if overlay_bound is not None else []
    return _series_chart(
        [("|r'(t)|", ts, norms)],
        hlines=hlines,
        xlabel="t",
        ylabel="|r'(t)|",
        title="derivative magnitude",
    )


def plot_bound_comparison_svg(rows: list[Table1Row]) -> str:
    """Measured peak vs both bounds, per degree."""
    if not rows:
        raise ValueError("no rows to plot")
    ns = [r.degree for r in rows]
    return _series_chart(
        [
            ("measured peak", ns, [r.max_first_derivative for r in rows]),
            ("conjectured bound", ns, [r.conjectured_bound for r in rows]),
            ("elevation bound", ns, [r.elevation_bound for r in rows]),
        ],
        xlabel="n",
        ylabel="value",
        title="bounds vs measured peak",
    )


def plot_runtime_svg(rows: list[Table1Row]) -> str:
    """Elevation-bound runtime per degree."""
    if not rows:
        raise ValueError("no rows to plot")
    ns = [r.degree for r in rows]
    return _series_chart(
        [("runtime", ns, [r.runtime_seconds for r in rows])],
        xlabel="n",
        ylabel="seconds",
        title="elevation bound runtime",
    )


CURVE_KINDS = ("curve", "derivative_norm")
# kind -> renderer(curve or rows, samples, overlay_bound)
_RENDERERS = {
    "curve": lambda curve, samples, _: plot_curve_svg(curve, samples),
    "derivative_norm": plot_derivative_norm_svg,
    "bound_comparison": lambda rows, *_: plot_bound_comparison_svg(rows),
    "runtime": lambda rows, *_: plot_runtime_svg(rows),
}
PLOT_KINDS = tuple(_RENDERERS)


def render_plot(kind: str, curve: RationalBezierCurve | None = None,
                rows: list[Table1Row] | None = None, samples: int = 512,
                overlay_bound: float | None = None) -> str:
    """The SVG document of one plot kind; curve kinds need `curve`, table
    kinds `rows`.  `samples` and `overlay_bound` serve the curve kinds."""
    if kind not in _RENDERERS:
        raise ValueError(f"unknown plot kind {kind!r}; expected one of {PLOT_KINDS}")
    if samples < 2:
        raise ValueError("samples must be at least 2")
    source = curve if kind in CURVE_KINDS else rows
    if source is None:
        needs = "a curve input" if kind in CURVE_KINDS else "results-table rows"
        raise ValueError(f"plot kind {kind!r} needs {needs}")
    return _RENDERERS[kind](source, samples, overlay_bound)


def write_plot(kind: str, path: str, curve: RationalBezierCurve | None = None,
               rows: list[Table1Row] | None = None, samples: int = 512,
               overlay_bound: float | None = None) -> None:
    """Write the `render_plot` document to `path`."""
    if not path:
        raise ValueError("output path must be non-empty")
    svg = render_plot(kind, curve=curve, rows=rows, samples=samples, overlay_bound=overlay_bound)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)
        fh.write("\n")
