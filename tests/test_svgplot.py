"""SVG chart rendering checked through parsed pixel geometry."""

import dataclasses
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from ratbez import (
    RationalBezierCurve,
    counterexample_family,
    render_plot,
    table1_row,
)


def _polylines(svg_text):
    root = ET.fromstring(svg_text)
    out = {}
    for el in root.iter():
        if el.tag.endswith("polyline"):
            pts = [tuple(map(float, pair.split(","))) for pair in el.get("points").split()]
            out[el.get("data-label")] = pts
    return out


def _overlays(svg_text):
    root = ET.fromstring(svg_text)
    return [el for el in root.iter() if el.get("class") == "overlay"]


def _data_group(svg_text):
    root = ET.fromstring(svg_text)
    for el in root.iter():
        if el.get("class") == "data":
            return el
    raise AssertionError("no data group")


def test_plot_argument_checks():
    curve = counterexample_family(2)
    with pytest.raises(ValueError, match="unknown plot kind 'surface'"):
        render_plot("surface", curve=curve)
    for bound in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="plot data must be finite"):
            render_plot("derivative_norm", curve=curve, overlay_bound=bound)
    with pytest.raises(ValueError, match="overflows"):
        render_plot("derivative_norm", curve=curve, overlay_bound=1.79e308)
    row = table1_row(2, e=10)
    nan_row = dataclasses.replace(row, max_first_derivative=float("nan"))
    with pytest.raises(ValueError, match="plot data must be finite"):
        render_plot("bound_comparison", rows=[row, nan_row])
    inf_row = dataclasses.replace(row, runtime_seconds=float("inf"))
    with pytest.raises(ValueError, match="plot data must be finite"):
        render_plot("runtime", rows=[inf_row])


def test_overlay_bound_only_on_the_derivative_norm_plot():
    # a bound the chart would not draw is refused, not silently dropped
    curve = counterexample_family(2)
    rows = [table1_row(2, e=10)]
    with pytest.raises(ValueError, match="plot kind 'curve' takes no overlay bound"):
        render_plot("curve", curve=curve, overlay_bound=5.0)
    for kind in ("bound_comparison", "runtime"):
        with pytest.raises(ValueError, match=f"plot kind '{kind}' takes no overlay bound"):
            render_plot(kind, rows=rows, overlay_bound=5.0)


def test_curve_plot_sample_count_and_ranges():
    curve = counterexample_family(4)
    svg = render_plot("curve", curve=curve)
    series = _polylines(svg)
    assert list(series) == ["r(t)"]
    assert len(series["r(t)"]) == 512
    group = _data_group(svg)
    # the family lies at x in [0, n]: the recorded data range must agree
    assert float(group.get("data-x-min")) == pytest.approx(0.0, abs=1e-9)
    assert float(group.get("data-x-max")) == pytest.approx(4.0, abs=1e-9)


def test_one_dimensional_curve_plots_against_t():
    curve = RationalBezierCurve([0.0, 2.0, 1.0], [1.0, 1.0, 1.0])
    svg = render_plot("curve", curve=curve)
    group = _data_group(svg)
    assert float(group.get("data-x-min")) == pytest.approx(0.0)
    assert float(group.get("data-x-max")) == pytest.approx(1.0)


def test_derivative_norm_peak_crosses_overlay_when_bound_violated():
    # degree 11: the measured peak exceeds the conjectured bound of 22,
    # so the polyline must rise above the overlay line (smaller pixel y)
    svg = render_plot("derivative_norm", curve=counterexample_family(11), overlay_bound=22.0)
    series = _polylines(svg)["|r'(t)|"]
    overlays = _overlays(svg)
    assert len(overlays) == 1
    overlay_y = float(overlays[0].get("y1"))
    peak_pixel_y = min(y for _, y in series)
    assert peak_pixel_y < overlay_y


def test_derivative_norm_peak_stays_below_overlay_when_bound_holds():
    svg = render_plot("derivative_norm", curve=counterexample_family(5), overlay_bound=10.0)
    series = _polylines(svg)["|r'(t)|"]
    overlay_y = float(_overlays(svg)[0].get("y1"))
    peak_pixel_y = min(y for _, y in series)
    assert peak_pixel_y > overlay_y


def test_derivative_norm_without_overlay():
    svg = render_plot("derivative_norm", curve=counterexample_family(3))
    assert _overlays(svg) == []
    assert len(_polylines(svg)["|r'(t)|"]) == 512


def test_ticks_stay_finite_near_the_float_limit():
    # a y range of width 1.05e308 is finite, and so must be every tick on it
    svg = render_plot("derivative_norm", curve=counterexample_family(3), overlay_bound=1e308)
    ticks = [el.text for el in ET.fromstring(svg).iter() if el.get("text-anchor") == "end"]
    assert len(ticks) == 5
    assert all(np.isfinite(float(t)) for t in ticks)
    assert float(ticks[-1]) == pytest.approx(1.05e308, rel=1e-3)


def test_derivative_norm_past_the_float_range_raises():
    # every |r'(t)| = 1.5e308 * sqrt(2) overflows in the norm, which must
    # hand the inf to the finiteness check, not warn (warnings are errors)
    curve = RationalBezierCurve([(0.0, 0.0), (1.5e308, 1.5e308)], [1.0, 1.0])
    with pytest.raises(ValueError, match="plot data must be finite"):
        render_plot("derivative_norm", curve=curve)


def test_bound_comparison_has_three_series():
    rows = [table1_row(n, e=10) for n in (2, 3, 4)]
    svg = render_plot("bound_comparison", rows=rows)
    series = _polylines(svg)
    assert set(series) == {"measured peak", "conjectured bound", "elevation bound"}
    for pts in series.values():
        assert len(pts) == 3


def test_runtime_plot_single_series():
    rows = [table1_row(n, e=10) for n in (2, 3)]
    svg = render_plot("runtime", rows=rows)
    series = _polylines(svg)
    assert set(series) == {"runtime"}


def test_empty_rows_rejected():
    with pytest.raises(ValueError, match="no rows"):
        render_plot("bound_comparison", rows=[])
    with pytest.raises(ValueError, match="no rows"):
        render_plot("runtime", rows=[])


def test_render_plot_dispatch_requires_matching_input():
    curve = counterexample_family(2)
    rows = [table1_row(2, e=10)]
    for kind in ("curve", "derivative_norm"):
        with pytest.raises(ValueError, match=f"plot kind '{kind}' needs a curve input"):
            render_plot(kind, rows=rows)
    for kind in ("bound_comparison", "runtime"):
        with pytest.raises(ValueError, match=f"plot kind '{kind}' needs results-table rows"):
            render_plot(kind, curve=curve)
