"""SVG chart rendering checked through parsed pixel geometry."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from ratbez import (
    PlotSpec,
    RationalBezierCurve,
    counterexample_family,
    render_plot,
    table1_row,
    write_plot,
)
from ratbez.svgplot import (
    plot_bound_comparison_svg,
    plot_curve_svg,
    plot_derivative_norm_svg,
    plot_runtime_svg,
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


def test_plot_spec_validation():
    PlotSpec("curve", "out.svg")
    with pytest.raises(ValueError, match="unknown plot kind"):
        PlotSpec("surface", "out.svg")
    with pytest.raises(ValueError, match="samples"):
        PlotSpec("curve", "out.svg", samples=1)
    with pytest.raises(ValueError, match="output path"):
        PlotSpec("curve", "")


def test_curve_plot_sample_count_and_ranges():
    curve = counterexample_family(4)
    svg = plot_curve_svg(curve, samples=128)
    series = _polylines(svg)
    assert list(series) == ["r(t)"]
    assert len(series["r(t)"]) == 128
    group = _data_group(svg)
    # the family lies at x in [0, n]: the recorded data range must agree
    assert float(group.get("data-x-min")) == pytest.approx(0.0, abs=1e-9)
    assert float(group.get("data-x-max")) == pytest.approx(4.0, abs=1e-9)


def test_one_dimensional_curve_plots_against_t():
    curve = RationalBezierCurve([0.0, 2.0, 1.0], [1.0, 1.0, 1.0])
    svg = plot_curve_svg(curve, samples=64)
    group = _data_group(svg)
    assert float(group.get("data-x-min")) == pytest.approx(0.0)
    assert float(group.get("data-x-max")) == pytest.approx(1.0)


def test_derivative_norm_peak_crosses_overlay_when_bound_violated():
    # degree 11: the measured peak exceeds the conjectured bound of 22,
    # so the polyline must rise above the overlay line (smaller pixel y)
    svg = plot_derivative_norm_svg(counterexample_family(11), samples=600, overlay_bound=22.0)
    series = _polylines(svg)["|r'(t)|"]
    overlays = _overlays(svg)
    assert len(overlays) == 1
    overlay_y = float(overlays[0].get("y1"))
    peak_pixel_y = min(y for _, y in series)
    assert peak_pixel_y < overlay_y


def test_derivative_norm_peak_stays_below_overlay_when_bound_holds():
    svg = plot_derivative_norm_svg(counterexample_family(5), samples=600, overlay_bound=10.0)
    series = _polylines(svg)["|r'(t)|"]
    overlay_y = float(_overlays(svg)[0].get("y1"))
    peak_pixel_y = min(y for _, y in series)
    assert peak_pixel_y > overlay_y


def test_derivative_norm_without_overlay():
    svg = plot_derivative_norm_svg(counterexample_family(3), samples=100)
    assert _overlays(svg) == []
    assert len(_polylines(svg)["|r'(t)|"]) == 100


def test_bound_comparison_has_three_series():
    rows = [table1_row(n, e=10) for n in (2, 3, 4)]
    svg = plot_bound_comparison_svg(rows)
    series = _polylines(svg)
    assert set(series) == {"measured peak", "conjectured bound", "elevation bound"}
    for pts in series.values():
        assert len(pts) == 3


def test_runtime_plot_single_series():
    rows = [table1_row(n, e=10) for n in (2, 3)]
    svg = plot_runtime_svg(rows)
    series = _polylines(svg)
    assert set(series) == {"runtime"}


def test_empty_rows_rejected():
    with pytest.raises(ValueError, match="no rows"):
        plot_bound_comparison_svg([])
    with pytest.raises(ValueError, match="no rows"):
        plot_runtime_svg([])


def test_render_plot_dispatch_requires_matching_input():
    curve = counterexample_family(2)
    rows = [table1_row(2, e=10)]
    with pytest.raises(ValueError, match="needs a curve"):
        render_plot(PlotSpec("curve", "x.svg"))
    with pytest.raises(ValueError, match="needs results-table rows"):
        render_plot(PlotSpec("runtime", "x.svg"))
    assert render_plot(PlotSpec("curve", "x.svg"), curve=curve).startswith("<svg")
    assert render_plot(PlotSpec("bound_comparison", "x.svg"), rows=rows).startswith("<svg")


def test_write_plot_creates_file(tmp_path):
    path = tmp_path / "chart.svg"
    write_plot(PlotSpec("curve", str(path), samples=32), curve=counterexample_family(2))
    text = path.read_text()
    assert text.startswith("<svg")
    ET.fromstring(text)  # well-formed XML
