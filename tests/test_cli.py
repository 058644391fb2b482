"""Command-line behavior: outputs, formats, and exit codes."""

import io
import json
import os
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from ratbez import RationalBezierCurve, counterexample_family, eval_point, load_curve, save_curve
from ratbez.cli import main

from oracles import exact_derivative_norm


@pytest.fixture()
def fam11_file(tmp_path):
    path = tmp_path / "fam11.json"
    save_curve(counterexample_family(11), str(path))
    return str(path)


@pytest.fixture()
def fam2_file(tmp_path):
    path = tmp_path / "fam2.json"
    save_curve(counterexample_family(2), str(path))
    return str(path)


# ---------------------------------------------------------------------------
# eval

def test_eval_prints_endpoint(fam11_file, capsys):
    assert main(["eval", fam11_file, "1.0"]) == 0
    assert capsys.readouterr().out.strip() == "11 0"


def test_eval_prints_twelve_significant_digits(fam2_file, capsys):
    assert main(["eval", fam2_file, "0.25"]) == 0
    out = capsys.readouterr().out.strip()
    expected = eval_point(counterexample_family(2), 0.25)
    assert out == " ".join(f"{v:.12g}" for v in expected)


def test_eval_from_stdin(fam11_file, capsys, monkeypatch):
    with open(fam11_file) as fh:
        text = fh.read()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert main(["eval", "-", "0.0"]) == 0
    assert capsys.readouterr().out.strip() == "0 0"


def test_eval_rejects_t_outside_interval(fam11_file, capsys):
    assert main(["eval", fam11_file, "1.5"]) == 2
    assert "outside [0, 1]" in capsys.readouterr().err


def test_eval_missing_file(tmp_path, capsys):
    assert main(["eval", str(tmp_path / "none.json"), "0.5"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_eval_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{")
    assert main(["eval", str(path), "0.5"]) == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_eval_invalid_curve(tmp_path, capsys):
    path = tmp_path / "neg.json"
    path.write_text(json.dumps({
        "degree": 1, "points": [[0.0], [1.0]], "weights": [1.0, -1.0],
    }))
    assert main(["eval", str(path), "0.5"]) == 2
    assert "nonpositive weight" in capsys.readouterr().err


@pytest.mark.parametrize("weights, message", [
    ([True, 1], "JSON numbers only"), (["1", 1], "JSON numbers only"), ([10**400, 1], "weights must be numeric"),
])
def test_maximize_refuses_curve_files_with_non_numbers(weights, message, tmp_path, capsys):
    # JSON true, "1" and an integer past the float range are no weights
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"degree": 1, "points": [[0, 0], [1, 1]], "weights": weights}))
    assert main(["maximize", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_eval_line_segment_midpoint(tmp_path, capsys):
    # w = (1, 2) pulls the t = 0.5 point to x = 1/1.5 = 2/3
    path = tmp_path / "segment.json"
    path.write_text(json.dumps({
        "degree": 1, "points": [[0.0, 0.0], [1.0, 0.0]], "weights": [1.0, 2.0],
    }))
    assert main(["eval", str(path), "0.5"]) == 0
    assert capsys.readouterr().out.strip() == "0.666666666667 0"


def test_eval_round_trips_saved_curves_bitwise(tmp_path, capsys):
    # serialize -> parse -> serialize must not perturb any coordinate
    for n in (3, 7, 11):
        first = tmp_path / f"first{n}.json"
        second = tmp_path / f"second{n}.json"
        save_curve(counterexample_family(n), str(first))
        save_curve(load_curve(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()
        for t in ("0.0", "0.125", "0.5", "0.888645", "1.0"):
            main(["eval", str(first), t])
            out_first = capsys.readouterr().out
            main(["eval", str(second), t])
            assert capsys.readouterr().out == out_first


# ---------------------------------------------------------------------------
# bound

def test_bound_conjecture_output(fam11_file, capsys):
    assert main(["bound", fam11_file]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "conjecture bound: 22.000000 (weight ratio 2, p=2)"


def test_bound_elevation_output(fam11_file, capsys):
    assert main(["bound", fam11_file, "--method", "elevation", "--e", "1000"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "elevation bound: 22.285016 (e=1000, p=2)"


def test_bound_weight_ratio_past_the_float_range_exit_2(tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "degree": 1, "points": [[0.0, 0.0], [1.0, 0.0]], "weights": [1e-300, 1e300],
    }))
    assert main(["bound", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "weight ratio exceeds the float range" in captured.err


def test_bound_p_norm_inf(fam11_file, capsys):
    # the bounds are Euclidean only; argparse refuses a --p-norm option
    with pytest.raises(SystemExit) as exc:
        main(["bound", fam11_file, "--p-norm", "inf"])
    assert exc.value.code == 2
    assert "--p-norm" in capsys.readouterr().err


def test_bound_elevation_without_elevating(fam11_file, capsys):
    # e = 0 reads the bound straight off the derivative's control points;
    # it can only be looser than the e = 1000 figure
    assert main(["bound", fam11_file, "--method", "elevation", "--e", "0"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("elevation bound: ") and out.endswith("(e=0, p=2)")
    value = float(out.split()[2])
    assert np.isfinite(value)
    assert value >= 22.285016 - 1e-6


def test_bound_past_the_float_range_exits_2(tmp_path, capsys):
    # the degree-1040 form of a 520-step line is in range, r' = (520, 0)
    # throughout; the degree-1017 family member's numerator is not
    path = tmp_path / "big.json"
    n = 520
    save_curve(RationalBezierCurve([(float(i), 0.0) for i in range(n + 1)], [1.0] * (n + 1)), str(path))
    assert main(["bound", str(path), "--method", "elevation", "--e", "0"]) == 0
    assert capsys.readouterr().out.strip() == "elevation bound: 520.000000 (e=0, p=2)"
    save_curve(counterexample_family(1017), str(path))
    assert main(["bound", str(path), "--method", "elevation", "--e", "0"]) == 2
    assert "float range" in capsys.readouterr().err


def test_peak_past_the_float_range_exits_2(tmp_path, capsys):
    # finite control data whose derivative peaks at 1e310
    path = tmp_path / "steep.json"
    save_curve(RationalBezierCurve([(0.0,), (1e300,)], [1.0, 1e-10]), str(path))
    for argv in (["maximize", str(path)], ["bound", str(path), "--method", "elevation", "--e", "10"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "float range" in captured.err


# ---------------------------------------------------------------------------
# maximize

def test_maximize_output_format(fam11_file, capsys):
    assert main(["maximize", fam11_file]) == 0
    out = capsys.readouterr().out.strip()
    value_text, t_text = out.split(" @ t=")
    assert float(value_text) == pytest.approx(22.152423, abs=1e-4)
    assert float(t_text) == pytest.approx(0.888645, abs=1e-4)


def test_maximize_quadratic_peak_exact_text(fam2_file, capsys):
    # the degree-2 member peaks at exactly 8/3 in the middle of the interval
    assert main(["maximize", fam2_file]) == 0
    assert capsys.readouterr().out.strip() == "2.666667 @ t=0.500000"


def _quadratic_file(tmp_path, weights):
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps({
        "degree": 2, "points": [[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]], "weights": weights,
    }))
    return str(path)


@pytest.mark.parametrize("weights", [[1e-200, 1.0, 1.0], [1e-200, 1.0, 1e-200]])
def test_maximize_squared_weights_below_the_float_range_print_the_exact_peak(weights, tmp_path, capsys):
    # w_0^2 underflows, but the peak r'(0) = 2 sqrt(2) / w_0 does not
    path = _quadratic_file(tmp_path, weights)
    assert main(["maximize", path]) == 0
    value_text, t_text = capsys.readouterr().out.strip().split(" @ t=")
    assert t_text == "0.000000"
    assert float(value_text) == pytest.approx(exact_derivative_norm(load_curve(path), 0.0), rel=1e-12)
    assert float(value_text) == pytest.approx(2.0 * np.sqrt(2.0) * 1e200, rel=1e-12)


def test_maximize_huge_common_weight_matches_unit_weights(tmp_path, capsys):
    assert main(["maximize", _quadratic_file(tmp_path, [1e200] * 3)]) == 0
    assert capsys.readouterr().out.strip() == "2.828427 @ t=0.000000"
    assert main(["maximize", _quadratic_file(tmp_path, [1.0] * 3)]) == 0
    assert capsys.readouterr().out.strip() == "2.828427 @ t=0.000000"


def test_maximize_rejects_bad_tol(fam11_file, tmp_path, capsys):
    # the stopping rule is fixed; argparse refuses any --tol option
    for argv in (["maximize", fam11_file, "--tol", "1e-8"],
                 ["table1", "--tol", "1e-8", "--out", str(tmp_path / "x.csv")]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


# ---------------------------------------------------------------------------
# table1

def test_table1_writes_csv_and_summary(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    code = main([
        "table1", "--n-min", "10", "--n-max", "12",
        "--e", "200", "--out", str(out_csv),
    ])
    assert code == 0
    summary = capsys.readouterr().out.strip()
    assert summary == "2 violations (n = 11..12)"
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "n,max_deriv,t,conjecture,elevation_bound,e,runtime_s,verdict"
    assert len(lines) == 4
    assert lines[1].startswith("10,") and lines[1].endswith(",holds")
    assert lines[2].startswith("11,") and lines[2].endswith(",violated")


def test_table1_no_violations_summary(tmp_path, capsys):
    out_csv = tmp_path / "low.csv"
    code = main([
        "table1", "--n-min", "2", "--n-max", "3",
        "--e", "20", "--out", str(out_csv),
    ])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0 violations"


def test_table1_single_violation_summary(tmp_path, capsys):
    code = main([
        "table1", "--n-min", "11", "--n-max", "11",
        "--e", "20", "--out", str(tmp_path / "one.csv"),
    ])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1 violation (n = 11)"


def test_table1_bad_range(tmp_path, capsys):
    assert main(["table1", "--n-min", "1", "--n-max", "3", "--out", str(tmp_path / "x.csv")]) == 2


def test_table1_unwritable_output_is_io_error(fam11_file, capsys, tmp_path):
    code = main([
        "table1", "--n-min", "2", "--n-max", "2", "--e", "10",
        "--out", str(tmp_path / "no-such-dir" / "x.csv"),
    ])
    assert code == 3


# ---------------------------------------------------------------------------
# plot

def test_plot_curve_kind(fam2_file, tmp_path, capsys):
    out_svg = tmp_path / "curve.svg"
    assert main(["plot", fam2_file, "--kind", "curve", "--out", str(out_svg)]) == 0
    ET.parse(str(out_svg))


def test_plot_derivative_norm_with_overlay(fam11_file, tmp_path):
    out_svg = tmp_path / "deriv.svg"
    code = main([
        "plot", fam11_file, "--kind", "derivative_norm",
        "--samples", "300", "--overlay-bound", "22", "--out", str(out_svg),
    ])
    assert code == 0
    root = ET.parse(str(out_svg)).getroot()
    overlays = [el for el in root.iter() if el.get("class") == "overlay"]
    assert len(overlays) == 1


def test_plot_table_kinds(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    assert main([
        "table1", "--n-min", "2", "--n-max", "4",
        "--e", "20", "--out", str(csv_path),
    ]) == 0
    for kind in ("bound_comparison", "runtime"):
        out_svg = tmp_path / f"{kind}.svg"
        assert main(["plot", str(csv_path), "--kind", kind, "--out", str(out_svg)]) == 0
        ET.parse(str(out_svg))


def test_plot_kind_input_mismatch(fam2_file, tmp_path, capsys):
    code = main([
        "plot", fam2_file, "--kind", "bound_comparison", "--out", str(tmp_path / "x.svg"),
    ])
    assert code == 2
    assert "not a results-table CSV" in capsys.readouterr().err


def test_plot_rejects_table_rows_the_writer_never_writes(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    assert main(["table1", "--n-min", "2", "--n-max", "3", "--e", "20", "--out", str(csv_path)]) == 0
    good = csv_path.read_text()
    capsys.readouterr()
    for bad, message in (("4,nan,0.5,8.0,8.0,20,0.1,holds", "non-finite number 'nan'"),
                         ("4,1.0,0.5,8.0,8.0,20,0.1,maybe", "verdict must be")):
        csv_path.write_text(good + bad + "\n")
        out_svg = tmp_path / "x.svg"
        code = main(["plot", str(csv_path), "--kind", "bound_comparison", "--out", str(out_svg)])
        assert code == 2
        assert f"{csv_path}, line 4: {message}" in capsys.readouterr().err
        assert not out_svg.exists()


def test_plot_bad_samples(fam2_file, tmp_path, capsys):
    code = main([
        "plot", fam2_file, "--kind", "curve", "--samples", "1", "--out", str(tmp_path / "x.svg"),
    ])
    assert code == 2


def test_plot_non_finite_overlay_is_bad_input(fam2_file, tmp_path, capsys):
    for bound in ("nan", "inf"):
        out_svg = tmp_path / f"{bound}.svg"
        code = main([
            "plot", fam2_file, "--kind", "derivative_norm",
            "--overlay-bound", bound, "--out", str(out_svg),
        ])
        assert code == 2
        assert "plot data must be finite" in capsys.readouterr().err
        assert not out_svg.exists()


def test_plot_unwritable_output_is_io_error(fam2_file, tmp_path):
    code = main([
        "plot", fam2_file, "--kind", "curve",
        "--out", str(tmp_path / "missing-dir" / "x.svg"),
    ])
    assert code == 3


# ---------------------------------------------------------------------------
# entry point

def _console_script():
    """The installed `ratbez` executable: beside this interpreter, else on PATH."""
    local = os.path.join(os.path.dirname(sys.executable), "ratbez")
    if os.path.isfile(local) and os.access(local, os.X_OK):
        return local
    return shutil.which("ratbez")


RATBEZ = _console_script()

needs_console_script = pytest.mark.skipif(
    RATBEZ is None,
    reason="no `ratbez` executable beside the interpreter or on PATH; "
    "install it with `pip install -e . --no-build-isolation`",
)


@needs_console_script
def test_console_script_help_and_usage_error():
    proc = subprocess.run([RATBEZ, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "eval" in proc.stdout and "table1" in proc.stdout
    proc = subprocess.run([RATBEZ], capture_output=True, text=True)
    assert proc.returncode == 2


@needs_console_script
def test_console_script_eval(tmp_path):
    path = tmp_path / "c.json"
    save_curve(counterexample_family(11), str(path))
    proc = subprocess.run([RATBEZ, "eval", str(path), "1.0"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "11 0"
