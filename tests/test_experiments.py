"""Counterexample family, sweep rows, and CSV round-tripping."""

import re

import numpy as np
import pytest

from ratbez import (
    counterexample_family,
    read_table1_csv,
    run_table1,
    table1_row,
    write_table1_csv,
)
from ratbez.experiments import CSV_COLUMNS, rows_to_csv


def test_family_construction():
    curve = counterexample_family(5)
    assert curve.degree == 5
    assert curve.dimension == 2
    assert np.array_equal(curve.points[:, 0], np.arange(6.0))
    assert np.array_equal(curve.points[:, 1], np.zeros(6))
    assert np.array_equal(curve.weights[:5], 2.0 ** -np.arange(5.0))
    assert curve.weights[5] == 2.0**-3


def test_family_needs_degree_two():
    with pytest.raises(ValueError):
        counterexample_family(1)


def test_table1_row_fields():
    row = table1_row(3, e=50)
    assert row.degree == 3
    assert row.elevation_steps == 50
    assert 0.0 <= row.runtime_seconds < 60.0
    assert row.verdict == "holds"
    assert row.conjectured_bound == pytest.approx(6.0)
    assert row.elevation_bound >= row.max_first_derivative - 1e-9


def test_table1_row_builds_the_form_once(monkeypatch):
    import ratbez.experiments
    import ratbez.maximize

    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    build = counting("form", ratbez.experiments.build_derivative_form)
    monkeypatch.setattr(ratbez.experiments, "build_derivative_form", build)
    monkeypatch.setattr(ratbez.maximize, "build_derivative_form", build)
    monkeypatch.setattr(ratbez.experiments, "maximize_derivative_norm",
                        counting("maximize", ratbez.experiments.maximize_derivative_norm))
    row = table1_row(11, e=20)
    assert sorted(calls) == ["form", "maximize"]
    assert row.verdict == "violated"


def test_run_table1_range_validation():
    with pytest.raises(ValueError):
        run_table1(1, 5)
    with pytest.raises(ValueError):
        run_table1(5, 4)
    # no fixed cap on the degree: n = 515 runs, and a row past the float
    # range, from n = 1017, fails naming its degree
    assert run_table1(515, 515, e=0)[0].verdict == "violated"
    with pytest.raises(RuntimeError, match="degree 1017"):
        run_table1(1017, 1017, e=0)


def test_csv_header_and_formatting():
    rows = [table1_row(n, e=10) for n in (2, 3)]
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[0] == "n,max_deriv,t,conjecture,elevation_bound,e,runtime_s,verdict"
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 8
        assert re.fullmatch(r"\d+", fields[0])
        for value in fields[1:5] + [fields[6]]:
            assert re.fullmatch(r"-?\d+\.\d{6}", value)
        assert re.fullmatch(r"\d+", fields[5])
        assert fields[7] in ("holds", "violated")


def test_csv_round_trip(tmp_path):
    rows = [table1_row(n, e=10) for n in (2, 3, 4)]
    path = tmp_path / "table.csv"
    write_table1_csv(rows, str(path))
    back = read_table1_csv(str(path))
    assert len(back) == 3
    for before, after in zip(rows, back):
        assert after.degree == before.degree
        assert after.verdict == before.verdict
        assert after.elevation_steps == before.elevation_steps
        assert after.max_first_derivative == pytest.approx(
            before.max_first_derivative, abs=1e-6
        )
        assert after.elevation_bound == pytest.approx(before.elevation_bound, abs=1e-6)


def test_read_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="not a results-table CSV"):
        read_table1_csv(str(path))


def test_read_csv_names_the_bad_record(tmp_path):
    path = tmp_path / "bad.csv"
    good = rows_to_csv([table1_row(2, e=10)]).rstrip("\n")
    for bad in ("x,1.0,0.5,4.0,4.0,10,0.1,holds", "2,1.0,0.5,4.0,4.0,ten,0.1,holds",
                "2,1.0,half,4.0,4.0,10,0.1,holds", "2,1.0,0.5"):
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 3: ")):
            read_table1_csv(str(path))


def test_read_csv_rejects_non_finite_numbers(tmp_path):
    # write_table1_csv writes finite six-decimal floats only
    path = tmp_path / "bad.csv"
    good = rows_to_csv([table1_row(2, e=10)]).rstrip("\n")
    for bad in ("2,nan,0.5,4.0,4.0,10,0.1,holds", "2,1.0,0.5,inf,4.0,10,0.1,holds",
                "2,1.0,0.5,4.0,-inf,10,0.1,holds", "2,1.0,0.5,4.0,4.0,10,NaN,holds"):
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 3: non-finite number")):
            read_table1_csv(str(path))


def test_read_csv_rejects_unknown_verdicts(tmp_path):
    path = tmp_path / "bad.csv"
    good = rows_to_csv([table1_row(2, e=10)]).rstrip("\n")
    for verdict in ("maybe", "", "Holds", "violated "):
        path.write_text(good + "\n" + f"2,1.0,0.5,4.0,4.0,10,0.1,{verdict}" + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 3: verdict must be")):
            read_table1_csv(str(path))


def test_read_csv_rejects_missing_file(tmp_path):
    with pytest.raises(ValueError, match="cannot read"):
        read_table1_csv(str(tmp_path / "absent.csv"))


def test_read_csv_rejects_empty_table(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("n,max_deriv,t,conjecture,elevation_bound,e,runtime_s,verdict\n")
    with pytest.raises(ValueError, match="no data rows"):
        read_table1_csv(str(path))


def test_run_table1_small_sweep():
    rows = run_table1(2, 4, e=20)
    assert [r.degree for r in rows] == [2, 3, 4]
    assert all(r.verdict == "holds" for r in rows)
