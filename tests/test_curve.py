"""Curve type, Bernstein basis, evaluation, and JSON I/O."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratbez.curve
from ratbez import (
    RationalBezierCurve,
    build_derivative_form,
    counterexample_family,
    curve_from_json_obj,
    curve_to_json_obj,
    eval_point,
    load_curve,
    maximize_derivative_norm,
    save_curve,
    table1_row,
)
from ratbez.curve import _problems

from oracles import (
    basis_value,
    bernstein,
    binomial,
    decasteljau,
    eval_weight,
    finite_difference,
    pascal_binomial,
    rational_point,
)


# ---------------------------------------------------------------------------
# binomial

def test_binomial_matches_pascal_triangle():
    for n in range(0, 25):
        for k in range(0, n + 1):
            assert binomial(n, k) == pascal_binomial(n, k)


def test_binomial_is_exact_int():
    v = binomial(61, 30)
    assert isinstance(v, int)
    assert v == math.comb(61, 30)


def test_binomial_domain_errors():
    with pytest.raises(ValueError):
        binomial(5, 7)
    with pytest.raises(ValueError):
        binomial(-1, 0)
    with pytest.raises(ValueError):
        binomial(3, -2)


def test_binomial_and_bernstein_past_int64():
    # C(67, 33) is the first central binomial past 2^63
    assert binomial(67, 33) == math.comb(67, 33)
    assert bernstein(67, 33, 0.5) == pytest.approx(math.comb(67, 33) * 2.0**-67, rel=1e-15)
    # C(1100, 550) is past the float range
    with pytest.raises(ValueError, match="float range"):
        bernstein(1100, 550, 0.5)


# ---------------------------------------------------------------------------
# bernstein basis

def test_bernstein_explicit_values():
    assert bernstein(3, 0, 0.0) == 1.0
    assert bernstein(3, 3, 1.0) == 1.0
    assert bernstein(3, 1, 0.5) == pytest.approx(3 * 0.5**3)
    assert bernstein(0, 0, 0.7) == 1.0
    # zero-to-the-zero convention at the endpoints
    assert bernstein(4, 0, 0.0) == 1.0
    assert bernstein(4, 4, 1.0) == 1.0


def test_bernstein_domain_errors():
    with pytest.raises(ValueError):
        bernstein(3, 4, 0.5)
    with pytest.raises(ValueError):
        bernstein(3, -1, 0.5)
    with pytest.raises(ValueError):
        bernstein(3, 1, 1.5)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=20), st.floats(min_value=0.0, max_value=1.0))
def test_bernstein_partition_of_unity(n, t):
    total = sum(bernstein(n, i, t) for i in range(n + 1))
    assert total == pytest.approx(1.0, abs=1e-13)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=15), st.floats(min_value=0.0, max_value=1.0))
def test_bernstein_nonnegative(n, t):
    assert all(bernstein(n, i, t) >= 0.0 for i in range(n + 1))


# ---------------------------------------------------------------------------
# de Casteljau helper

def test_decasteljau_matches_basis_summation():
    rng = np.random.default_rng(21)
    values = rng.uniform(-4.0, 4.0, size=8)
    for t in (0.0, 0.123, 0.5, 0.987, 1.0):
        assert decasteljau(values, t) == pytest.approx(basis_value(values, t), rel=1e-12)


def test_decasteljau_vector_rows():
    values = np.array([[0.0, 1.0], [2.0, 3.0]])
    out = decasteljau(values, 0.5)
    assert np.allclose(out, [1.0, 2.0])


# ---------------------------------------------------------------------------
# curve construction and validation

def test_curve_shapes_and_properties():
    curve = RationalBezierCurve([(0, 0), (1, 2), (3, 1)], [1.0, 2.0, 1.0])
    assert curve.degree == 2
    assert curve.dimension == 2
    assert curve.points.shape == (3, 2)
    assert curve.weights.shape == (3,)


def test_curve_flat_points_become_one_dimensional():
    curve = RationalBezierCurve([0.0, 1.0, 4.0], [1.0, 1.0, 1.0])
    assert curve.dimension == 1
    assert curve.points.shape == (3, 1)


def test_curve_arrays_immutable():
    curve = RationalBezierCurve([(0, 0), (1, 1)], [1.0, 1.0])
    with pytest.raises(ValueError):
        curve.points[0, 0] = 5.0
    with pytest.raises(ValueError):
        curve.weights[0] = 5.0


def test_curve_ragged_points_rejected():
    with pytest.raises(ValueError):
        RationalBezierCurve([(0, 0), (1,)], [1.0, 1.0])


def test_construction_reports_problems():
    RationalBezierCurve([(0, 0), (1, 1)], [1.0, 2.0])
    with pytest.raises(ValueError, match="length mismatch: 4 points vs 3 weights"):
        RationalBezierCurve([(0, 0), (1, 1), (2, 0), (3, 1)], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="nonpositive weight at index 1"):
        RationalBezierCurve([(0, 0), (1, 1)], [1.0, -2.0])
    with pytest.raises(ValueError, match="^curve has no control points$"):
        RationalBezierCurve(np.empty((0, 2)), [])
    with pytest.raises(ValueError, match="^points have zero dimension$"):
        RationalBezierCurve(np.empty((2, 0)), [1.0, 1.0])
    # every problem is listed, in order, joined by "; "
    with pytest.raises(ValueError) as exc:
        RationalBezierCurve([(0, 0), (np.nan, 1), (2, np.inf)], [0.0, np.inf, np.nan, 1.0])
    assert str(exc.value) == (
        "length mismatch: 3 points vs 4 weights; nonpositive weight at index 0; "
        "non-finite weight at index 1; non-finite weight at index 2; "
        "non-finite coordinate in point 1; non-finite coordinate in point 2"
    )


def test_operations_reject_invalid_curves():
    # no invalid curve exists: construction and the JSON reader refuse it
    with pytest.raises(ValueError, match="nonpositive weight at index 1"):
        RationalBezierCurve([(0, 0), (1, 1)], [1.0, 0.0])
    with pytest.raises(ValueError, match="nonpositive weight at index 1"):
        curve_from_json_obj({"degree": 1, "points": [[0, 0], [1, 1]], "weights": [1, 0]})


def test_validation_runs_once_per_constructed_curve(monkeypatch):
    calls = []

    def counting(points, weights):
        calls.append(points.shape)
        return _problems(points, weights)

    monkeypatch.setattr(ratbez.curve, "_problems", counting)
    # the family member only: the form build works on its checked arrays
    table1_row(11, e=10)
    assert len(calls) == 1
    curve = counterexample_family(5)
    calls.clear()
    build_derivative_form(curve)
    maximize_derivative_norm(curve)
    finite_difference(curve, 0.3)
    eval_point(curve, 0.3)
    assert calls == []


# ---------------------------------------------------------------------------
# evaluation

def test_eval_weight_matches_basis_summation():
    curve = RationalBezierCurve([(0, 0), (1, 1), (2, 0)], [1.0, 3.0, 2.0])
    for t in (0.0, 0.25, 0.6, 1.0):
        assert eval_weight(curve, t) == pytest.approx(
            basis_value(curve.weights, t), rel=1e-13
        )


def test_eval_point_matches_basis_summation():
    rng = np.random.default_rng(23)
    curve = RationalBezierCurve(
        rng.uniform(-5, 5, size=(6, 3)), rng.uniform(0.5, 2.0, size=6)
    )
    for t in (0.1, 0.37, 0.5, 0.92):
        assert np.allclose(eval_point(curve, t), rational_point(curve, t), rtol=1e-12)


def test_eval_point_endpoints_exact():
    curve = RationalBezierCurve([(0.1, 0.7), (1.3, -2.0), (2.9, 0.4)], [0.3, 5.0, 7.0])
    assert np.array_equal(eval_point(curve, 0.0), curve.points[0])
    assert np.array_equal(eval_point(curve, 1.0), curve.points[-1])


def test_eval_point_quarter_circle():
    # weights (1, sqrt(2)/2, 1) trace an exact quarter of the unit circle
    curve = RationalBezierCurve([(1, 0), (1, 1), (0, 1)], [1.0, math.sqrt(2) / 2, 1.0])
    for t in np.linspace(0.0, 1.0, 17):
        point = eval_point(curve, float(t))
        assert np.hypot(point[0], point[1]) == pytest.approx(1.0, abs=1e-14)


def test_homogeneous_rows_scale_weights_by_a_power_of_two():
    curve = RationalBezierCurve([(1.0, -2.0), (3.0, 0.5), (-4.0, 8.0)], [3.0, 40.0, 0.7])
    rows = curve.homogeneous()
    # 40 = 0.625 * 2^6: every weight is divided by 2^6 exactly
    assert np.array_equal(rows[:, -1], curve.weights / 64.0)
    assert np.array_equal(rows[:, :-1], curve.points * (curve.weights / 64.0)[:, None])
    # weights spanning more than the normal range: none may flush to zero
    wide = RationalBezierCurve([(1.0, 0.0), (0.0, 1.0)], [5e-324, 2.0])
    assert np.array_equal(wide.homogeneous()[:, -1], np.ldexp(wide.weights, 52))


def test_points_near_the_float_limit_with_large_weights():
    # w_i p_i = 2^40 * 1e300 overflows unless the weights are scaled first
    points = [[1e300, 0.0], [1.5e300, 0.0], [1e300, 1.0]]
    heavy = RationalBezierCurve(points, [2.0**40] * 3)
    unit = RationalBezierCurve(points, [1.0] * 3)
    at_half = eval_point(heavy, 0.5)
    assert np.array_equal(at_half, eval_point(unit, 0.5))
    assert np.array_equal(at_half, [1.25e300, 0.25])
    for t in (0.0, 0.5, 0.8, 1.0):
        assert np.isfinite(finite_difference(heavy, t)).all()


def test_eval_rejects_t_outside_unit_interval():
    curve = RationalBezierCurve([(0, 0), (1, 1)], [1.0, 1.0])
    with pytest.raises(ValueError):
        eval_point(curve, -0.1)
    with pytest.raises(ValueError):
        eval_weight(curve, 1.1)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_eval_point_invariant_under_weight_scaling(scale, t):
    points = [(0.0, 1.0), (2.0, -1.0), (4.0, 3.0)]
    weights = np.array([1.0, 4.0, 0.25])
    base = RationalBezierCurve(points, weights)
    scaled = RationalBezierCurve(points, scale * weights)
    assert np.allclose(eval_point(base, t), eval_point(scaled, t), rtol=1e-13, atol=1e-13)


# ---------------------------------------------------------------------------
# JSON interchange

def test_json_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(24)
    curve = RationalBezierCurve(
        rng.uniform(-10, 10, size=(5, 2)), np.exp(rng.uniform(-7, 3, size=5))
    )
    path = tmp_path / "curve.json"
    save_curve(curve, str(path))
    back = load_curve(str(path))
    assert np.array_equal(back.points, curve.points)
    assert np.array_equal(back.weights, curve.weights)


def test_json_obj_layout():
    curve = RationalBezierCurve([(0, 0), (1, 1)], [1.0, 2.0])
    obj = curve_to_json_obj(curve)
    assert obj["degree"] == 1
    assert obj["points"] == [[0.0, 0.0], [1.0, 1.0]]
    assert obj["weights"] == [1.0, 2.0]
    again = curve_from_json_obj(json.loads(json.dumps(obj)))
    assert np.array_equal(again.points, curve.points)
    # a flat point list is a 1-d curve
    line = curve_from_json_obj({"degree": 2, "points": [0, 1, 2.5], "weights": [1, 2.0, 1]})
    assert np.array_equal(line.points, [[0.0], [1.0], [2.5]])


def test_json_structural_errors():
    with pytest.raises(ValueError, match="missing keys"):
        curve_from_json_obj({"degree": 1, "points": [[0], [1]]})
    with pytest.raises(ValueError, match="must be an object"):
        curve_from_json_obj([1, 2, 3])
    with pytest.raises(ValueError, match="degree must be an integer"):
        curve_from_json_obj({"degree": "x", "points": [[0], [1]], "weights": [1, 1]})
    with pytest.raises(ValueError, match="length mismatch"):
        curve_from_json_obj({"degree": 3, "points": [[0], [1]], "weights": [1, 1]})
    # a JSON integer past the float range
    with pytest.raises(ValueError, match="weights must be numeric"):
        curve_from_json_obj({"degree": 1, "points": [[0], [1]], "weights": [10**400, 1]})


@pytest.mark.parametrize("points, weights", [
    ([[0, 0], [1, 1]], [True, 1]),
    ([[0, 0], [1, 1]], ["1", 1]),
    ([[0, 0], [1, 1]], [None, 1]),
    ([[0, False], [1, 1]], [1, 1]),
    ([[0, "0"], [1, 1]], [1, 1]),
    ([0, True], [1, 1]),
])
def test_json_leaves_must_be_numbers(points, weights):
    # numpy would read true as 1.0 and "1" as 1.0
    with pytest.raises(ValueError, match="must hold JSON numbers only"):
        curve_from_json_obj({"degree": 1, "points": points, "weights": weights})


def test_load_curve_io_errors(tmp_path):
    with pytest.raises(ValueError, match="cannot read"):
        load_curve(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="malformed JSON"):
        load_curve(str(bad))
