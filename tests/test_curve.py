"""Curve type, Bernstein basis, evaluation, elevation, and JSON I/O."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratbez import (
    BernsteinCoefficients,
    RationalBezierCurve,
    bernstein,
    binomial,
    curve_from_json_obj,
    curve_to_json_obj,
    decasteljau,
    elevate_once,
    eval_point,
    eval_weight,
    load_curve,
    save_curve,
    validate,
)

from oracles import basis_value, pascal_binomial, rational_point


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
# BernsteinCoefficients

def test_coefficients_length_invariant():
    BernsteinCoefficients(2, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        BernsteinCoefficients(2, [1.0, 2.0])
    with pytest.raises(ValueError):
        BernsteinCoefficients(-1, [])


def test_coefficients_from_values_and_evaluate():
    coeffs = BernsteinCoefficients.from_values([1.0, 3.0, 5.0])
    assert coeffs.degree == 2
    assert coeffs.evaluate(0.5) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        BernsteinCoefficients.from_values([])


def test_coefficients_immutable():
    coeffs = BernsteinCoefficients.from_values([1.0, 2.0])
    with pytest.raises(ValueError):
        coeffs.coefficients[0] = 9.0


# ---------------------------------------------------------------------------
# elevate_once

def test_elevate_once_known_coefficients():
    # degree 1 -> 2: c' = (c0, (c0 + c1)/2, c1)
    out = elevate_once(BernsteinCoefficients.from_values([2.0, 6.0]))
    assert out.degree == 2
    assert np.allclose(out.coefficients, [2.0, 4.0, 6.0])


def test_elevate_once_preserves_function():
    rng = np.random.default_rng(22)
    coeffs = BernsteinCoefficients.from_values(rng.uniform(-3.0, 3.0, size=6))
    elevated = elevate_once(coeffs)
    for t in np.linspace(0.0, 1.0, 9):
        assert elevated.evaluate(t) == pytest.approx(coeffs.evaluate(t), rel=1e-13, abs=1e-13)


def test_elevate_once_vector_rows():
    coeffs = BernsteinCoefficients.from_values([[0.0, 0.0], [1.0, 2.0]])
    elevated = elevate_once(coeffs)
    assert elevated.coefficients.shape == (3, 2)
    assert np.allclose(elevated.coefficients[1], [0.5, 1.0])


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


def test_validate_reports_problems():
    good = RationalBezierCurve([(0, 0), (1, 1)], [1.0, 2.0])
    assert validate(good) == []

    mismatched = RationalBezierCurve([(0, 0), (1, 1), (2, 0), (3, 1)], [1.0, 1.0, 1.0])
    assert any("length mismatch" in e for e in validate(mismatched))

    negative = RationalBezierCurve([(0, 0), (1, 1)], [1.0, -2.0])
    errors = validate(negative)
    assert any("nonpositive weight at index 1" in e for e in errors)

    nonfinite = RationalBezierCurve([(0, 0), (np.nan, 1)], [1.0, np.inf])
    errors = validate(nonfinite)
    assert any("non-finite weight" in e for e in errors)
    assert any("non-finite coordinate" in e for e in errors)


def test_operations_reject_invalid_curves():
    bad = RationalBezierCurve([(0, 0), (1, 1)], [1.0, 0.0])
    with pytest.raises(ValueError, match="nonpositive weight"):
        eval_point(bad, 0.5)


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


def test_json_structural_errors():
    with pytest.raises(ValueError, match="missing keys"):
        curve_from_json_obj({"degree": 1, "points": [[0], [1]]})
    with pytest.raises(ValueError, match="must be an object"):
        curve_from_json_obj([1, 2, 3])
    with pytest.raises(ValueError, match="degree must be an integer"):
        curve_from_json_obj({"degree": "x", "points": [[0], [1]], "weights": [1, 1]})
    with pytest.raises(ValueError, match="length mismatch"):
        curve_from_json_obj({"degree": 3, "points": [[0], [1]], "weights": [1, 1]})


def test_load_curve_io_errors(tmp_path):
    with pytest.raises(ValueError, match="cannot read"):
        load_curve(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="malformed JSON"):
        load_curve(str(bad))
