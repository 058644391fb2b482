"""Grid-plus-golden-section maximization of the derivative magnitude."""

import numpy as np
import pytest

from ratbez import (
    RationalBezierCurve,
    counterexample_family,
    maximize_derivative_norm,
)


def test_constant_derivative_line():
    # r(t) = (3t, 0): the derivative magnitude is constantly 3
    curve = RationalBezierCurve([(0, 0), (1, 0), (2, 0), (3, 0)], [1.0] * 4)
    result = maximize_derivative_norm(curve, grid_size=1000, tol=1e-8)
    assert result.max_value == pytest.approx(3.0, rel=1e-12)
    assert 0.0 <= result.argmax_t <= 1.0


def test_known_interior_peak():
    # degree-2 family member peaks at exactly t = 1/2 with value 8/3
    curve = counterexample_family(2)
    result = maximize_derivative_norm(curve)
    assert result.max_value == pytest.approx(8.0 / 3.0, abs=1e-10)
    assert result.argmax_t == pytest.approx(0.5, abs=1e-6)
    assert result.refined
    assert result.grid_size == 100_000
    assert result.iterations > 0


def test_peak_at_right_endpoint():
    # two points, decaying weight: |r'| = w0 w1 |p1-p0| / w(t)^2 grows to t = 1
    curve = RationalBezierCurve([(0.0,), (1.0,)], [4.0, 1.0])
    result = maximize_derivative_norm(curve, grid_size=5000, tol=1e-10)
    assert result.max_value == pytest.approx(4.0, rel=1e-9)
    assert result.argmax_t == pytest.approx(1.0, abs=1e-5)


def test_peak_at_left_endpoint():
    curve = RationalBezierCurve([(0.0,), (1.0,)], [1.0, 4.0])
    result = maximize_derivative_norm(curve, grid_size=5000, tol=1e-10)
    assert result.max_value == pytest.approx(4.0, rel=1e-9)
    assert result.argmax_t == pytest.approx(0.0, abs=1e-5)


def test_deterministic_repeat():
    curve = counterexample_family(5)
    a = maximize_derivative_norm(curve, grid_size=20000)
    b = maximize_derivative_norm(curve, grid_size=20000)
    assert a == b


def test_evaluators_agree():
    for n in (2, 5, 11):
        curve = counterexample_family(n)
        explicit = maximize_derivative_norm(curve, grid_size=20000)
        compact = maximize_derivative_norm(curve, grid_size=20000, evaluator="sederberg")
        assert compact.max_value == pytest.approx(explicit.max_value, abs=1e-9)
        assert compact.argmax_t == pytest.approx(explicit.argmax_t, abs=1e-6)


def test_argument_errors():
    curve = counterexample_family(2)
    with pytest.raises(ValueError, match="grid_size"):
        maximize_derivative_norm(curve, grid_size=2)
    with pytest.raises(ValueError, match="tol"):
        maximize_derivative_norm(curve, tol=1.0)
    with pytest.raises(ValueError, match="tol"):
        maximize_derivative_norm(curve, tol=0.0)
    with pytest.raises(ValueError, match="evaluator"):
        maximize_derivative_norm(curve, evaluator="midpoint")
    point = RationalBezierCurve([(0.0, 0.0)], [1.0])
    with pytest.raises(ValueError, match="degree-0"):
        maximize_derivative_norm(point)


def test_refinement_beats_coarse_grid():
    # on a coarse grid the refined value must still land on the true peak
    curve = counterexample_family(2)
    coarse = maximize_derivative_norm(curve, grid_size=11, tol=1e-12)
    assert coarse.max_value == pytest.approx(8.0 / 3.0, abs=1e-9)


@pytest.mark.parametrize("weights", [[1e200] * 3, [1e-200, 1.0, 1e-200]])
def test_out_of_range_weights_raise_instead_of_nan(weights):
    curve = RationalBezierCurve([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)], weights)
    with pytest.raises(ValueError, match="squared weight"):
        maximize_derivative_norm(curve, grid_size=1000)
