"""Branch-and-bound maximization of the derivative magnitude."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratbez import (
    RationalBezierCurve,
    build_derivative_form,
    counterexample_family,
    elevation_bound,
    eval_derivative_explicit,
    maximize_derivative_norm,
    sederberg_terms,
)
from ratbez._kernels import decasteljau_grid

from oracles import random_curve


def test_constant_derivative_line():
    # r(t) = (3t, 0): the derivative magnitude is constantly 3
    curve = RationalBezierCurve([(0, 0), (1, 0), (2, 0), (3, 0)], [1.0] * 4)
    result = maximize_derivative_norm(curve, tol=1e-8)
    assert result.max_value == pytest.approx(3.0, rel=1e-12)
    assert 0.0 <= result.argmax_t <= 1.0
    # only a strictly larger value moves the best point off t = 0
    assert result.argmax_t == 0.0


def test_known_interior_peak():
    # degree-2 family member peaks at exactly t = 1/2 with value 8/3
    curve = counterexample_family(2)
    result = maximize_derivative_norm(curve)
    assert result.max_value == pytest.approx(8.0 / 3.0, abs=1e-10)
    assert result.argmax_t == pytest.approx(0.5, abs=1e-6)
    assert result.max_value <= result.upper <= result.max_value * (1.0 + 1e-10)
    assert result.pieces >= 1


def test_peak_at_right_endpoint():
    # two points, decaying weight: |r'| = w0 w1 |p1-p0| / w(t)^2 grows to t = 1
    curve = RationalBezierCurve([(0.0,), (1.0,)], [4.0, 1.0])
    result = maximize_derivative_norm(curve, tol=1e-10)
    assert result.max_value == pytest.approx(4.0, rel=1e-9)
    assert result.argmax_t == pytest.approx(1.0, abs=1e-5)


def test_peak_at_left_endpoint():
    curve = RationalBezierCurve([(0.0,), (1.0,)], [1.0, 4.0])
    result = maximize_derivative_norm(curve, tol=1e-10)
    assert result.max_value == pytest.approx(4.0, rel=1e-9)
    assert result.argmax_t == pytest.approx(0.0, abs=1e-5)


def test_deterministic_repeat():
    curve = counterexample_family(5)
    a = maximize_derivative_norm(curve)
    b = maximize_derivative_norm(curve)
    assert a == b


def test_argument_errors():
    curve = counterexample_family(2)
    with pytest.raises(ValueError, match="tol"):
        maximize_derivative_norm(curve, tol=1.0)
    with pytest.raises(ValueError, match="tol"):
        maximize_derivative_norm(curve, tol=0.0)
    point = RationalBezierCurve([(0.0, 0.0)], [1.0])
    with pytest.raises(ValueError, match="degree-0"):
        maximize_derivative_norm(point)


def test_tightest_tolerance_lands_on_peak():
    # at the tightest tolerance the search still lands on the true peak
    curve = counterexample_family(2)
    coarse = maximize_derivative_norm(curve, tol=1e-12)
    assert coarse.max_value == pytest.approx(8.0 / 3.0, abs=1e-9)


@pytest.mark.parametrize("weights", [[1e-200, 1.0, 1.0], [1e-200, 1.0, 1e-200]])
def test_out_of_range_weights_raise_instead_of_nan(weights):
    # even after the weights are divided by their maximum, W_0 = w_0^2 underflows
    curve = RationalBezierCurve([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)], weights)
    with pytest.raises(ValueError, match="squared weight"):
        maximize_derivative_norm(curve)


def test_huge_common_weight_matches_unit_weights():
    # r' does not depend on a common weight scale: both peak at 2 sqrt(2)
    points = [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]
    huge = maximize_derivative_norm(RationalBezierCurve(points, [1e200] * 3))
    unit = maximize_derivative_norm(RationalBezierCurve(points, [1.0] * 3))
    assert huge == unit
    assert unit.max_value == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-15)


def _sederberg_norms(curve, ts):
    num = decasteljau_grid(sederberg_terms(curve).terms, ts)
    w = decasteljau_grid(curve.weights[:, None], ts)[:, 0]
    return np.sqrt((num * num).sum(axis=1)) / (w * w)


def test_corpus_samples_lie_in_the_enclosure(corpus):
    grid = np.linspace(0.0, 1.0, 4001)
    tol = 1e-10
    for curve, ts in corpus:
        result = maximize_derivative_norm(curve, tol=tol)
        samples = _sederberg_norms(curve, np.concatenate([grid, ts]))
        assert samples.max() <= result.upper * (1.0 + 1e-13)
        assert result.max_value <= result.upper
        assert result.upper - result.max_value <= tol * result.max_value


def test_reversal_keeps_peak_and_mirrors_argmax(family_curves):
    for curve in family_curves:
        reversed_curve = RationalBezierCurve(curve.points[::-1], curve.weights[::-1])
        a = maximize_derivative_norm(curve)
        b = maximize_derivative_norm(reversed_curve)
        assert b.max_value == pytest.approx(a.max_value, rel=1e-12)
        assert b.argmax_t == pytest.approx(1.0 - a.argmax_t, abs=1e-12)


@pytest.mark.parametrize("n", [300, 514])
def test_high_degree_peak_is_attained(n):
    # halving without the per-piece rescale underflows the weights here
    curve = counterexample_family(n)
    result = maximize_derivative_norm(curve)
    at = np.linalg.norm(eval_derivative_explicit(build_derivative_form(curve), result.argmax_t))
    assert result.max_value == pytest.approx(at, rel=1e-12)
    assert result.argmax_t > 0.99


def test_zero_derivative_returns_zero():
    curve = RationalBezierCurve([(1.0, -2.0)] * 4, [1.0, 3.0, 0.5, 2.0])
    result = maximize_derivative_norm(curve)
    assert result.max_value == 0.0
    assert result.upper == 0.0


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=-900, max_value=900),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_power_of_two_weight_scale_changes_nothing(n, d, k, seed):
    curve = random_curve(np.random.default_rng(seed), n, d)
    scaled = RationalBezierCurve(curve.points, curve.weights * 2.0**k)
    assert maximize_derivative_norm(scaled) == maximize_derivative_norm(curve)
    assert (elevation_bound(build_derivative_form(scaled), 100).value
            == elevation_bound(build_derivative_form(curve), 100).value)
