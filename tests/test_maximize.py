"""Branch-and-bound maximization of the derivative magnitude."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratbez import (
    RationalBezierCurve,
    build_derivative_form,
    conjecture_bound,
    counterexample_family,
    elevation_bound,
    eval_derivative_explicit,
    maximize_derivative_norm,
)
from ratbez._kernels import decasteljau_grid
from ratbez.derivative import _product

from oracles import exact_derivative_norm, random_curve, sederberg_terms


def test_constant_derivative_line():
    # r(t) = (3t, 0): the derivative magnitude is constantly 3
    curve = RationalBezierCurve([(0, 0), (1, 0), (2, 0), (3, 0)], [1.0] * 4)
    result = maximize_derivative_norm(curve)
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
    result = maximize_derivative_norm(curve)
    assert result.max_value == pytest.approx(4.0, rel=1e-9)
    assert result.argmax_t == pytest.approx(1.0, abs=1e-5)


def test_peak_at_left_endpoint():
    curve = RationalBezierCurve([(0.0,), (1.0,)], [1.0, 4.0])
    result = maximize_derivative_norm(curve)
    assert result.max_value == pytest.approx(4.0, rel=1e-9)
    assert result.argmax_t == pytest.approx(0.0, abs=1e-5)


def test_deterministic_repeat():
    curve = counterexample_family(5)
    a = maximize_derivative_norm(curve)
    b = maximize_derivative_norm(curve)
    assert a == b


def test_argument_errors():
    # the stopping rule is fixed: there is no tolerance to pass
    with pytest.raises(TypeError):
        maximize_derivative_norm(counterexample_family(2), tol=1e-8)
    point = RationalBezierCurve([(0.0, 0.0)], [1.0])
    with pytest.raises(ValueError, match="degree-0"):
        maximize_derivative_norm(point)


@pytest.mark.parametrize("weights", [[1e-200, 1.0, 1.0], [1e-200, 1.0, 1e-200]])
def test_squared_weights_below_the_float_range_give_the_exact_peak(weights):
    # w_0^2 = 1e-400 is below the float range, but the form centres the
    # weights first; the peak is r'(0) = 2 (w_1 / w_0)(p_1 - p_0)
    curve = RationalBezierCurve([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)], weights)
    result = maximize_derivative_norm(curve)
    exact = exact_derivative_norm(curve, 0.0)
    assert exact == pytest.approx(2.0 * np.sqrt(2.0) * 1e200, rel=1e-15)
    assert result.argmax_t == 0.0
    assert result.max_value == pytest.approx(exact, rel=1e-12)
    assert result.max_value <= result.upper <= result.max_value * (1.0 + 1e-10)


def test_hull_bound_past_the_float_range_raises():
    # the form's rows are finite, but the peak n (w_0 / w_1) |p_1 - p_0| = 1e310
    # is not: an error, not inf and a RuntimeWarning
    curve = RationalBezierCurve([(0.0,), (1e300,)], [1.0, 1e-10])
    with pytest.raises(ValueError, match="float range"):
        maximize_derivative_norm(curve)


def test_huge_common_weight_matches_unit_weights():
    # r' does not depend on a common weight scale: both peak at 2 sqrt(2)
    points = [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]
    huge = maximize_derivative_norm(RationalBezierCurve(points, [1e200] * 3))
    unit = maximize_derivative_norm(RationalBezierCurve(points, [1.0] * 3))
    assert huge == unit
    assert unit.max_value == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-15)


def _sederberg_norms(curve, ts):
    num = decasteljau_grid(sederberg_terms(curve), ts)
    w = decasteljau_grid(curve.weights[:, None], ts)[:, 0]
    return np.sqrt((num * num).sum(axis=1)) / (w * w)


def test_corpus_samples_lie_in_the_enclosure(corpus):
    grid = np.linspace(0.0, 1.0, 4001)
    tol = 1e-10  # the maximizer's fixed relative stopping gap
    for curve, ts in corpus:
        result = maximize_derivative_norm(curve)
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


def _peak_is_attained(curve):
    result = maximize_derivative_norm(curve)
    at = np.linalg.norm(eval_derivative_explicit(build_derivative_form(curve), result.argmax_t))
    assert result.max_value == pytest.approx(at, rel=1e-12)
    return result


@pytest.mark.parametrize("n", [300, 514, "corpus"])
def test_high_degree_peak_is_attained(n, corpus):
    # max_value is |r'(argmax_t)|, read off the pieces' own ratio scans; the
    # squared weights reach down to 2^-598 at n = 300, and the form centres
    # them at n = 514, so all are normal, and halving only averages them:
    # no piece underflows
    if n == "corpus":
        for curve, _ in corpus:
            _peak_is_attained(curve)
    else:
        assert _peak_is_attained(counterexample_family(n)).argmax_t > 0.99


@pytest.mark.parametrize("n", [20, 514, 600])
def test_family_peaks_match_exact_rationals(n):
    # n = 600 needs C(1200, 600), past the float range, and squared weights
    # down to 2^-1198 before centring; the sound e = 1000 bound must not
    # fall below the exact value either
    curve = counterexample_family(n)
    form = build_derivative_form(curve)
    result = maximize_derivative_norm(form)
    exact = exact_derivative_norm(curve, result.argmax_t)
    assert result.max_value == pytest.approx(exact, rel=1e-12)
    assert elevation_bound(form, 1000).value >= exact


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


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_degree_elevation_keeps_the_supremum(n, d, seed):
    # one elevation step of the homogeneous rows (w p | w) gives the same
    # curve at degree n + 1, so both enclosures hold the same supremum
    curve = random_curve(np.random.default_rng(seed), n, d)
    rows = _product(np.hstack([curve.weights[:, None] * curve.points, curve.weights[:, None]]), np.ones(2))
    elevated = RationalBezierCurve(rows[:, :-1] / rows[:, -1:], rows[:, -1])
    tol = 1e-10  # the maximizer's fixed relative stopping gap
    a = maximize_derivative_norm(curve)
    b = maximize_derivative_norm(elevated)
    assert abs(a.max_value - b.max_value) <= 2.0 * tol * max(a.max_value, b.max_value)
    assert a.max_value <= b.upper * (1.0 + 1e-13)
    assert b.max_value <= a.upper * (1.0 + 1e-13)


def _figures(curve):
    """Every figure that must survive an exact rigid motion, bit for bit."""
    result = maximize_derivative_norm(curve)
    elevation = elevation_bound(build_derivative_form(curve), 50).value
    return result, elevation, conjecture_bound(curve).value


# motions that only swap coordinates and flip signs
_EXACT_MOTIONS = [
    np.array([[-1.0, 0.0], [0.0, 1.0]]),  # reflection in the y axis
    np.array([[1.0, 0.0], [0.0, -1.0]]),  # reflection in the x axis
    np.array([[0.0, -1.0], [1.0, 0.0]]),  # quarter-turn
    np.array([[0.0, 1.0], [-1.0, 0.0]]),  # quarter-turn the other way
    np.array([[-1.0, 0.0], [0.0, -1.0]]),  # half-turn
    np.array([[0.0, 1.0], [1.0, 0.0]]),  # coordinate swap
]

# a general rotation and translation moves every control point by a
# rounding error, so the peak may move by the maximizer's fixed relative
# stopping gap plus a few dozen units of roundoff, fixed here beforehand
_RIGID_TOL = 1e-10
_RIGID_BOUND = _RIGID_TOL + 64.0 * np.finfo(np.float64).eps


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=10),
    st.sampled_from(range(len(_EXACT_MOTIONS))),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_reflections_and_quarter_turns_change_nothing(n, motion, seed):
    # every step acts per coordinate, and x^2 + y^2 == y^2 + x^2 exactly
    curve = random_curve(np.random.default_rng(seed), n, 2)
    moved = RationalBezierCurve(curve.points @ _EXACT_MOTIONS[motion].T, curve.weights)
    assert _figures(moved) == _figures(curve)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=10),
    st.floats(min_value=-np.pi, max_value=np.pi),
    st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_rotation_and_translation_keep_the_peak(n, angle, shift, seed):
    curve = random_curve(np.random.default_rng(seed), n, 2)
    rotation = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    moved = RationalBezierCurve(curve.points @ rotation.T + np.array(shift), curve.weights)
    a = maximize_derivative_norm(curve)
    b = maximize_derivative_norm(moved)
    assert abs(a.max_value - b.max_value) <= _RIGID_BOUND * max(a.max_value, b.max_value)


def test_curve_and_its_form_give_equal_results():
    rng = np.random.default_rng(21)
    curves = [counterexample_family(n) for n in (2, 11, 20)]
    for _ in range(10):
        curves.append(random_curve(rng, int(rng.integers(1, 13)), int(rng.integers(1, 4))))
    for curve in curves:
        form = build_derivative_form(curve)
        assert maximize_derivative_norm(form) == maximize_derivative_norm(curve)
