"""Conjectured bound, elevation bound, and the bound profile."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratbez import (
    DerivativeForm,
    RationalBezierCurve,
    bound_profile,
    build_derivative_form,
    conjecture_bound,
    counterexample_family,
    elevation_bound,
    eval_derivative_explicit_many,
    maximize_derivative_norm,
    weight_ratio,
)

from ratbez.derivative import _product

from oracles import elevation_product_coeffs, random_curve


def _grid_max(curve, grid=4096):
    form = build_derivative_form(curve)
    ts = np.linspace(0.0, 1.0, grid + 1)
    deriv = eval_derivative_explicit_many(form, ts)
    return float(np.sqrt((deriv * deriv).sum(axis=1)).max())


# ---------------------------------------------------------------------------
# weight ratio

def test_weight_ratio_takes_both_directions():
    pts = [(0, 0), (1, 0), (2, 0)]
    assert weight_ratio(RationalBezierCurve(pts, [1.0, 4.0, 2.0])) == pytest.approx(4.0)
    assert weight_ratio(RationalBezierCurve(pts, [4.0, 1.0, 2.0])) == pytest.approx(4.0)
    assert weight_ratio(RationalBezierCurve(pts, [3.0, 3.0, 3.0])) == pytest.approx(1.0)


def test_weight_ratio_of_family_is_two():
    for n in (2, 5, 11, 20):
        assert weight_ratio(counterexample_family(n)) == pytest.approx(2.0, rel=1e-15)


def test_weight_ratio_needs_two_points():
    with pytest.raises(ValueError):
        weight_ratio(RationalBezierCurve([(0, 0)], [1.0]))


def test_weight_ratio_past_the_float_range_raises():
    # 1e300 / 1e-300 overflows: an error, not inf and a RuntimeWarning
    curve = RationalBezierCurve([(0, 0), (1, 0), (2, 1)], [1.0, 1e-300, 1e300])
    with pytest.raises(ValueError, match="weight ratio exceeds the float range"):
        weight_ratio(curve)
    with pytest.raises(ValueError, match="weight ratio exceeds the float range"):
        conjecture_bound(curve)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_reversal_leaves_weight_ratio_and_conjecture_bound_bit_identical(n, d, seed):
    # each direction of w_i / w_{i+1} is one division, and a reversed leg
    # is the negated leg, so reading the control polygon backwards
    # changes no bit of either figure
    curve = random_curve(np.random.default_rng(seed), n, d)
    backwards = RationalBezierCurve(curve.points[::-1], curve.weights[::-1])
    assert weight_ratio(backwards) == weight_ratio(curve)
    assert conjecture_bound(backwards) == conjecture_bound(curve)


# ---------------------------------------------------------------------------
# conjectured bound

def test_conjecture_bound_family_value():
    # ratio 2, unit legs: the conjectured bound is exactly 2n
    for n in (2, 7, 11, 20):
        bound = conjecture_bound(counterexample_family(n))
        assert type(bound) is float
        assert bound == pytest.approx(2.0 * n, abs=1e-12)


def test_conjecture_bound_past_the_float_range_raises():
    # the leg 2e308 overflows, though every coordinate is finite
    curve = RationalBezierCurve([(-1e308, 0.0), (1e308, 0.0)], [1.0, 1.0])
    with pytest.raises(ValueError, match="conjectured bound exceeds the float range"):
        conjecture_bound(curve)


@pytest.mark.parametrize("n", [2, 11, 20])
def test_points_scaled_past_the_square_root_of_the_float_range(n):
    # squaring 2^530-sized entries overflows unless each row is scaled
    # first; every step is linear in the points, so each figure scales
    # exactly.  At 2^1010 the numerator rows fit only because the form
    # leaves weights with normal squares unscaled (largest 1).
    curve = counterexample_family(n)
    a, form = maximize_derivative_norm(curve), build_derivative_form(curve)
    for k in (530, 1010):
        big = RationalBezierCurve(np.ldexp(curve.points, k), curve.weights)
        b, big_form = maximize_derivative_norm(big), build_derivative_form(big)
        assert b.max_value == np.ldexp(a.max_value, k)
        assert b.upper == np.ldexp(a.upper, k)
        assert (b.argmax_t, b.pieces) == (a.argmax_t, a.pieces)
        assert elevation_bound(big_form, 1000) == np.ldexp(elevation_bound(form, 1000), k)
        assert conjecture_bound(big) == np.ldexp(conjecture_bound(curve), k)
        if (n, k) == (11, 530):
            assert b.max_value == pytest.approx(7.786081e160, rel=1e-6)


def test_conjecture_bound_norm_orders():
    # legs are measured in the Euclidean norm: the (3, 4) leg counts 5,
    # not 7 (1-norm) or 4 (max-norm)
    curve = RationalBezierCurve([(0, 0), (3, 4), (3, 4)], [1.0, 1.0, 1.0])
    assert conjecture_bound(curve) == pytest.approx(2 * 5.0)


# ---------------------------------------------------------------------------
# elevation bound

def test_elevation_bound_sound_and_monotone():
    rng = np.random.default_rng(41)
    curves = [counterexample_family(n) for n in (2, 6, 11)] + [
        random_curve(rng, int(rng.integers(1, 9)), int(rng.integers(1, 4))) for _ in range(10)
    ]
    for curve in curves:
        form = build_derivative_form(curve)
        observed = _grid_max(curve)
        profile = bound_profile(form, [0, 1, 5, 25, 125])
        values = [v for _, v in profile]
        for v in values:
            assert v >= observed - 1e-9
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-12


def test_elevation_bound_constant_derivative_is_tight():
    # straight line, equal weights: |r'| is constantly n * |leg|
    curve = RationalBezierCurve([(0, 0), (1, 1), (2, 2)], [1.0, 1.0, 1.0])
    form = build_derivative_form(curve)
    expected = 2.0 * np.sqrt(2.0)
    for e in (0, 10, 100):
        assert elevation_bound(form, e) == pytest.approx(expected, rel=1e-12)
    # at e = 0 the bound is the largest row ratio of the form itself
    stacked = form.rows
    ratios = np.sqrt((stacked[:, :-1] ** 2).sum(axis=1)) / stacked[:, -1]
    assert elevation_bound(form, 0) == ratios.max()


def test_elevation_bound_ties_take_first_index():
    # rows (3, 4), (4, 3) and (5, 0) over unit weights all reach 5
    form = DerivativeForm([[3.0, 4.0, 1.0], [4.0, 3.0, 1.0], [5.0, 0.0, 1.0]])
    assert form.degree == 2
    assert elevation_bound(form, 0) == 5.0


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([0, 1, 7, 50]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_elevation_bound_reports_the_first_largest_row(n, d, e, seed):
    # the bound against numpy's hypot norms of the elevated rows, folded
    # column by column
    form = build_derivative_form(random_curve(np.random.default_rng(seed), n, d))
    rows = _product(form.rows, np.ones(e + 1))
    norms = np.zeros(len(rows))
    for column in rows[:, :-1].T:
        norms = np.hypot(norms, column)
    assert elevation_bound(form, e) == (norms / rows[:, -1]).max()


def test_elevation_bound_tight_for_two_point_curve():
    # w = (1, 2), p = (0,0) -> (1,0): r'(t) = 2 / (1+t)^2, sup = 2 at t = 0.
    # The derivative's control points are (2,0), (1,0), (0.5,0), so the
    # e = 0 bound is already exact.
    curve = RationalBezierCurve([(0.0, 0.0), (1.0, 0.0)], [1.0, 2.0])
    form = build_derivative_form(curve)
    assert np.allclose(form.control_points, [(2, 0), (1, 0), (0.5, 0)], rtol=1e-14)
    assert elevation_bound(form, 0) == pytest.approx(2.0, rel=1e-14)
    profile = bound_profile(form, [0, 10, 100])
    for _, value in profile:
        assert value == pytest.approx(2.0, abs=1e-12)


def test_family_bound_settles_between_e_1000_and_2000():
    # Elevated control polygons converge at first order, so the bound
    # approaches the supremum like b(e) ~ sup + C/e: the step from
    # e = 1000 to 2000 is twice the step from 2000 to 4000 (measured
    # 1.996 at n = 2 and 1.975 at n = 11), and 2 b(2000) - b(1000)
    # removes the C/e term.  Settling means that rate and that limit;
    # the raw step itself is 1.3e-3 at n = 2 and 6.6e-2 at n = 11.
    for n in (2, 11):
        curve = counterexample_family(n)
        b = dict(bound_profile(build_derivative_form(curve), [1000, 2000, 4000]))
        peak = maximize_derivative_norm(curve).max_value
        ratio = (b[1000] - b[2000]) / (b[2000] - b[4000])
        limit = 2.0 * b[2000] - b[1000]
        assert 1.9 <= ratio <= 2.1, (
            f"n={n}: step ratio {ratio:.4f}, not first-order convergence"
        )
        assert abs(limit - peak) <= 2e-4 * peak, (
            f"n={n}: first-order limit {limit:.9f} misses the peak {peak:.9f}"
        )
        assert b[4000] >= peak, f"n={n}: bound {b[4000]:.9f} below peak {peak:.9f}"


def test_conjecture_bound_equal_weights_unit_spacing():
    # ratio 1 and unit legs collapse the bound to the degree itself
    for n in (1, 3, 6):
        curve = RationalBezierCurve([(float(i), 0.0) for i in range(n + 1)], [1.0] * (n + 1))
        assert conjecture_bound(curve) == pytest.approx(float(n), abs=1e-12)


def test_elevation_bound_matches_product_formula():
    # elevation through _product == closed-form product coefficients
    curve = counterexample_family(2)
    form = build_derivative_form(curve)
    stacked = form.rows
    for e in range(9):
        got = _product(stacked, np.ones(e + 1))
        ref = elevation_product_coeffs(stacked, e)
        scale = 1.0 + np.abs(ref).max()
        assert np.abs(got - ref).max() <= 1e-13 * scale


def test_elevation_bound_past_the_float_range_raises():
    # the form's rows are finite, but the end row's ratio (w_0 / w_1) 1e300
    # is 1e310: an error, not inf and a RuntimeWarning
    form = build_derivative_form(RationalBezierCurve([(0.0,), (1e300,)], [1.0, 1e-10]))
    assert np.isfinite(form.rows).all()
    with pytest.raises(ValueError, match="float range"):
        elevation_bound(form, 0)
    with pytest.raises(ValueError, match="float range"):
        bound_profile(form, [0, 10])
    # a unit numerator over a weight of 5e-324: the ratio 2e323 of a valid
    # hand-built form is an error, not inf and a warning
    with pytest.raises(ValueError, match="float range"):
        bound_profile(DerivativeForm([[1.0, 5e-324], [1.0, 1.0]]), [3])


def test_elevation_bound_lifts_subnormal_forms():
    # the rows are lifted by a power of two first, their largest |entry|
    # into [2^1021, 2^1022), so the product's mantissas in [1/2, 1] round
    # no weight to 0: the bound is max |N_i| / W_i read off the rows at
    # every e
    tiny = DerivativeForm([[5e-324, 5e-324]] * 3)
    assert bound_profile(tiny, [0, 10, 1000]) == [(0, 1.0), (10, 1.0), (1000, 1.0)]
    assert elevation_bound(tiny, 0) == 1.0
    mixed = DerivativeForm([[1e-300, 5e-324], [1e-300, 1e-300]])
    assert bound_profile(mixed, [0, 10, 1000]) == [(e, 2.0240225330731062e23) for e in (0, 10, 1000)]


def test_elevation_bound_lifts_a_subnormal_row_beside_a_normal_one():
    # every form is lifted, so the 5e-324 weight beside a row near 1 is
    # normal before the product's mantissas in [1/2, 1] meet it
    form = DerivativeForm([[1.0, 1.0], [5e-324, 5e-324]])
    peak = maximize_derivative_norm(form).max_value
    assert peak == 1.0
    for e in (0, 1, 2, 1000):
        assert elevation_bound(form, e) == peak
    assert bound_profile(form, [0, 1, 2, 1000]) == [(e, 1.0) for e in (0, 1, 2, 1000)]


@pytest.mark.parametrize("dim", [1, 3, 20, 400])
def test_elevation_bound_of_a_wide_form_leaves_headroom_for_its_norm(dim):
    # the lift leaves room for the norm of a row of `dim` point columns, so
    # a line whose bound is 1.9 sqrt(dim) reads that bound, not an overflow;
    # its form's rows are equal, so at e = 1000 only rounding separates them
    form = build_derivative_form(RationalBezierCurve([[0.0] * dim, [1.9] * dim], [1.0, 1.0]))
    peak = maximize_derivative_norm(form).max_value
    assert peak == pytest.approx(1.9 * np.sqrt(dim), rel=1e-15)
    assert elevation_bound(form, 0) == peak
    assert elevation_bound(form, 1000) == pytest.approx(peak, rel=1e-15)
    # the largest entries may sit at the top of the float range
    big = build_derivative_form(RationalBezierCurve([[0.0] * dim, [1e300] * dim], [1.0, 1.0]))
    assert elevation_bound(big, 0) == maximize_derivative_norm(big).max_value


def test_elevation_bound_rejects_negative_steps():
    form = build_derivative_form(counterexample_family(2))
    with pytest.raises(ValueError):
        elevation_bound(form, -1)


def test_elevation_bound_rejects_non_integer_steps():
    form = build_derivative_form(counterexample_family(2))
    for e in (2.5, 2.0, np.float64(1.0), True):
        with pytest.raises(ValueError, match="integer"):
            elevation_bound(form, e)
    bound = elevation_bound(form, np.int64(2))
    assert type(bound) is float
    assert bound == elevation_bound(form, 2)


# ---------------------------------------------------------------------------
# bound profile

def test_bound_profile_matches_individual_bounds_exactly():
    form = build_derivative_form(counterexample_family(7))
    profile = bound_profile(form, [0, 3, 10, 50])
    for e, value in profile:
        assert value == elevation_bound(form, e)


def test_bound_profile_argument_checking():
    form = build_derivative_form(counterexample_family(2))
    assert bound_profile(form, []) == []
    # each e is elevated on its own, so any order and repeats are fine
    assert bound_profile(form, [5, 0, 5]) == [
        (5, elevation_bound(form, 5)), (0, elevation_bound(form, 0)), (5, elevation_bound(form, 5))]
    with pytest.raises(ValueError, match="nonnegative"):
        bound_profile(form, [-2, 5])


def test_bound_profile_rejects_non_integer_steps():
    form = build_derivative_form(counterexample_family(2))
    for e_list in ([1.5, 2.7], [0, 2.0], [False, 3], np.array([1.0, 2.0])):
        with pytest.raises(ValueError, match="integer"):
            bound_profile(form, e_list)
    assert bound_profile(form, np.array([1, 2])) == bound_profile(form, [1, 2])


def test_family_elevation_bound_sits_between_peak_and_conjecture_for_low_degrees():
    # below the violation threshold the ordering is peak <= elevation < conjecture
    for n in (2, 5, 10):
        curve = counterexample_family(n)
        form = build_derivative_form(curve)
        elev = elevation_bound(form, 1000)
        conj = conjecture_bound(curve)
        peak = _grid_max(curve)
        assert peak - 1e-9 <= elev < conj


def test_family_conjecture_fails_from_degree_eleven():
    for n, should_violate in [(10, False), (11, True), (15, True)]:
        curve = counterexample_family(n)
        peak = _grid_max(curve, grid=20000)
        conj = conjecture_bound(curve)
        assert (peak > conj) == should_violate
