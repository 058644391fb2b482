"""Closed-form derivative representations against independent oracles."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratbez import (
    DerivativeForm,
    RationalBezierCurve,
    build_derivative_form,
    counterexample_family,
    elevation_bound,
    eval_derivative_explicit_many,
)
from ratbez import derivative
from ratbez.derivative import _binomials, _intermediate_points, _product

from oracles import (
    basis_value,
    elevation_product_coeffs,
    eval_derivative_sederberg,
    eval_weight,
    exact_intermediate_points,
    finite_difference,
    random_curve,
    sederberg_terms,
)


def _benign_curve(rng, n, d):
    return RationalBezierCurve(
        rng.uniform(-5.0, 5.0, size=(n + 1, d)), rng.uniform(0.5, 2.0, size=n + 1)
    )


# ---------------------------------------------------------------------------
# shapes and degree bookkeeping

def test_sederberg_numerator_shape():
    curve = counterexample_family(4)
    num = sederberg_terms(curve)
    assert num.shape == (7, 2)  # degree 2n - 2 = 6
    assert not num.flags.writeable


def test_derivative_form_shapes():
    curve = counterexample_family(3)
    form = build_derivative_form(curve)
    assert form.degree == 6
    assert form.weights.shape == (7,)
    assert form.control_points.shape == (7, 2)
    assert form.rows.shape == (7, 3)
    assert not form.rows.flags.writeable


def test_sederberg_terms_line_segment():
    # degree 1: the single term is w0*w1*(p1 - p0)
    curve = RationalBezierCurve([(0.0, 0.0), (1.0, 0.0)], [1.0, 2.0])
    num = sederberg_terms(curve)
    assert np.allclose(num, [(2.0, 0.0)], rtol=1e-15)


def test_sederberg_terms_equal_weight_quadratic():
    # unit-spaced collinear points with equal weights: every numerator
    # term equals (2, 0) and the derivative is the constant (2, 0)
    curve = RationalBezierCurve([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], [1.0, 1.0, 1.0])
    num = sederberg_terms(curve)
    assert np.allclose(num, [(2.0, 0.0)] * 3, rtol=1e-15)
    for t in (0.0, 0.25, 0.8, 1.0):
        assert np.allclose(eval_derivative_sederberg(curve, t), (2.0, 0.0), rtol=1e-14)


def test_degree_zero_curve_rejected():
    point = RationalBezierCurve([(1.0, 2.0)], [1.0])
    with pytest.raises(ValueError, match="degree-0"):
        sederberg_terms(point)
    with pytest.raises(ValueError, match="degree-0"):
        build_derivative_form(point)


@pytest.mark.parametrize("weights", [[5e-324, 1.0, 1.0], [5e-324, 1.0, 5e-324]])
def test_out_of_range_squared_weights_rejected(weights):
    # weights spanning 2^1074 square past the float range even when centred:
    # the form scales them to 2^-537 and 2^537, and 2^1074 overflows
    curve = RationalBezierCurve([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)], weights)
    with pytest.raises(ValueError, match="squared weight"):
        build_derivative_form(curve)


def test_common_weight_scale_is_divided_out():
    # weights [1e200] * 3 give the same form as weights 1, whose r' peaks at 2 sqrt(2)
    points = [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]
    huge = build_derivative_form(RationalBezierCurve(points, [1e200] * 3))
    unit = build_derivative_form(RationalBezierCurve(points, [1.0] * 3))
    assert np.array_equal(huge.rows, unit.rows)
    assert elevation_bound(huge, 100) == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-15)


def _uniform_line(n):
    return RationalBezierCurve([(float(i), 0.0) for i in range(n + 1)], [1.0] * (n + 1))


def test_family_forms_build_through_degree_1016():
    # binomials keep their exponents apart, so no degree overflows them: the
    # degree-1030 line has r' = (515, 0) throughout.  The family's centred
    # weights w_0 = 2^s, w_1 = 2^(s-1) put n w_0 w_1 past the float range
    # from n = 1017 (s = 508).
    assert np.allclose(build_derivative_form(_uniform_line(515)).control_points, [(515.0, 0.0)],
                       rtol=1e-14, atol=0.0)
    assert build_derivative_form(counterexample_family(1016)).degree == 2032
    with pytest.raises(ValueError, match="numerator"):
        build_derivative_form(counterexample_family(1017))


def test_non_finite_sederberg_terms_raise_value_error():
    with pytest.raises(ValueError, match="float range"):
        sederberg_terms(_uniform_line(514))
    # the oracle's own binomials: C(1030, 515) is past the float range
    with pytest.raises(ValueError, match="binomial"):
        sederberg_terms(_uniform_line(516))
    with pytest.raises(ValueError, match="float range"):
        sederberg_terms(RationalBezierCurve([(0.0,), (1.0,), (2.0,)], [1e200] * 3))


def test_binomials_match_exact_integers_through_degree_1029():
    # C(m, i) = f * 2^e with f in [1/2, 1], rounded as the exact integer is,
    # through m = 1029, the last degree whose binomials all fit in a float
    row = [1]  # Pascal's row m, grown by additions
    for m in range(1030):
        f, e = _binomials(m)
        assert ((f >= 0.5) & (f <= 1.0)).all()
        assert np.array_equal(np.ldexp(f, e), [float(c) for c in row])
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]


def test_binomials_stay_small_at_degree_8060():
    # the row an e = 8000 elevation of a degree-60 form needs: one exact
    # integer alive at a time, not the row of them (7.1 MB)
    tracemalloc.start()
    try:
        f, e = _binomials(8060)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert np.array_equal(f, f[::-1]) and np.array_equal(e, e[::-1])


def _assert_rounded_as_exact(m, rng, indices=()):
    # at both ends, the centre, `indices` and random i: the mantissa of
    # C(m, i) is the exact integer over 2^k, correctly rounded, and the
    # exponent is k
    f, e = _binomials(m)
    for i in {0, 1, m // 2, (m + 1) // 2, m - 1, m, *indices, *rng.integers(0, m + 1, size=8).tolist()}:
        c = math.comb(m, i)
        k = c.bit_length()
        assert f[i] == c / (1 << k) and e[i] == k, (m, i)


def test_binomials_enclosure_rounds_as_the_exact_integers():
    # past 2 * _WIDTH bits the row is carried as an integer enclosure
    rng = np.random.default_rng(24)
    for m in (1030, 2047, 8060, 20011):
        _assert_rounded_as_exact(m, rng)


def test_binomials_narrow_enclosure_falls_back_to_exact_integers(monkeypatch):
    # an 8-bit enclosure settles few roundings, so the exact branch runs
    # often, and every row is still the same bit for bit (rows past 2047
    # would take seconds of math.comb calls)
    monkeypatch.setattr(derivative, "_WIDTH", 8)
    calls = []
    comb = math.comb
    monkeypatch.setattr(math, "comb", lambda m, i: calls.append(m) or comb(m, i))
    rng = np.random.default_rng(8)
    for m in (1030, 2047):
        _assert_rounded_as_exact(m, rng)
    row = [1]  # Pascal's row m, grown by additions
    for m in range(301):
        f, e = _binomials(m)
        assert np.array_equal(f, [c / (1 << c.bit_length()) for c in row])
        assert np.array_equal(e, [c.bit_length() for c in row])
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
    assert any(m < 301 for m in calls)


def test_binomials_scan_falls_back_to_exact_integers(monkeypatch):
    # the twin of the narrow-enclosure test, whose rows 1030 and 2047 now
    # take the scan: with an error bound that settles no entry, every entry
    # past the exact first ones is math.comb's, and the rows are still the
    # exact roundings bit for bit
    monkeypatch.setattr(derivative, "_SCAN_ERROR", 1.0)
    calls = []
    comb = math.comb
    monkeypatch.setattr(math, "comb", lambda m, i: calls.append(m) or comb(m, i))
    for m in (1030, 2047):
        row = _exact_binomials(m)
        f, e = _binomials(m)
        assert np.array_equal(f, [c / (1 << c.bit_length()) for c in row])
        assert np.array_equal(e, [c.bit_length() for c in row])
    assert set(calls) == {1030, 2047}


def test_binomials_scan_matches_the_enclosure_on_short_rows(monkeypatch):
    # rows of 1 to 301 entries through the scan, the one-entry rows and the
    # exact first entries among them, give the enclosure's arrays
    want = [_binomials(m) for m in range(301)]
    monkeypatch.setattr(derivative, "_SCAN_FROM", 0)
    for m, (f, e) in enumerate(want):
        got_f, got_e = _binomials(m)
        assert got_f.dtype == f.dtype and got_e.dtype == e.dtype == np.intc
        assert np.array_equal(got_f, f) and np.array_equal(got_e, e), m


# rows next to powers of two, where Kummer's theorem allows the most
# trailing zeros, and rows with exact halfway cases at i = 5..7
_HARD_ROWS = [2**k + d for k in range(10, 15) for d in (-1, 0, 1)] + [1008, 2000, 2048, 8016]


def test_binomials_hard_rows_round_as_the_exact_integers():
    rng = np.random.default_rng(27)
    for m in _HARD_ROWS:
        _assert_rounded_as_exact(m, rng, [*range(65), *rng.integers(0, m + 1, size=24).tolist()])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=800, max_value=20011), st.integers(min_value=0, max_value=2**32 - 1))
def test_binomials_scanned_rows_round_as_the_exact_integers(m, seed):
    _assert_rounded_as_exact(m, np.random.default_rng(seed), range(65))


def test_benchmark_rows_need_no_exact_integer(monkeypatch):
    # the rows e and m + e of the e = 1000..8000 elevations of the family
    # forms, m = 4..60, settle every rounding inside the enclosure: a slide
    # back to the exact integers would show as math.comb calls
    calls = []
    comb = math.comb
    monkeypatch.setattr(math, "comb", lambda m, i: calls.append((m, i)) or comb(m, i))
    for m in {e + k for e in (1000, 2000, 4000, 8000) for k in (0, *range(4, 61, 2))}:
        _binomials(m)
    assert calls == []


def _exact_binomials(m):
    """C(m, 0..m) as exact integers, each from the one before."""
    row = [1]
    for i in range(m):
        row.append(row[-1] * (m - i) // (i + 1))
    return row


def test_product_weights_match_exact_rationals():
    # _product(ones, unit vector r) holds C(m, j) C(l, r) / C(m + l, j + r)
    # in rows j + r, up to m + l = 2400.  Each weight takes five roundings of
    # at most u = 2^-53 relative (three mantissas, their product, the
    # quotient), so it errs by at most 5u / (1 - 5u) relative, and by less
    # than 2^-1073 more where it is subnormal.
    u, tiny = Fraction(1, 2**53), Fraction(1, 2**1074)
    rng = np.random.default_rng(14)
    pairs = [(1200, 1200), (2399, 1), (1, 2399)]
    for total in rng.integers(515, 2401, size=5):
        m = int(rng.integers(0, total + 1))
        pairs.append((m, int(total) - m))
    for m, l in pairs:
        cm, cl, cs = (_exact_binomials(k) for k in (m, l, m + l))
        for r in {0, l, int(rng.integers(0, l + 1))}:
            unit = np.zeros(l + 1)
            unit[r] = 1.0
            got = _product(np.ones((m + 1, 1)), unit)[r : r + m + 1, 0]
            for j, value in enumerate(got):
                exact = Fraction(cm[j] * cl[r], cs[j + r])
                assert abs(Fraction(value) - exact) <= 5 * u / (1 - 5 * u) * exact + 2 * tiny, (m, l, r, j)


def test_overflowing_numerator_rejected():
    curve = RationalBezierCurve([(0.0,), (1.5e308,), (-1.5e308,)], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="numerator"):
        build_derivative_form(curve)


def test_explicit_evaluator_past_the_float_range_raises():
    # r'(1) = (1 / 1e-10) * 1e300 = 1e310 on a valid curve; the valid
    # hand-built form has r' = 1 / 5e-324, about 2.0e323, everywhere
    steep = build_derivative_form(RationalBezierCurve([(0.0,), (1e300,)], [1.0, 1e-10]))
    tiny = DerivativeForm([[1.0, 5e-324]] * 3)
    for form, t in ((steep, 1.0), (tiny, 0.5)):
        with pytest.raises(ValueError, match="float range"):
            eval_derivative_explicit_many(form, [t])


def test_explicit_evaluator_scales_subnormal_rows():
    # r' = 1 everywhere; unscaled, the weight sum 0.5 * 5e-324 rounds to 0
    form = DerivativeForm([[5e-324, 5e-324]] * 3)
    assert np.array_equal(eval_derivative_explicit_many(form, [0.0, 0.5, 1.0]), [[1.0]] * 3)


@pytest.mark.parametrize("rows", [
    [[1.0, 0.0, 1.0], [1.0, 0.0, -1.0], [1.0, 0.0, 1.0]],  # a pole at t = 1/2
    [[1.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
    [[1.0, 0.0, 1.0], [1.0, 0.0, np.inf]],
    [[1.0, 0.0, 1.0], [np.nan, np.nan, np.nan]],
    [[1.0], [1.0]],
    np.empty((0, 3)),
    [1.0, 0.0, 1.0],
], ids=["weight -1", "weight 0", "weight inf", "nan row", "one column", "zero rows", "1-d rows"])
def test_hand_built_forms_are_checked(rows):
    # the maximizer's and the bounds' convex-hull premise needs weights in
    # (0, inf) and finite numerators; a form that breaks it cannot exist
    with pytest.raises(ValueError):
        DerivativeForm(rows)


# ---------------------------------------------------------------------------
# polynomial special case: equal weights reduce to the Bezier derivative

def test_equal_weights_reduce_to_polynomial_derivative():
    rng = np.random.default_rng(31)
    for n, d in [(1, 2), (4, 3), (7, 1)]:
        points = rng.uniform(-5.0, 5.0, size=(n + 1, d))
        curve = RationalBezierCurve(points, np.full(n + 1, 1.0))
        hodo = n * np.diff(points, axis=0)
        form = build_derivative_form(curve)
        for t in (0.0, 0.21, 0.5, 0.83, 1.0):
            ref = basis_value(hodo, t)
            assert np.allclose(eval_derivative_sederberg(curve, t), ref, rtol=1e-11, atol=1e-11)
            assert np.allclose(eval_derivative_explicit_many(form, [t])[0], ref, rtol=1e-11, atol=1e-11)


# ---------------------------------------------------------------------------
# squared-weight coefficients

def test_derivative_weights_square_the_weight_function():
    rng = np.random.default_rng(32)
    for n in (1, 3, 6, 10):
        curve = _benign_curve(rng, n, 2)
        wcoeffs = _product(curve.weights[:, None], curve.weights)[:, 0]
        assert wcoeffs.shape == (2 * n + 1,)
        for t in rng.uniform(0.0, 1.0, size=6):
            w = eval_weight(curve, float(t))
            assert basis_value(wcoeffs, float(t)) == pytest.approx(w * w, rel=1e-13)


def test_derivative_weights_stay_positive():
    rng = np.random.default_rng(33)
    curve = random_curve(rng, 8, 2)
    assert (_product(curve.weights[:, None], curve.weights)[:, 0] > 0.0).all()


# ---------------------------------------------------------------------------
# intermediate numerator points: product-rule identity

def test_intermediate_points_match_product_rule_numerator():
    # sum_k D_k B_k^{2n-2}(t) must equal A'(t) w(t) - A(t) w'(t),
    # where A is the weighted-point numerator of the curve
    rng = np.random.default_rng(34)
    for n, d in [(1, 1), (2, 2), (5, 3), (9, 2)]:
        curve = _benign_curve(rng, n, d)
        inter = _intermediate_points(curve.points, curve.weights)
        assert inter.shape == (2 * n - 1, d)
        a_coeffs = curve.points * curve.weights[:, None]
        a_prime = n * np.diff(a_coeffs, axis=0)
        w_prime = n * np.diff(curve.weights)
        for t in rng.uniform(0.0, 1.0, size=5):
            t = float(t)
            lhs = basis_value(inter, t)
            rhs = basis_value(a_prime, t) * basis_value(curve.weights, t) - basis_value(
                a_coeffs, t
            ) * basis_value(w_prime, t)
            scale = 1.0 + np.abs(rhs).max()
            assert np.abs(lhs - rhs).max() <= 1e-12 * scale


def test_intermediate_points_match_exact_rationals():
    # each D_k is a sum of point differences, so its error stays at the
    # rounding of the largest D_k even where the product formula cancels
    rng = np.random.default_rng(20260819)
    worst = 0.0
    for _ in range(300):
        curve = random_curve(rng, int(rng.integers(1, 25)), int(rng.integers(1, 4)))
        ref = exact_intermediate_points(curve)
        err = np.abs(_intermediate_points(curve.points, curve.weights) - ref).max() / np.abs(ref).max()
        worst = max(worst, err)
    assert worst <= 1e-14, f"worst error {worst:.3g} of max|D_k|"


def test_numerator_points_are_elevated_intermediates():
    # the numerator rows are the exact degree-(2n - 2) points, elevated twice,
    # of the curve the form builds on: its weights divided by their maximum,
    # and centred only where a square would fall below 2^-1020 (2^-600 is
    # centred by 2^300, exactly)
    points = [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]
    tiny = RationalBezierCurve(points, [2.0**-600, 1.0, 1.0])
    centred = RationalBezierCurve(points, [2.0**-300, 2.0**300, 2.0**300])
    for curve, used in [(counterexample_family(5), counterexample_family(5)), (tiny, centred)]:
        form = build_derivative_form(curve)
        assert np.array_equal(form.weights, _product(used.weights[:, None], used.weights)[:, 0])
        expected = elevation_product_coeffs(exact_intermediate_points(used), 2)
        rows = form.rows[:, :-1]
        assert np.array_equal(rows[[0, -1]], expected[[0, -1]])
        assert np.allclose(rows, expected, rtol=1e-15, atol=0.0)


def test_control_points_identity():
    # Q_i * W_i == N_i, by construction up to one rounding each way
    rng = np.random.default_rng(35)
    curve = random_curve(rng, 7, 3)
    form = build_derivative_form(curve)
    lhs = form.control_points * form.weights[:, None]
    rhs = form.rows[:, :-1]
    assert np.allclose(lhs, rhs, rtol=1e-15, atol=0.0)


# ---------------------------------------------------------------------------
# the two closed forms and finite differences agree

@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_forms_agree_property(n, d, t, seed):
    rng = np.random.default_rng(seed)
    curve = _benign_curve(rng, n, d)
    form = build_derivative_form(curve)
    a = eval_derivative_sederberg(curve, t)
    b = eval_derivative_explicit_many(form, [t])[0]
    scale = 1.0 + float(np.sqrt((b * b).sum()))
    assert float(np.sqrt(((a - b) ** 2).sum())) <= 1e-10 * scale


@pytest.mark.parametrize("n", [34, 40, 60])
def test_high_degree_forms_agree_and_bound_holds(n):
    # from degree 34 the binomials of the degree-2n form exceed 64 bits
    curve = counterexample_family(n)
    form = build_derivative_form(curve)
    bound = elevation_bound(form, 1000)
    ts = np.linspace(0.0, 1.0, 21)
    for t, value in zip(ts, eval_derivative_explicit_many(form, ts)):
        ref = eval_derivative_sederberg(curve, float(t))
        assert np.linalg.norm(value - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.linalg.norm(value) <= bound


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=0.0, max_value=2.0 * np.pi),
    st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_rigid_motion_keeps_derivative_norm(n, angle, shift, seed):
    rng = np.random.default_rng(seed)
    curve = _benign_curve(rng, n, 2)
    rotation = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    moved = RationalBezierCurve(curve.points @ rotation.T + np.array(shift), curve.weights)
    ts = np.linspace(0.0, 1.0, 11)
    before = np.linalg.norm(eval_derivative_explicit_many(build_derivative_form(curve), ts), axis=1)
    after = np.linalg.norm(eval_derivative_explicit_many(build_derivative_form(moved), ts), axis=1)
    assert np.abs(after - before).max() <= 1e-8 * before.max()


def test_finite_difference_matches_closed_forms():
    rng = np.random.default_rng(36)
    curve = _benign_curve(rng, 5, 2)
    form = build_derivative_form(curve)
    for t in (0.0, 0.2, 0.5, 0.77, 1.0):
        fd = finite_difference(curve, t)
        closed = eval_derivative_explicit_many(form, [t])[0]
        assert np.abs(fd - closed).max() <= 5e-6


def test_eval_derivative_explicit_many_checks_parameters():
    form = build_derivative_form(counterexample_family(3))
    for ts in ([2.0, -1.0, np.nan], [0.5, 1.5], [-0.0, -1e-300], [np.nan], [0.2, np.inf]):
        with pytest.raises(ValueError, match="outside"):
            eval_derivative_explicit_many(form, ts)
    for ts in ([[0.1, 0.2], [0.3, 0.4]], 0.5):
        with pytest.raises(ValueError, match=r"1-d array, got shape \("):
            eval_derivative_explicit_many(form, ts)
    assert eval_derivative_explicit_many(form, []).shape == (0, 2)
    assert eval_derivative_explicit_many(form, [-0.0, 1.0]).shape == (2, 2)


# ---------------------------------------------------------------------------
# endpoint identities

def test_endpoint_derivatives_match_control_data():
    rng = np.random.default_rng(38)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        curve = random_curve(rng, n, int(rng.integers(1, 4)))
        p, w = curve.points, curve.weights
        start = n * (w[1] / w[0]) * (p[1] - p[0])
        end = n * (w[n - 1] / w[n]) * (p[n] - p[n - 1])
        form = build_derivative_form(curve)
        for value, ref in [
            (eval_derivative_sederberg(curve, 0.0), start),
            (eval_derivative_explicit_many(form, [0.0])[0], start),
            (eval_derivative_sederberg(curve, 1.0), end),
            (eval_derivative_explicit_many(form, [1.0])[0], end),
        ]:
            scale = 1.0 + np.abs(ref).max()
            assert np.abs(value - ref).max() <= 1e-12 * scale


# ---------------------------------------------------------------------------
# finite-difference stencils and argument checking

def test_finite_difference_one_sided_at_boundaries():
    curve = counterexample_family(6)
    form = build_derivative_form(curve)
    for t in (0.0, 1e-9, 1.0 - 1e-9, 1.0):
        fd = finite_difference(curve, t, h=1e-6)
        closed = eval_derivative_explicit_many(form, [t])[0]
        assert np.abs(fd - closed).max() <= 5e-6


def test_finite_difference_argument_errors():
    curve = counterexample_family(2)
    with pytest.raises(ValueError, match="positive"):
        finite_difference(curve, 0.5, h=0.0)
    with pytest.raises(ValueError, match="too large"):
        finite_difference(curve, 0.5, h=0.6)
    with pytest.raises(ValueError, match="outside"):
        finite_difference(curve, 1.5)


def test_derivative_rejects_t_outside_unit_interval():
    curve = counterexample_family(2)
    form = build_derivative_form(curve)
    with pytest.raises(ValueError):
        eval_derivative_sederberg(curve, -0.2)
    with pytest.raises(ValueError):
        eval_derivative_explicit_many(form, [1.2])
