"""Kernels against independent oracles: basis sums, exact rationals and
numpy norms; degree elevation through the Bernstein product."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratbez import build_derivative_form, counterexample_family
from ratbez._kernels import _rowwise_norm, decasteljau_grid, halver, hull_ratios
from ratbez.derivative import _binomials, _product

from oracles import basis_value, ldexp_product, split


def _random_coeffs(rng, rows, cols):
    return rng.uniform(-5.0, 5.0, size=(rows, cols))


def test_grid_matches_basis_summation():
    rng = np.random.default_rng(8)
    coeffs = _random_coeffs(rng, 9, 2)
    ts = rng.uniform(0.0, 1.0, size=11)
    got = decasteljau_grid(coeffs, ts)
    for k, t in enumerate(ts):
        ref = basis_value(coeffs, float(t))
        assert np.allclose(got[k], ref, rtol=1e-12, atol=1e-12)


def test_grid_exact_at_endpoints():
    rng = np.random.default_rng(9)
    coeffs = _random_coeffs(rng, 7, 3)
    got = decasteljau_grid(coeffs, np.array([0.0, 1.0]))
    assert np.array_equal(got[0], coeffs[0])
    assert np.array_equal(got[1], coeffs[-1])


def test_grid_crosses_chunk_boundary():
    # the numpy path processes t in blocks of 8192; straddle that size
    rng = np.random.default_rng(10)
    coeffs = _random_coeffs(rng, 4, 2)
    ts = np.linspace(0.0, 1.0, 8192 + 100)
    got = decasteljau_grid(coeffs, ts)
    ref = np.vstack([decasteljau_grid(coeffs, ts[:8192]), decasteljau_grid(coeffs, ts[8192:])])
    assert np.array_equal(got, ref)
    assert got.shape == (8292, 2)


def _elevate(coeffs, steps):
    """`steps` degree elevations: the Bernstein product with steps + 1 ones."""
    return _product(coeffs, np.ones(steps + 1))


def test_elevate_zero_steps_copies():
    coeffs = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = _elevate(coeffs, 0)
    assert np.array_equal(out, coeffs)
    out[0, 0] = -1.0
    assert coeffs[0, 0] == 1.0


def test_elevate_preserves_values():
    # one step from degree 1: c' = (c0, (c0 + c1)/2, c1), per column
    assert np.array_equal(_elevate(np.array([[2.0], [6.0]]), 1), [[2.0], [4.0], [6.0]])
    assert np.array_equal(_elevate(np.array([[0.0, 0.0], [1.0, 2.0]]), 1), [[0.0, 0.0], [0.5, 1.0], [1.0, 2.0]])
    rng = np.random.default_rng(12)
    coeffs = _random_coeffs(rng, 6, 2)
    elevated = _elevate(coeffs, 40)
    ts = rng.uniform(0.0, 1.0, size=7)
    before = decasteljau_grid(coeffs, ts)
    after = decasteljau_grid(elevated, ts)
    assert np.allclose(before, after, rtol=1e-12, atol=1e-12)


def _same_bits(a, b):
    # tobytes() reads in C order whatever the memory layout
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_elevate_family_form_to_8000_matches_exact_rationals():
    # Row i of the e-fold elevation of rows a_0..a_m is sum_j h_ij a_j, with
    # h_ij = C(m, j) C(e, i - j) / C(m + e, i) over the k indices j in range.
    # Each term takes six roundings of at most u = 2^-53 relative (the three
    # binomial mantissas, fa_j a_j, its product with fb, the final division)
    # and the running sum k - 1 more, so every coordinate errs by at most
    # gamma_(k+5) sum_j h_ij |a_j|, gamma_q = q u / (1 - q u).  No term of
    # this form is subnormal, so the power-of-two scalings are exact.
    rows = build_derivative_form(counterexample_family(30)).rows
    m, e = len(rows) - 1, 8000
    got = _elevate(rows, e)
    assert got.shape == (m + e + 1, 3)
    u = Fraction(1, 2**53)
    exact_rows = [[Fraction(float(x)) for x in row] for row in rows]
    rng = np.random.default_rng(18)
    sample = {0, 1, m, m + 1, (m + e) // 2, e, m + e - 1, m + e}
    sample |= {int(i) for i in rng.integers(0, m + e + 1, size=12)}
    for i in sorted(sample):
        js = range(max(0, i - e), min(m, i) + 1)
        h = {j: Fraction(math.comb(m, j) * math.comb(e, i - j), math.comb(m + e, i)) for j in js}
        q = len(js) + 5
        gamma = q * u / (1 - q * u)
        for c in range(3):
            exact = sum(h[j] * exact_rows[j][c] for j in js)
            scale = sum(h[j] * abs(exact_rows[j][c]) for j in js)
            assert abs(Fraction(float(got[i, c])) - exact) <= gamma * scale, (i, c)


def _gamma(q):
    """gamma_q = q u / (1 - q u), u = 2^-53: the relative error bound of q
    roundings in a row."""
    u = Fraction(1, 2**53)
    return q * u / (1 - q * u)


def test_elevation_takes_one_numpy_step_per_form_row(monkeypatch):
    # _product loops over the rows of its first factor, so elevating the
    # n = 30 form (m + 1 = 61 rows) to e = 8000 takes 61 steps, not the
    # 8001 of a loop over the ones
    rows = build_derivative_form(counterexample_family(30)).rows
    calls, ldexp = [], np.ldexp

    def counting(*args, **kwargs):
        calls.append(None)
        return ldexp(*args, **kwargs)

    monkeypatch.setattr(np, "ldexp", counting)
    _elevate(rows, 8000)
    assert len(calls) == len(rows) == 61


def test_every_ldexp_exponent_is_a_c_int(monkeypatch):
    # numpy runs ldexp's C-int loop ('di->d') many times faster than its
    # int64 loop ('dl->d'), with the same bits, so every exponent array the
    # form build and the product pass to np.ldexp is np.intc
    for m in (0, 60, 8060):
        assert _binomials(m)[1].dtype == np.intc
    dtypes, ldexp = [], np.ldexp

    def recording(x, s, *args, **kwargs):
        dtypes.append(np.asarray(s).dtype)
        return ldexp(x, s, *args, **kwargs)

    monkeypatch.setattr(np, "ldexp", recording)
    rows = build_derivative_form(counterexample_family(30)).rows
    built = len(dtypes)
    _product(rows, np.ones(8001))
    assert len(dtypes) > built > 0
    assert all(dtype == np.intc for dtype in dtypes), set(dtypes)


def test_product_with_one_keeps_the_rows():
    # _product(a, [1.0]) gives row j as fl(fl(f_j a_j) / f_j), f_j the
    # mantissa of C(m, j), and a one-row a times l + 1 ones gives row k as
    # the same quotient with f_k the mantissa of C(l, k); the power-of-two
    # shifts are exact.  So every row is within gamma_2 of the input, and
    # bit for bit where the binomial is a power of two: the end rows, and
    # every row for m <= 2.
    rng = np.random.default_rng(20)
    for k in (0, 1, 2, 3, 30, 1000):
        a = _random_coeffs(rng, k + 1, 3)
        for got, want in ((_product(a, [1.0]), a), (_product(a[:1], np.ones(k + 1)), np.repeat(a[:1], k + 1, axis=0))):
            assert got.shape == want.shape
            assert _same_bits(got[[0, -1]], want[[0, -1]])
            if k <= 2:
                assert _same_bits(got, want)
            for g, w in zip(got.ravel(), want.ravel()):
                assert abs(Fraction(float(g)) - Fraction(float(w))) <= _gamma(2) * abs(Fraction(float(w)))


def test_elevation_copies_the_end_rows():
    # the end weights C(m, 0) C(e, 0) / C(m + e, 0) are exactly 1, so the
    # end rows come out bit for bit; criterion 4's monotone clause rests on it
    rows = build_derivative_form(counterexample_family(30)).rows
    for e in (1, 1000, 8000):
        got = _elevate(rows, e)
        assert _same_bits(got[0], rows[0]) and _same_bits(got[-1], rows[-1])


def test_product_is_symmetric_within_its_rounding_bound():
    # _product(x[:, None], y) and _product(y[:, None], x) form the same
    # terms and add them in another order.  Each coordinate errs by the
    # bound of test_elevate_family_form_to_8000_matches_exact_rationals plus
    # one rounding, for fb_k y_k (exact there, where y is all ones): at most
    # gamma_(k+6) sum_j h_ij |x_j y_(i-j)| over its k terms.  So each agrees
    # with the exact product within that, and the two within twice that.
    rng = np.random.default_rng(21)
    x, y = rng.uniform(-5.0, 5.0, size=31), rng.uniform(-5.0, 5.0, size=400)
    got_xy, got_yx = _product(x[:, None], y)[:, 0], _product(y[:, None], x)[:, 0]
    m, l = len(x) - 1, len(y) - 1
    ex, ey = [Fraction(float(v)) for v in x], [Fraction(float(v)) for v in y]
    for i in range(m + l + 1):
        js = range(max(0, i - l), min(m, i) + 1)
        h = {j: Fraction(math.comb(m, j) * math.comb(l, i - j), math.comb(m + l, i)) for j in js}
        exact = sum(h[j] * ex[j] * ey[i - j] for j in js)
        bound = _gamma(len(js) + 6) * sum(h[j] * abs(ex[j] * ey[i - j]) for j in js)
        xy, yx = Fraction(float(got_xy[i])), Fraction(float(got_yx[i]))
        assert abs(xy - exact) <= bound and abs(yx - exact) <= bound, i
        assert abs(xy - yx) <= 2 * bound, i


def test_elevate_layouts_and_dtypes():
    rng = np.random.default_rng(17)
    wide = _random_coeffs(rng, 3, 9)
    ref = _elevate(np.ascontiguousarray(wide.T), 40)
    # a transposed (F-ordered) input and a strided column slice
    assert _same_bits(_elevate(wide.T, 40), ref)
    assert _same_bits(_elevate(wide.T[:, 1:3], 40), ref[:, 1:3])
    ints = np.array([[1, -2], [3, 4], [0, 7]])
    assert _same_bits(_elevate(ints, 12), _elevate(ints.astype(np.float64), 12))
    for coeffs in (wide.T, np.ascontiguousarray(wide.T)):
        before = coeffs.copy()
        out = _elevate(coeffs, 5)
        assert not np.shares_memory(out, coeffs)
        out[:] = 0.0
        assert np.array_equal(coeffs, before)


def _bit_oracle_cases():
    """(name, a, b) products for the bitwise oracle: family forms, the
    squared weights of a wide weight set, rows spanning the float range,
    and a large row beside small ones."""
    family = {n: build_derivative_form(counterexample_family(n)).rows for n in (2, 11, 30, 200)}
    for n in (2, 11, 30):
        for e in (0, 1, 1000, 8000):
            yield f"family {n}, e = {e}", family[n], np.ones(e + 1)
    yield "family 200, e = 8000", family[200], np.ones(8001)
    rng = np.random.default_rng(25)
    w = np.exp2(rng.uniform(-500.0, 500.0, size=31))
    yield "squared weights 2^+-500", w[:, None], w
    for m, l in ((60, 1000), (600, 600)):
        spread = rng.choice([-1.0, 1.0], size=(m + 1, 3)) * np.exp2(rng.uniform(-1074.0, 1000.0, size=(m + 1, 3)))
        yield f"rows over 2^-1074..2^1000, m = {m}, l = {l}", spread, rng.uniform(0.5, 2.0, size=l + 1)
    for m in (60, 200):
        hazard = np.full((m + 1, 2), 2.0**-60)
        hazard[0] = 2.0**1020, 1.0
        yield f"row (2^1020, 1) beside rows 2^-60, m = {m}, e = 8000", hazard, np.ones(8001)
    # es_m = 1077: row 0 meets 2**-1075 at output row l, where it is alone
    lone = np.zeros((201, 1))
    lone[0] = 2.0**1021
    yield "row 2^1021 over zeros, m = 200, e = 3022", lone, np.ones(3023)


@pytest.mark.parametrize("a, b", [pytest.param(a, b, id=name) for name, a, b in _bit_oracle_cases()])
def test_product_matches_the_per_coordinate_ldexp_oracle_bit_for_bit(a, b):
    # _product multiplies by one vector 2**s per row of `a` where
    # C(m + l, m) <= 2^1073 (then every s >= -1074) and calls np.ldexp per
    # coordinate past it: both arms give the oracle's bits
    assert _same_bits(_product(a, b), ldexp_product(a, b))


def test_bit_oracle_cases_cover_both_arms():
    # the n = 200 family form and the m = 200 hazard at e = 8000, the
    # m = l = 600 random rows and the lone row take the ldexp arm
    # (C(m + l, m) > 2^1073), the rest the power-of-two multiply; the random
    # rows give subnormal terms on both, and the lone row a shift of -1075
    slow = [name for name, a, b in _bit_oracle_cases() if _binomials(len(a) + len(b) - 2)[1][len(a) - 1] > 1073]
    assert slow == [
        "family 200, e = 8000",
        "rows over 2^-1074..2^1000, m = 600, l = 600",
        "row (2^1020, 1) beside rows 2^-60, m = 200, e = 8000",
        "row 2^1021 over zeros, m = 200, e = 3022",
    ]
    (_, ea), (_, eb), (_, es) = _binomials(200), _binomials(3022), _binomials(3222)
    assert ea[0] + eb[3022] - es[3022] == -1075


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(
                st.floats(allow_nan=False),
                st.builds(lambda sign, f, k: sign * math.ldexp(f, k),
                          st.sampled_from([-1.0, 1.0]), st.floats(0.5, 1.0, exclude_max=True), st.integers(-1073, 1024)),
            ),
            st.integers(-1074, 2),
        ),
        min_size=1,
        max_size=40,
    )
)
@example([(1.5, -1074), (0.5, -1074), (-0.75, -1074), (2.0**-1022, -1), (3.0 * 2.0**-1023, -2), (1.7e308, 2)])
def test_multiplying_by_an_exact_power_of_two_rounds_as_ldexp(pairs):
    # for -1074 <= s, 2.0**s is an exact float, so x * 2**s is the exact
    # value rounded once, as np.ldexp(x, s) rounds it, also where the
    # result is subnormal (ties to even at 2^-1075), 0 or inf; ldexp's
    # int64 and C-int loops give the same bits
    x = np.array([v for v, _ in pairs])
    s = np.array([k for _, k in pairs], dtype=np.int64)
    with np.errstate(all="ignore"):
        want = np.ldexp(x, s)
        assert _same_bits(x * np.ldexp(1.0, s), want)
        si = s.astype(np.intc)
        assert _same_bits(x * np.ldexp(1.0, si), want)
        assert _same_bits(np.ldexp(x, si), want)


def test_every_product_shift_is_at_least_minus_es_m_minus_one():
    # C(m, j) C(l, k) / C(m + l, j + k) = C(j + k, j) C(m + l - j - k, m - j)
    # / C(m + l, m) >= 1 / C(m + l, m), and the mantissas lie in [1/2, 1],
    # so every shift ea_j + eb_k - es_(j+k) lies in [-es_m - 1, 2]
    rng = np.random.default_rng(26)
    sizes = [(0, 0), (0, 2400), (2400, 0), (1, 1), (1200, 1200), (60, 2340)]
    sizes += [(int(m), int(rng.integers(0, 2401 - m))) for m in rng.integers(0, 2401, size=14)]
    for m, l in sizes:
        (_, ea), (_, eb), (_, es) = _binomials(m), _binomials(l), _binomials(m + l)
        j, k = np.ogrid[: m + 1, : l + 1]
        shift = ea[j] + eb[k] - es[j + k]
        assert shift.min() >= -es[m] - 1, (m, l)
        assert shift.max() <= 2, (m, l)


def _exact_norm(row):
    """The Euclidean norm of `row` from its exact sum of squares: the root
    truncated to 1200 fraction bits, far past the float's 53, then
    rounded to float."""
    square = sum(Fraction(float(x)) ** 2 for x in row)
    k = 1200
    return float(Fraction(math.isqrt(square.numerator * 4**k // square.denominator), 2**k))


@pytest.mark.parametrize("cols", [1, 2, 3])
def test_rowwise_norm_within_one_ulp_of_the_exact_norm(cols):
    rng = np.random.default_rng(20 + cols)
    rows = rng.uniform(-1.0, 1.0, size=(2000, cols)) * np.exp2(rng.integers(-60, 61, size=(2000, cols)))
    got = _rowwise_norm(rows)
    ref = np.array([_exact_norm(row) for row in rows])
    assert (np.abs(got - ref) <= np.spacing(ref)).all()
    if cols == 1:
        assert np.array_equal(got, np.abs(rows[:, 0]))


def test_rowwise_norm_at_both_ends_of_the_float_range():
    # the squares of 1e308 overflow and those of 5e-324 underflow to 0,
    # but the norms are finite and exactly rounded
    big, tiny = _rowwise_norm(np.array([[1e308, 1e308], [5e-324, 5e-324]]))
    assert big == _exact_norm([1e308, 1e308]) == 1.4142135623730951e308
    assert tiny == _exact_norm([5e-324, 5e-324]) == 5e-324


def test_hull_ratios_past_the_float_range_raise():
    # a norm past the float maximum, and a finite norm over a small weight:
    # ValueError, not inf and a RuntimeWarning
    for row in ([1.7e308, 1.7e308, 1.0], [1e308, 1e308, 0.5]):
        with pytest.raises(ValueError, match="float range"):
            hull_ratios(np.array([[1.0, 0.0, 1.0], row]))


def _unit_weights(nums):
    return np.hstack([nums, np.ones((len(nums), 1))])


def test_hull_ratios_against_numpy_norms():
    rng = np.random.default_rng(13)
    nums = _random_coeffs(rng, 50, 3)
    wts = rng.uniform(0.5, 2.0, size=50)
    ratios = hull_ratios(np.hstack([nums, wts[:, None]]))
    assert ratios == pytest.approx(np.linalg.norm(nums, axis=1) / wts, rel=1e-14)


def test_hull_ratios_power_of_two_row_scaling():
    # squares of 2^660-sized entries overflow; hypot keeps the 3-4-5
    # triangle exact at both ends of the range
    for k in (660, -660):
        big = np.ldexp(np.array([[3.0, 4.0], [0.0, 0.0]]), k)
        assert np.array_equal(hull_ratios(_unit_weights(big)), [np.ldexp(5.0, k), 0.0])
    # a power-of-two rescaled row gives its norm rescaled bit for bit
    rng = np.random.default_rng(16)
    nums = rng.uniform(-1.0, 1.0, size=(40, 3)) * np.ldexp(1.0, rng.integers(-60, 61, size=(40, 1)))
    for i in range(40):
        row, base = nums[i : i + 1], hull_ratios(_unit_weights(nums[i : i + 1]))[0]
        for k in (-900, -1, 1, 900):
            assert hull_ratios(_unit_weights(np.ldexp(row, k)))[0] == np.ldexp(base, k)


def test_split_halves_reproduce_the_coefficients():
    rng = np.random.default_rng(15)
    for rows, cols in [(1, 2), (2, 1), (9, 3), (41, 4)]:
        coeffs = _random_coeffs(rng, rows, cols)
        both = halver(rows, cols)(coeffs)
        left, right = both[:rows], both[rows:]
        assert both.shape == (2 * rows, cols)
        assert np.array_equal(left[0], coeffs[0])
        assert np.array_equal(right[-1], coeffs[-1])
        assert np.array_equal(left[-1], right[0])
        s = rng.uniform(0.0, 1.0, size=9)
        whole = decasteljau_grid(coeffs, np.concatenate([s / 2.0, (1.0 + s) / 2.0]))
        halves = np.vstack([decasteljau_grid(left, s), decasteljau_grid(right, s)])
        assert np.allclose(halves, whole, rtol=1e-12, atol=1e-12)


def _assert_halves_as_split(pieces):
    # one halver per shape, reused: each result is the level-by-level
    # split bit for bit (signed zeros included), and a later call
    # overwrites none of the earlier results
    halve = halver(*pieces[0].shape)
    results = [halve(piece) for piece in pieces]
    for piece, got in zip(pieces, results):
        want = np.concatenate(split(piece))
        assert got.dtype == np.float64 and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_halver_matches_split_bit_for_bit_on_random_shapes():
    rng = np.random.default_rng(29)
    for rows in range(1, 42):
        for cols in range(1, 6):
            # entries spread over 2^+-40, some signs flipped
            pieces = [rng.uniform(-5.0, 5.0, size=(rows, cols))
                      * np.ldexp(1.0, rng.integers(-40, 41, size=(rows, cols))) for _ in range(3)]
            _assert_halves_as_split(pieces)


def test_halver_matches_split_bit_for_bit_at_the_ends_of_the_float_range():
    rng = np.random.default_rng(30)
    for rows, cols in [(1, 3), (2, 2), (7, 3), (23, 4), (41, 5)]:
        signs = rng.choice([-1.0, 1.0], size=(3, rows, cols))
        # near the float maximum: a sum of two rows overflows, their halves do not
        _assert_halves_as_split(list(signs * rng.uniform(1.0e308, 1.7976e308, size=(3, rows, cols))))
        # subnormal rows: every halving rounds, some to zero
        _assert_halves_as_split(list(signs * np.ldexp(rng.integers(0, 2 ** 52, size=(3, rows, cols)), -1074)))
        # signed zeros alone, and beside the smallest subnormals
        _assert_halves_as_split(list(signs * 0.0))
        _assert_halves_as_split(list(signs * rng.choice([0.0, 5e-324, 1e-323], size=(3, rows, cols))))
