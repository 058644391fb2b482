"""Kernels against independent oracles: basis sums, product formulas and numpy norms."""

import numpy as np
import pytest

from ratbez import _kernels
from ratbez._kernels import decasteljau_grid, elevate_chain, max_norm_ratio, split

from oracles import basis_value


def _random_coeffs(rng, rows, cols):
    return rng.uniform(-5.0, 5.0, size=(rows, cols))


def test_backend_flag_consistency():
    assert _kernels.BACKEND == "numpy"


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


def test_grid_rejects_bad_shapes():
    with pytest.raises(ValueError):
        decasteljau_grid(np.zeros((2, 2, 2)), np.array([0.5]))
    with pytest.raises(ValueError):
        decasteljau_grid(np.zeros((0, 2)), np.array([0.5]))


def test_elevate_zero_steps_copies():
    coeffs = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = elevate_chain(coeffs, 0)
    assert np.array_equal(out, coeffs)
    out[0, 0] = -1.0
    assert coeffs[0, 0] == 1.0


def test_elevate_preserves_values():
    rng = np.random.default_rng(12)
    coeffs = _random_coeffs(rng, 6, 2)
    elevated = elevate_chain(coeffs, 40)
    ts = rng.uniform(0.0, 1.0, size=7)
    before = decasteljau_grid(coeffs, ts)
    after = decasteljau_grid(elevated, ts)
    assert np.allclose(before, after, rtol=1e-12, atol=1e-12)


def test_elevate_rejects_negative_steps():
    with pytest.raises(ValueError):
        elevate_chain(np.zeros((2, 1)), -1)


def test_max_norm_ratio_against_numpy_norms():
    rng = np.random.default_rng(13)
    nums = _random_coeffs(rng, 50, 3)
    wts = rng.uniform(0.5, 2.0, size=50)
    for p, order in [(1.0, 1), (2.0, 2), (float("inf"), np.inf)]:
        value, idx = max_norm_ratio(nums, wts, p)
        ratios = np.linalg.norm(nums, ord=order, axis=1) / wts
        assert value == pytest.approx(ratios.max(), rel=1e-14)
        assert idx == int(np.argmax(ratios))


def test_max_norm_ratio_ties_take_first_index():
    nums = np.array([[3.0, 4.0], [4.0, 3.0], [5.0, 0.0]])
    wts = np.ones(3)
    value, idx = max_norm_ratio(nums, wts, 2.0)
    assert value == pytest.approx(5.0)
    assert idx == 0


def test_split_halves_reproduce_the_coefficients():
    rng = np.random.default_rng(15)
    for rows, cols in [(1, 2), (2, 1), (9, 3), (41, 4)]:
        coeffs = _random_coeffs(rng, rows, cols)
        left, right = split(coeffs)
        assert np.array_equal(left[0], coeffs[0])
        assert np.array_equal(right[-1], coeffs[-1])
        assert np.array_equal(left[-1], right[0])
        s = rng.uniform(0.0, 1.0, size=9)
        whole = decasteljau_grid(coeffs, np.concatenate([s / 2.0, (1.0 + s) / 2.0]))
        halves = np.vstack([decasteljau_grid(left, s), decasteljau_grid(right, s)])
        assert np.allclose(halves, whole, rtol=1e-12, atol=1e-12)
