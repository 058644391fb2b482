"""Hot numeric kernels: de Casteljau evaluation over parameter grids,
subdivision at t = 1/2, repeated one-step degree elevation, and the max
norm-over-weight scan.

Each kernel is one vectorized numpy body.  ``decasteljau_grid``,
``elevate_chain`` and ``max_norm_ratio`` check their arguments and
coerce them to contiguous float64 first; ``split`` takes the maximizer's
own arrays as they are.  ``BACKEND`` names the implementation.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def _rowwise_norm(rows: np.ndarray, p: float) -> np.ndarray:
    """The p-norm (p = 1, 2 or inf) of every row of a 2-d array."""
    if p == 1.0:
        return np.abs(rows).sum(axis=1)
    if np.isinf(p):
        return np.abs(rows).max(axis=1)
    return np.sqrt((rows * rows).sum(axis=1))


def decasteljau_grid(coeffs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Evaluate a (m+1, k) Bernstein coefficient array at every t in `ts`.

    Runs the de Casteljau recurrence independently per parameter value and
    returns an array of shape (len(ts), k).  Exact at t = 0 and t = 1.
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)
    ts = np.ascontiguousarray(ts, dtype=np.float64)
    if coeffs.ndim != 2:
        raise ValueError("coeffs must be 2-d (rows of coefficients)")
    if coeffs.shape[0] < 1:
        raise ValueError("empty coefficient array")
    m1, k = coeffs.shape
    out = np.empty((ts.shape[0], k))
    # chunk the t axis so the (m+1, chunk, k) work buffer stays small
    chunk = 8192
    for lo in range(0, ts.shape[0], chunk):
        t = ts[lo:lo + chunk]
        b = np.empty((m1, t.shape[0], k))
        b[:] = coeffs[:, None, :]
        tt = t[:, None]
        ss = 1.0 - tt
        for r in range(1, m1):
            b[: m1 - r] = ss * b[: m1 - r] + tt * b[1 : m1 - r + 1]
        out[lo : lo + t.shape[0]] = b[0]
    return out


def split(coeffs: np.ndarray):
    """De Casteljau at t = 1/2: the coefficient rows of both halves, each
    reparametrized to [0, 1]; they share the row at t = 1/2."""
    m1 = coeffs.shape[0]
    left = np.empty_like(coeffs)
    right = np.empty_like(coeffs)
    b = coeffs
    left[0], right[-1] = b[0], b[-1]
    for r in range(1, m1):
        b = 0.5 * (b[:-1] + b[1:])
        left[r], right[m1 - 1 - r] = b[0], b[-1]
    return left, right


def elevate_chain(coeffs: np.ndarray, steps: int) -> np.ndarray:
    """Degree-elevate a (m+1, k) coefficient array `steps` times.

    Each step is the standard convex-combination elevation, so the result
    represents the same function with degree m + steps.
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)
    if coeffs.ndim != 2:
        raise ValueError("coeffs must be 2-d (rows of coefficients)")
    if coeffs.shape[0] < 1:
        raise ValueError("empty coefficient array")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    steps = int(steps)
    m1, k = coeffs.shape
    out = np.empty((m1 + steps, k))
    out[:m1] = coeffs
    cur = m1
    for _ in range(steps):
        lam = (np.arange(1, cur) / float(cur))[:, None]
        out[cur] = out[cur - 1]
        out[1:cur] = lam * out[: cur - 1] + (1.0 - lam) * out[1:cur]
        cur += 1
    return out[:cur]


def max_norm_ratio(nums: np.ndarray, wts: np.ndarray, p: float = 2.0):
    """Return (max_i |nums[i]|_p / wts[i], argmax index), first index on ties."""
    nums = np.ascontiguousarray(nums, dtype=np.float64)
    wts = np.ascontiguousarray(wts, dtype=np.float64)
    if nums.ndim != 2 or wts.ndim != 1 or nums.shape[0] != wts.shape[0]:
        raise ValueError("nums must be (m, k) and wts (m,)")
    if nums.shape[0] < 1:
        raise ValueError("empty arrays")
    ratios = _rowwise_norm(nums, float(p)) / wts
    i = int(np.argmax(ratios))
    return float(ratios[i]), i
