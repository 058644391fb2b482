"""Hot numeric kernels: de Casteljau evaluation over parameter grids,
repeated one-step degree elevation, and the max norm-over-weight scan.

Each kernel is a vectorized numpy body (``_np_*``); the public names
check and coerce their arguments to contiguous float64 and call it.
``BACKEND`` names the implementation.
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


def _np_decasteljau_grid(coeffs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Evaluate Bernstein-form coefficients (m+1, k) at each t; returns (T, k)."""
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


def _np_elevate_chain(coeffs: np.ndarray, steps: int) -> np.ndarray:
    """Apply one-step degree elevation `steps` times to coefficients (m+1, k)."""
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


def _np_max_norm_ratio(nums: np.ndarray, wts: np.ndarray, p: float):
    """Max over rows of |nums[i]|_p / wts[i]; ties keep the smallest index."""
    ratios = _rowwise_norm(nums, p) / wts
    i = int(np.argmax(ratios))
    return float(ratios[i]), i


def decasteljau_grid(coeffs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Evaluate a (m+1, k) Bernstein coefficient array at every t in `ts`.

    Runs the de Casteljau recurrence independently per parameter value and
    returns an array of shape (len(ts), k).  Exact at t = 0 and t = 1.
    """
    c = np.ascontiguousarray(coeffs, dtype=np.float64)
    t = np.ascontiguousarray(ts, dtype=np.float64)
    if c.ndim != 2:
        raise ValueError("coeffs must be 2-d (rows of coefficients)")
    if c.shape[0] < 1:
        raise ValueError("empty coefficient array")
    return _np_decasteljau_grid(c, t)


def elevate_chain(coeffs: np.ndarray, steps: int) -> np.ndarray:
    """Degree-elevate a (m+1, k) coefficient array `steps` times.

    Each step is the standard convex-combination elevation, so the result
    represents the same function with degree m + steps.
    """
    c = np.ascontiguousarray(coeffs, dtype=np.float64)
    if c.ndim != 2:
        raise ValueError("coeffs must be 2-d (rows of coefficients)")
    if c.shape[0] < 1:
        raise ValueError("empty coefficient array")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    return _np_elevate_chain(c, int(steps))


def max_norm_ratio(nums: np.ndarray, wts: np.ndarray, p: float = 2.0):
    """Return (max_i |nums[i]|_p / wts[i], argmax index), first index on ties."""
    a = np.ascontiguousarray(nums, dtype=np.float64)
    w = np.ascontiguousarray(wts, dtype=np.float64)
    if a.ndim != 2 or w.ndim != 1 or a.shape[0] != w.shape[0]:
        raise ValueError("nums must be (m, k) and wts (m,)")
    if a.shape[0] < 1:
        raise ValueError("empty arrays")
    return _np_max_norm_ratio(a, w, float(p))
