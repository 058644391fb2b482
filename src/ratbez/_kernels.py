"""Hot numeric kernels: de Casteljau evaluation over parameter grids,
subdivision at t = 1/2, and the convex-hull scan of norm over weight.

Each kernel is one vectorized numpy body.  The kernels check nothing:
the public functions that call them validate every argument once.
``decasteljau_grid`` coerces its arrays to float64 first; ``split`` and
``hull_ratios`` take the callers' float arrays as they are.  Degree
elevation is no kernel: it is the Bernstein product with the constant 1,
``derivative._product``.  Norms are Euclidean throughout.
"""

from __future__ import annotations

import numpy as np


def _rowwise_norm(rows: np.ndarray) -> np.ndarray:
    """The Euclidean norm of every row of a 2-d array.

    Each row is scaled by the power of two that brings its largest |entry|
    into [1/2, 1) before squaring, so no square overflows, and the norm is
    scaled back; both scalings are exact.
    """
    _, e = np.frexp(np.abs(rows).max(axis=1, initial=0.0))
    scaled = np.ldexp(rows, -e[:, None])
    return np.ldexp(np.sqrt((scaled * scaled).sum(axis=1)), e)


def decasteljau_grid(coeffs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Evaluate a (m+1, k) Bernstein coefficient array at every t in `ts`.

    Runs the de Casteljau recurrence independently per parameter value and
    returns an array of shape (len(ts), k).  Exact at t = 0 and t = 1.
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)
    ts = np.ascontiguousarray(ts, dtype=np.float64)
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


def hull_ratios(rows: np.ndarray) -> np.ndarray:
    """|point| / weight of every homogeneous row (point | weight)."""
    return _rowwise_norm(rows[:, :-1]) / rows[:, -1]
