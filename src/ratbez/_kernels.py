"""Hot numeric kernels: de Casteljau evaluation over parameter grids,
subdivision at t = 1/2, and the convex-hull scan of norm over weight.

Each kernel is one vectorized numpy body.  The kernels check no
argument: the public functions that call them validate every argument
once.  ``decasteljau_grid`` coerces its arrays to float64 first; the
``halve`` that ``halver`` returns and ``hull_ratios`` take the callers'
float arrays as they are.  The package's one float-range rule lives
here: arithmetic that may leave the float range runs under
``np.errstate(all="ignore")``, and a result that must be finite returns
through ``finite``, which raises ValueError where it is not; so a valid
input gives a finite value or a ValueError, never a RuntimeWarning.
``hull_ratios`` applies it for the maximizer and the elevation bound
alike, and ``lift`` gives both the evaluator and the elevation bound one
exact power-of-two scaling of homogeneous rows, each to its own target.
Degree elevation is no kernel: it is the Bernstein product with the
constant 1, ``derivative._product``.  Norms are Euclidean throughout,
from libm's hypot, which overflows only where the norm itself does.
"""

from __future__ import annotations

import numpy as np


def finite(values, what: str):
    """`values`, or ValueError("<what> exceeds the float range") where any
    of them is inf or nan: the one refusal of a result past the float range."""
    if not np.isfinite(values).all():
        raise ValueError(f"{what} exceeds the float range")
    return values


def lift(rows: np.ndarray, top: int) -> np.ndarray:
    """`rows` times the power of two that takes their largest |entry| into
    [2^(top-1), 2^top): exact, so it changes no ratio of two entries, and
    every entry at least 2^-(top+1021) times the largest comes out normal."""
    return np.ldexp(rows, top - np.frexp(np.abs(rows).max())[1])


def _rowwise_norm(rows: np.ndarray) -> np.ndarray:
    """The Euclidean norm of every row of a 2-d array (libm's hypot); inf,
    without a warning, where a norm exceeds the float range, so each
    caller's finiteness check refuses it."""
    with np.errstate(all="ignore"):
        return np.hypot.reduce(rows, axis=1, initial=0.0)


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


def halver(m1: int, c: int):
    """`halve(piece)` for pieces of shape (m1, c): de Casteljau at t = 1/2.

    It returns both halves, each reparametrized to [0, 1], as one new
    (2 m1, c) array, the left half's rows over the right's; they share
    the row at t = 1/2.  One level buffer holds the piece and its
    reversal side by side; level r of the recurrence overwrites rows r..,
    so row r keeps the left half's row r, and the reversal's the right
    half's rows in reverse (IEEE addition commutes).  The buffers and
    every level's views are made here, once per halver.
    """
    level, halved = np.empty((m1, 2 * c)), np.empty((m1, 2 * c))
    left, right = level[:, :c], level[::-1, c:]
    steps = [(level[r - 1:], halved[r - 1:], halved[r - 1:-1], halved[r:], level[r:]) for r in range(1, m1)]

    def halve(piece: np.ndarray) -> np.ndarray:
        left[...] = piece
        right[...] = piece
        for rows, h, lo, hi, out in steps:
            # halve before adding: two rows near the float maximum sum past it
            np.multiply(rows, 0.5, out=h)
            np.add(lo, hi, out=out)
        return np.concatenate((left, right))

    return halve


def hull_ratios(rows: np.ndarray) -> np.ndarray:
    """|point| / weight of every homogeneous row (point | weight);
    ValueError where a ratio leaves the float range."""
    with np.errstate(all="ignore"):
        return finite(_rowwise_norm(rows[:, :-1]) / rows[:, -1], "a convex-hull ratio |point| / weight")
