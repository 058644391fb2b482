"""Maximization of the derivative magnitude |r'(t)| on [0, 1].

The explicit derivative form is a rational Bezier curve with positive
weights, so on each de Casteljau piece of it max |n N_i| / W_i bounds
|r'| (convex hull property), and the end rows give attained values.
Branch and bound halves the piece with the largest bound until the best
attained value is within `tol` of it.  In exact arithmetic
[max_value, upper] encloses the supremum; `upper` has no allowance for
rounding.  Ties resolve to the smallest parameter.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ._kernels import max_norm_ratio, split
from .curve import RationalBezierCurve, require_valid
from .derivative import build_derivative_form

_MIN_WIDTH = 2.0 ** -40


@dataclass(frozen=True)
class MaximizerResult:
    """The peak max_value = |r'(argmax_t)|, the largest convex-hull bound
    `upper` over the final pieces, and how many pieces [0, 1] was cut into."""

    max_value: float
    argmax_t: float
    upper: float
    pieces: int


def _value(row: np.ndarray) -> float:
    """|r'| at a piece end: the homogeneous row's point norm over its weight."""
    return max_norm_ratio(row[None, :-1], row[-1:])[0]


def _entry(piece: np.ndarray, a: float, width: float):
    """Heap entry (-upper, a, width, piece) for the piece over [a, a + width]."""
    # a power-of-two scale keeps halving from underflowing, and every ratio its bits
    piece = np.ldexp(piece, -np.frexp(piece[:, -1].max())[1])
    upper, _ = max_norm_ratio(piece[:, :-1], piece[:, -1])
    return -upper, a, width, piece


def maximize_derivative_norm(curve: RationalBezierCurve, tol: float = 1e-10) -> MaximizerResult:
    """Enclose sup over [0, 1] of the Euclidean norm |r'(t)|.

    Stops once upper - max_value <= tol * max_value (at once where r' is
    zero), or when the piece with the largest bound is 2^-40 wide.
    """
    require_valid(curve)
    if curve.degree < 1:
        raise ValueError("derivative of a degree-0 curve (a point) is undefined")
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")

    root = build_derivative_form(curve).homogeneous()
    best, argmax_t = _value(root[0]), 0.0
    if _value(root[-1]) > best:
        best, argmax_t = _value(root[-1]), 1.0
    heap = [_entry(root, 0.0, 1.0)]
    pieces = 1
    while -heap[0][0] - best > tol * best and heap[0][2] > _MIN_WIDTH:
        _, a, width, piece = heapq.heappop(heap)
        left, right = split(piece)
        half = 0.5 * width
        mid = _value(left[-1])
        if mid > best:
            best, argmax_t = mid, a + half
        heapq.heappush(heap, _entry(left, a, half))
        heapq.heappush(heap, _entry(right, a + half, half))
        pieces += 1
    return MaximizerResult(max_value=best, argmax_t=argmax_t, upper=-heap[0][0], pieces=pieces)
