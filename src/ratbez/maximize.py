"""Maximization of the derivative magnitude |r'(t)| on [0, 1].

The explicit derivative form is a rational Bezier curve with positive
weights, so on each de Casteljau piece of it max |n N_i| / W_i bounds
|r'| (convex hull property), and the end rows give attained values.
Branch and bound halves the piece with the largest bound until the best
attained value is within a relative 1e-10 of it.  In exact arithmetic
[max_value, upper] encloses the supremum; `upper` has no allowance for
rounding.  Ties resolve to the smallest parameter.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import hull_ratios, split
from .curve import RationalBezierCurve
from .derivative import DerivativeForm, build_derivative_form

_REL_GAP = 1e-10
_MIN_WIDTH = 2.0 ** -40


@dataclass(frozen=True, slots=True)
class MaximizerResult:
    """The peak max_value = |r'(argmax_t)|, the largest convex-hull bound
    `upper` over the final pieces, and how many pieces [0, 1] was cut into."""

    max_value: float
    argmax_t: float
    upper: float
    pieces: int


def _entry(piece: np.ndarray, a: float, width: float):
    """Heap entry (-upper, a, width, piece) for the piece over [a, a + width],
    and |r'| at its two ends, all from one scan of its rows' norm/weight;
    ValueError where `upper` leaves the float range."""
    ratios = hull_ratios(piece)
    upper = float(ratios.max())
    if not math.isfinite(upper):
        raise ValueError("a convex-hull bound on |r'| exceeds the float range")
    return (-upper, a, width, piece), float(ratios[0]), float(ratios[-1])


def maximize_derivative_norm(curve: RationalBezierCurve | DerivativeForm) -> MaximizerResult:
    """Enclose sup over [0, 1] of the Euclidean norm |r'(t)|.

    Takes the curve, or a derivative form (then used as is, without a
    second build; every form has passed its own check).  Stops once
    upper - max_value <= 1e-10 * max_value (at once where r' is zero), or
    when the piece with the largest bound is 2^-40 wide.  Raises
    ValueError where a piece's convex-hull bound leaves the float range.
    """
    # build_derivative_form refuses degree 0
    form = curve if isinstance(curve, DerivativeForm) else build_derivative_form(curve)
    # an overflowing hull bound is refused in _entry, not reported as a warning
    with np.errstate(over="ignore"):
        root, start, end = _entry(form.rows, 0.0, 1.0)
        best, argmax_t = (end, 1.0) if end > start else (start, 0.0)
        heap = [root]
        pieces = 1
        while -heap[0][0] - best > _REL_GAP * best and heap[0][2] > _MIN_WIDTH:
            _, a, width, piece = heapq.heappop(heap)
            left, right = split(piece)
            half = 0.5 * width
            entry, _, mid = _entry(left, a, half)
            if mid > best:
                best, argmax_t = mid, a + half
            heapq.heappush(heap, entry)
            heapq.heappush(heap, _entry(right, a + half, half)[0])
            pieces += 1
    return MaximizerResult(max_value=best, argmax_t=argmax_t, upper=-heap[0][0], pieces=pieces)
