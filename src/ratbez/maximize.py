"""Maximization of the derivative magnitude |r'(t)| on [0, 1].

The explicit derivative form is a rational Bezier curve with positive
weights, so on each de Casteljau piece of it max |N_i| / W_i bounds
|r'| (convex hull property), and the end rows give attained values.
Branch and bound halves the piece with the largest bound until the best
attained value is within a relative 1e-10 of it.  In exact arithmetic
[max_value, upper] encloses the supremum; in floats neither end is
certified.  `max_value` is the float value of |r'| at `argmax_t`, not a
certified lower bound: rounding can put it above the exact supremum.
`upper` has no allowance for rounding.  Ties resolve to the smallest
parameter.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from ._kernels import halver, hull_ratios
from .curve import RationalBezierCurve
from .derivative import DerivativeForm, build_derivative_form

_REL_GAP = 1e-10
_MIN_WIDTH = 2.0 ** -40


@dataclass(frozen=True, slots=True)
class MaximizerResult:
    """The peak max_value, the largest convex-hull bound `upper` over the
    final pieces, and how many pieces [0, 1] was cut into.  max_value is
    the float value of |r'(argmax_t)|, not a certified lower bound on the
    supremum: rounding can put it above the exact value."""

    max_value: float
    argmax_t: float
    upper: float
    pieces: int


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
    m1, c = form.rows.shape
    halve = halver(m1, c)
    # a heap entry is (-upper, a, width, piece) for the piece over [a, a + width]
    ratios = hull_ratios(form.rows)
    start, end = float(ratios[0]), float(ratios[-1])
    best, argmax_t = (end, 1.0) if end > start else (start, 0.0)
    heap = [(-float(ratios.max()), 0.0, 1.0, form.rows)]
    pieces = 1
    while -heap[0][0] - best > _REL_GAP * best and heap[0][2] > _MIN_WIDTH:
        _, a, width, piece = heapq.heappop(heap)
        halves = halve(piece)
        # one scan of both halves' norm/weight; row m1 - 1 is r' at a + half
        ratios = hull_ratios(halves)
        half, mid = 0.5 * width, float(ratios[m1 - 1])
        if mid > best:
            best, argmax_t = mid, a + half
        heapq.heappush(heap, (-float(ratios[:m1].max()), a, half, halves[:m1]))
        heapq.heappush(heap, (-float(ratios[m1:].max()), a + half, half, halves[m1:]))
        pieces += 1
    return MaximizerResult(max_value=best, argmax_t=argmax_t, upper=-heap[0][0], pieces=pieces)
