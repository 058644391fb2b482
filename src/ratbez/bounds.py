"""Upper bounds for the Euclidean derivative magnitude of a rational
Bezier curve.

Two bounds are provided:

* the conjectured bound n * W * max_i |p_{i+1} - p_i|, where W is the
  largest adjacent weight ratio taken in both directions (it fails for
  some curves; see the experiments module), and
* a sound supremum bound read off the explicit derivative form: after
  jointly degree-elevating its numerator points and weight coefficients
  e times, max_i |n * N_i| / W_i bounds sup |r'(t)| for every e, and the
  bound is non-increasing as e grows.  The e-fold elevation is one
  Bernstein product of the form's rows with the constant 1 written at
  degree e (sum_i B_i^e = 1), computed for each e on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import _rowwise_norm, hull_ratios
from .curve import RationalBezierCurve
from .derivative import DerivativeForm, _product


@dataclass(frozen=True, slots=True)
class BoundReport:
    """A computed derivative bound and how it was obtained.

    `method` is "conjecture" or "elevation"; `elevation_steps` and
    `argmax_index` are filled for the elevation bound, `weight_ratio`
    for the conjectured one.
    """

    value: float
    method: str
    elevation_steps: int | None = None
    argmax_index: int | None = None
    weight_ratio: float | None = None


def weight_ratio(curve: RationalBezierCurve) -> float:
    """Largest adjacent weight ratio max_i max(w_i/w_{i+1}, w_{i+1}/w_i).

    Raises ValueError when the ratio leaves the float range.
    """
    if curve.degree < 1:
        raise ValueError("weight ratio needs at least two control points")
    w = curve.weights
    with np.errstate(over="ignore", divide="ignore"):
        forward = w[1:] / w[:-1]
        ratio = float(max(forward.max(), (1.0 / forward).max()))
    if not np.isfinite(ratio):
        raise ValueError("the adjacent weight ratio exceeds the float range")
    return ratio


def conjecture_bound(curve: RationalBezierCurve) -> BoundReport:
    """Conjectured bound n * W * max_i |p_{i+1} - p_i| on sup |r'(t)|.

    Raises ValueError when the weight ratio or the bound leaves the float
    range.
    """
    ratio = weight_ratio(curve)
    with np.errstate(over="ignore"):
        longest = float(_rowwise_norm(np.diff(curve.points, axis=0)).max())
    value = curve.degree * ratio * longest
    if not np.isfinite(value):
        raise ValueError("the conjectured bound exceeds the float range")
    return BoundReport(value=value, method="conjecture", weight_ratio=ratio)


def _step_count(steps, what: str = "step count") -> int:
    """`steps` as a Python int; ValueError naming `what` unless it is a
    Python or numpy integer (a bool or a float is refused, even 2.0)."""
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {steps!r}")
    return int(steps)


def _elevated(form: DerivativeForm, e_list) -> list[tuple[int, float, int]]:
    """(e, bound, first argmax row) at each step count of ascending `e_list`,
    each e from its own product of the rows with e + 1 ones; ValueError
    where the bound leaves the float range."""
    steps = [_step_count(e) for e in e_list]
    if any(e < 0 for e in steps):
        raise ValueError("elevation step counts must be nonnegative")
    if any(b <= a for a, b in zip(steps, steps[1:])):
        raise ValueError("elevation step counts must be strictly increasing")
    out = []
    for e in steps:
        # an overflowing ratio is refused below, not reported as a warning
        with np.errstate(over="ignore"):
            ratios = hull_ratios(_product(form.rows, np.ones(e + 1)))
        i = int(np.argmax(ratios))
        if not np.isfinite(ratios[i]):
            raise ValueError(f"the elevation bound at e = {e} exceeds the float range")
        out.append((e, float(ratios[i]), i))
    return out


def elevation_bound(form: DerivativeForm, e: int = 0) -> BoundReport:
    """Sound bound max_i |n * N_i| / W_i after e joint elevation steps.

    The numerator points and weight coefficients of the explicit
    derivative form are elevated together, so the quotient they define
    is unchanged while the coefficient-wise ratio tightens toward
    sup |r'(t)|.  Raises ValueError unless `e` is a nonnegative integer,
    and where the bound leaves the float range.
    """
    [(e, value, idx)] = _elevated(form, [e])
    return BoundReport(value=value, method="elevation", elevation_steps=e, argmax_index=idx)


def bound_profile(form: DerivativeForm, e_list) -> list[tuple[int, float]]:
    """Elevation bound at each step count in ascending `e_list`.

    Each entry is elevated on its own, in one Bernstein product of e + 1
    steps, so a profile costs sum(e + 1) product steps over `e_list`.
    Raises ValueError unless every entry is a nonnegative integer and the
    list strictly increases, and where a bound leaves the float range.
    """
    return [(e, value) for e, value, _ in _elevated(form, e_list)]
