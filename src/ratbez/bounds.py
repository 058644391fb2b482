"""Upper bounds for the Euclidean derivative magnitude of a rational
Bezier curve.

Two bounds are provided:

* the conjectured bound n * W * max_i |p_{i+1} - p_i|, where W is the
  largest adjacent weight ratio taken in both directions (it fails for
  some curves; see the experiments module), and
* a supremum bound read off the explicit derivative form: after
  jointly degree-elevating its numerator points and weight coefficients
  e times, max_i |N_i| / W_i bounds sup |r'(t)| for every e.  It is sound
  in exact arithmetic only: the float value carries no rounding
  allowance, so it may fall short of the true supremum by rounding
  error.  In exact arithmetic the bound is non-increasing as e grows; in
  floats it can rise by an ulp (DerivativeForm([[0.1, 0.7]] * 4) reads
  0.1428571428571429 at e = 7, 0.14285714285714293 at e = 8).  The
  e-fold elevation is one Bernstein product of the form's rows with the
  constant 1 written at degree e (sum_i B_i^e = 1), computed for each e
  on its own.
"""

from __future__ import annotations

import numpy as np

from ._kernels import _rowwise_norm, finite, hull_ratios, lift
from .curve import RationalBezierCurve
from .derivative import DerivativeForm, _product


def weight_ratio(curve: RationalBezierCurve) -> float:
    """Largest adjacent weight ratio max_i max(w_i/w_{i+1}, w_{i+1}/w_i).

    Raises ValueError when the ratio leaves the float range.
    """
    if curve.degree < 1:
        raise ValueError("weight ratio needs at least two control points")
    w = curve.weights
    with np.errstate(all="ignore"):
        return finite(float(np.maximum(w[1:] / w[:-1], w[:-1] / w[1:]).max()), "the adjacent weight ratio")


def conjecture_bound(curve: RationalBezierCurve) -> float:
    """Conjectured bound n * W * max_i |p_{i+1} - p_i| on sup |r'(t)|.

    Raises ValueError when the weight ratio or the bound leaves the float
    range.
    """
    ratio = weight_ratio(curve)
    with np.errstate(all="ignore"):
        longest = float(_rowwise_norm(np.diff(curve.points, axis=0)).max())
    return finite(curve.degree * ratio * longest, "the conjectured bound")


def _integer(value, what: str) -> int:
    """`value` as a Python int; ValueError, naming `what`, unless it is a
    Python or numpy integer (a bool or a float is refused, even 2.0)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _elevated(form: DerivativeForm, e_list) -> list[tuple[int, float]]:
    """(e, bound) at each step count of `e_list`, in its order, each e from
    its own product of the rows with e + 1 ones; ValueError (from
    `hull_ratios`) where the bound leaves the float range.  The rows are
    first lifted (`lift`) so that their largest |entry| lies in
    [2^(t-1), 2^t), t = 1022 - ceil(log2(c) / 2) for c point columns:
    the lift changes no ratio, the product's binomial mantissas in [1/2, 1]
    round no subnormal weight of a form to 0, also beside a row near 1,
    and, as the product's weights sum to 1 per row, every elevated entry
    stays below about 2^t, so the norm of a numerator row, at most
    sqrt(c) times its largest entry, stays below about 2^1022."""
    steps = [_integer(e, "step count") for e in e_list]
    if any(e < 0 for e in steps):
        raise ValueError("elevation step counts must be nonnegative")
    c = form.rows.shape[1] - 1
    rows = lift(form.rows, 1022 - ((c - 1).bit_length() + 1) // 2)
    out = []
    for e in steps:
        # a product past the float range is refused by hull_ratios, not warned about
        with np.errstate(all="ignore"):
            elevated = _product(rows, np.ones(e + 1))
        out.append((e, float(hull_ratios(elevated).max())))
    return out


def elevation_bound(form: DerivativeForm, e: int) -> float:
    """Bound max_i |N_i| / W_i after e joint elevation steps.

    The numerator points and weight coefficients of the explicit
    derivative form are elevated together, so the quotient they define
    is unchanged while the coefficient-wise ratio tightens toward
    sup |r'(t)|.  The bound is sound in exact arithmetic; its float value
    has no rounding allowance yet.  Raises ValueError unless `e` is a
    nonnegative integer, and where the bound leaves the float range.
    """
    [(_, value)] = _elevated(form, [e])
    return value


def bound_profile(form: DerivativeForm, e_list) -> list[tuple[int, float]]:
    """Elevation bound at each step count of `e_list`, in its order.

    Each entry is elevated on its own, in one Bernstein product with
    e + 1 ones, so each e costs m + 1 numpy steps (m the form's degree),
    each adding an (e + 1)-long slice of every coordinate row times one
    power-of-two vector (or, past C(m + e, m) > 2^1073, through np.ldexp
    per coordinate), plus the binomial rows of lengths e + 1 and
    m + e + 1: from degree 640 (`derivative._SCAN_FROM`) up a vectorised
    double-double scan of about log2(e) passes, below it a Python loop
    over half the row on integers of at most about 192 bits.  The
    binomial exponents are C ints, so every np.ldexp takes numpy's C-int
    loop, 10-12 times faster than its int64 loop, with the same bits.
    Raises ValueError unless every entry is a nonnegative integer, and
    where a bound leaves the float range.
    """
    return _elevated(form, e_list)
