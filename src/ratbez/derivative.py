"""Closed-form first derivatives of rational Bezier curves.

Two equivalent representations are built from the control data alone:

* a compact numerator form (after Sederberg): r'(t) is a degree-(2n-2)
  Bernstein numerator divided by the squared weight function, and
* an explicit quotient form of degree 2n whose coefficients come from
  the product-rule numerator p'(t) w(t) - p(t) w'(t) written over the
  squared-weight denominator; its numerator points divided by the
  degree-2n weight coefficients give genuine rational control points
  for the derivative.

A finite-difference estimate is included as an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import decasteljau_grid, elevate_chain
from .curve import RationalBezierCurve, _check_t, _rational, eval_point


@dataclass(frozen=True)
class DerivativeForm:
    """Explicit degree-2n rational representation of r'(t).

    `rows` holds the 2n + 1 homogeneous rows (n * N_i | W_i), read-only,
    with r'(t) = sum n N_i B_i / sum W_i B_i.  The properties below are
    read off it:

    weights            W_i, Bernstein coefficients of w(t)^2
    numerator_points   N_i, the product-rule numerator points
    control_points     Q_i = n * N_i / W_i, the derivative's own
                       rational control points
    """

    source_degree: int
    rows: np.ndarray

    def __post_init__(self):
        arr = np.array(self.rows, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "rows", arr)

    @property
    def degree(self) -> int:
        return 2 * self.source_degree

    @property
    def weights(self) -> np.ndarray:
        return self.rows[:, -1]

    @property
    def numerator_points(self) -> np.ndarray:
        return self.rows[:, :-1] / self.source_degree

    @property
    def control_points(self) -> np.ndarray:
        return self.rows[:, :-1] / self.rows[:, -1:]

    def homogeneous(self) -> np.ndarray:
        """The stored rows (n * numerator_points | weights), for rational evaluation."""
        return self.rows


def _require_positive_degree(curve: RationalBezierCurve) -> int:
    n = curve.degree
    if n < 1:
        raise ValueError("derivative of a degree-0 curve (a point) is undefined")
    return n


def sederberg_terms(curve: RationalBezierCurve) -> np.ndarray:
    """Bernstein coefficients D_i of the compact derivative numerator.

    D_i = (1 / C(2n-2, i)) * sum_j (i - 2j + 1) C(n, j) C(n, i-j+1)
          w_j w_{i-j+1} (p_{i-j+1} - p_j),
    summed over j from max(0, i-n+1) to floor(i/2), for i = 0 .. 2n-2.
    Returns the read-only (2n-1, d) array of the D_i, the degree-(2n-2)
    numerator of r'(t) = sum D_i B_i^{2n-2}(t) / w(t)^2.  Raises
    ValueError when a term leaves the float range.
    """
    n = _require_positive_degree(curve)
    p = curve.points
    cw = _binomials(n) * curve.weights
    terms = np.empty((2 * n - 1, curve.dimension))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(2 * n - 1):
            j = np.arange(max(0, i - n + 1), i // 2 + 1)
            k = i - j + 1
            terms[i] = ((i - 2 * j + 1) * cw[j] * cw[k]) @ (p[k] - p[j])
        terms /= _binomials(2 * n - 2)[:, None]
    if not np.isfinite(terms).all():
        raise ValueError(f"Sederberg numerator terms of degree {2 * n - 2} overflow the float range")
    terms.setflags(write=False)
    return terms


def eval_derivative_sederberg(curve: RationalBezierCurve, t: float) -> np.ndarray:
    """Evaluate r'(t) through the compact numerator form."""
    terms = sederberg_terms(curve)
    ts = np.array([_check_t(t)])
    w = decasteljau_grid(curve.weights[:, None], ts)[0, 0]
    return decasteljau_grid(terms, ts)[0] / (w * w)


def _binomials(m: int) -> np.ndarray:
    try:
        return np.array([float(math.comb(m, i)) for i in range(m + 1)])
    except OverflowError:
        raise ValueError(f"binomial coefficients of degree {m} exceed the float range") from None


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bernstein coefficients of the product of two Bernstein polynomials.

    `a` holds m + 1 rows of coefficients and `b` holds l + 1 scalars; the
    degree-(m+l) product has the rows
    sum_j C(m, j) C(l, i-j) a_j b_{i-j} / C(m+l, i).
    """
    m, l = len(a) - 1, len(b) - 1
    scaled = _binomials(m)[:, None] * a
    out = np.zeros((m + l + 1, a.shape[1]))
    for j, bj in enumerate(_binomials(l) * b):
        out[j : j + m + 1] += bj * scaled
    return out / _binomials(m + l)[:, None]


def derivative_weights(curve: RationalBezierCurve) -> np.ndarray:
    """Degree-2n Bernstein coefficients of the squared weight function.

    w(t)^2 = sum_i W_i B_i^{2n}(t) with
    W_i = sum_j [C(n, j) C(n, i-j) / C(2n, i)] w_j w_{i-j}.
    """
    _require_positive_degree(curve)
    w = curve.weights
    return _product(w[:, None], w)[:, 0]


def intermediate_points(curve: RationalBezierCurve) -> np.ndarray:
    """Degree-(2n-1) numerator points P_j of p'(t) w(t) - p(t) w'(t).

    With A(t) the weighted-point numerator of the curve, the product-rule
    numerator A'(t) w(t) - A(t) w'(t) equals n * sum_j P_j B_j^{2n-1}(t) with

        P_j = sum (b - a) C(n, a) C(n, b) w_a w_b (p_b - p_a) / (n C(2n-1, j))

    over the pairs a < b with a + b in {j, j + 1}.  Each term carries a
    difference of two control points, so points far from the origin
    cause no cancellation.  C(n, a) C(n, b) <= C(2n, a + b) stays finite
    wherever the form builds, and it is divided by C(2n-1, j) before it
    meets the factor b - a, so no coefficient exceeds 2n^2.
    """
    n = _require_positive_degree(curve)
    a, b = np.triu_indices(n + 1, 1)
    binom, wide = _binomials(n), _binomials(2 * n - 1)
    pair = binom[a] * binom[b]
    w = curve.weights
    diff = (w[a] * w[b])[:, None] * (curve.points[b] - curve.points[a])
    out = np.zeros((2 * n, curve.dimension))
    for j in (a + b - 1, a + b):
        np.add.at(out, j, (pair / wide[j] * (b - a))[:, None] * diff)
    return out / n


def build_derivative_form(curve: RationalBezierCurve) -> DerivativeForm:
    """Assemble the explicit degree-2n rational form of r'(t).

    The degree-(2n-1) numerator points are elevated once so numerator and
    squared-weight denominator share degree 2n, and the form stores them
    beside the weights as the rows (n * N_i | W_i).  The weights are first
    divided by their maximum, which leaves r' as it is.  Raises ValueError
    when a squared-weight coefficient underflows, a numerator row
    overflows, or the degree is past 514.
    """
    n = _require_positive_degree(curve)
    curve = RationalBezierCurve(curve.points, curve.weights / curve.weights.max())
    # out-of-range values are caught below, not reported as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        wts = derivative_weights(curve)
        numerator = n * elevate_chain(intermediate_points(curve), 1)
    if not (wts > 0.0).all():
        raise ValueError("squared weight coefficients underflow to zero; the weight range is too wide")
    if not np.isfinite(numerator).all():
        raise ValueError("derivative numerator points overflow the float range")
    return DerivativeForm(n, np.hstack([numerator, wts[:, None]]))


def eval_derivative_explicit(form: DerivativeForm, t: float) -> np.ndarray:
    """Evaluate r'(t) from the explicit form by homogeneous de Casteljau."""
    return _rational(form.homogeneous(), np.array([_check_t(t)]))[0]


def eval_derivative_explicit_many(form: DerivativeForm, ts: np.ndarray) -> np.ndarray:
    """Vectorized `eval_derivative_explicit` over a parameter array.

    Raises ValueError unless every t is finite and in [0, 1].
    """
    ts = np.asarray(ts, dtype=np.float64)
    outside = ~((ts >= 0.0) & (ts <= 1.0))
    if outside.any():
        raise ValueError(f"parameter t={ts[outside][0]} outside [0, 1]")
    return _rational(form.homogeneous(), ts)


def finite_difference(curve: RationalBezierCurve, t: float, h: float = 1e-6) -> np.ndarray:
    """Second-order finite-difference estimate of r'(t).

    Central difference in the interior; one-sided three-point stencils
    when t - h or t + h would leave [0, 1].
    """
    t = _check_t(t)
    if h <= 0.0:
        raise ValueError("step h must be positive")
    if 2.0 * h >= 1.0:
        raise ValueError("step h too large for [0, 1]")
    if t - h < 0.0:
        f0 = eval_point(curve, t)
        f1 = eval_point(curve, t + h)
        f2 = eval_point(curve, t + 2.0 * h)
        return (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h)
    if t + h > 1.0:
        f0 = eval_point(curve, t)
        f1 = eval_point(curve, t - h)
        f2 = eval_point(curve, t - 2.0 * h)
        return (3.0 * f0 - 4.0 * f1 + f2) / (2.0 * h)
    return (eval_point(curve, t + h) - eval_point(curve, t - h)) / (2.0 * h)
