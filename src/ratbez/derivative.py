"""Closed-form first derivatives of rational Bezier curves.

Two equivalent representations are built from the control data alone:

* a compact numerator form (after Sederberg): r'(t) is a degree-(2n-2)
  Bernstein numerator divided by the squared weight function, and
* an explicit quotient form of degree 2n whose coefficients come from
  the product-rule numerator p'(t) w(t) - p(t) w'(t) written over the
  squared-weight denominator; its numerator points divided by the
  degree-2n weight coefficients give genuine rational control points
  for the derivative.

A finite-difference evaluator is included as an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import decasteljau_grid, elevate_chain
from .curve import (
    RationalBezierCurve,
    _check_t,
    decasteljau,
    eval_point,
    eval_weight,
    require_valid,
)


@dataclass(frozen=True)
class SederbergNumerator:
    """Numerator of the compact derivative form.

    `terms` holds the 2n-1 Bernstein coefficients D_i of degree 2n-2;
    the derivative is their de Casteljau value divided by w(t)^2.
    """

    degree: int
    terms: np.ndarray

    def __post_init__(self):
        arr = np.array(self.terms, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "terms", arr)


@dataclass(frozen=True)
class DerivativeForm:
    """Explicit degree-2n rational representation of r'(t).

    weights            Bernstein coefficients of w(t)^2 (2n + 1 values)
    numerator_points   points N_i with r'(t) = n * sum N_i B_i / sum weights_i B_i
    control_points     Q_i = n * N_i / weights_i, the derivative's own
                       rational control points
    intermediate_points degree-(2n-1) numerator points before the one
                       elevation step that aligns numerator and denominator
    """

    source_degree: int
    weights: np.ndarray
    numerator_points: np.ndarray
    control_points: np.ndarray
    intermediate_points: np.ndarray

    def __post_init__(self):
        for name in ("weights", "numerator_points", "control_points", "intermediate_points"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def degree(self) -> int:
        return 2 * self.source_degree

    def homogeneous(self) -> np.ndarray:
        """Stack (n * numerator_points | weights) for rational evaluation."""
        return np.hstack([
            self.source_degree * self.numerator_points,
            self.weights[:, None],
        ])


def _require_positive_degree(curve: RationalBezierCurve) -> int:
    require_valid(curve)
    n = curve.degree
    if n < 1:
        raise ValueError("derivative of a degree-0 curve (a point) is undefined")
    return n


def sederberg_terms(curve: RationalBezierCurve) -> SederbergNumerator:
    """Bernstein coefficients D_i of the compact derivative numerator.

    D_i = (1 / C(2n-2, i)) * sum_j (i - 2j + 1) C(n, j) C(n, i-j+1)
          w_j w_{i-j+1} (p_{i-j+1} - p_j),
    summed over j from max(0, i-n+1) to floor(i/2), for i = 0 .. 2n-2.
    """
    n = _require_positive_degree(curve)
    p = curve.points
    w = curve.weights
    terms = np.zeros((2 * n - 1, curve.dimension))
    for i in range(2 * n - 1):
        acc = np.zeros(curve.dimension)
        for j in range(max(0, i - n + 1), i // 2 + 1):
            k = i - j + 1
            coef = (i - 2 * j + 1) * math.comb(n, j) * math.comb(n, k)
            acc += (coef * w[j] * w[k]) * (p[k] - p[j])
        terms[i] = acc / math.comb(2 * n - 2, i)
    return SederbergNumerator(2 * n - 2, terms)


def eval_derivative_sederberg(curve: RationalBezierCurve, t: float) -> np.ndarray:
    """Evaluate r'(t) through the compact numerator form."""
    num = sederberg_terms(curve)
    t = _check_t(t)
    value = decasteljau(num.terms, t)
    w = eval_weight(curve, t)
    return value / (w * w)


def _binomials(m: int) -> np.ndarray:
    return np.array([float(math.comb(m, i)) for i in range(m + 1)])


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
    numerator A'(t) w(t) - A(t) w'(t) equals n * sum_j P_j B_j^{2n-1}(t),
    where P = product(dA, w) - product(A, dw) for the forward differences
    dA, dw of the coefficients.  A is built from p_i - p_0: translating
    the points leaves the numerator unchanged, and P_0 = w_0 w_1 (p_1 - p_0)
    comes out without cancellation.
    """
    _require_positive_degree(curve)
    w = curve.weights
    a = w[:, None] * (curve.points - curve.points[0])
    return _product(np.diff(a, axis=0), w) - _product(a, np.diff(w))


def build_derivative_form(curve: RationalBezierCurve) -> DerivativeForm:
    """Assemble the explicit degree-2n rational form of r'(t).

    The degree-(2n-1) numerator points are elevated once so numerator and
    squared-weight denominator share degree 2n; dividing componentwise by
    the weights then yields the derivative's rational control points.
    Raises ValueError when a squared-weight coefficient overflows or
    underflows to zero, or a numerator point overflows.
    """
    n = _require_positive_degree(curve)
    # out-of-range values are caught below, not reported as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        wts = derivative_weights(curve)
        inter = intermediate_points(curve)
        elevated = elevate_chain(inter, 1)
    if not (np.isfinite(wts).all() and (wts > 0.0).all()):
        raise ValueError(
            "squared weight coefficients under- or overflow the float range; "
            "rescale the weights"
        )
    if not np.isfinite(elevated).all():
        raise ValueError("derivative numerator points overflow the float range")
    control = n * elevated / wts[:, None]
    return DerivativeForm(
        source_degree=n,
        weights=wts,
        numerator_points=elevated,
        control_points=control,
        intermediate_points=inter,
    )


def eval_derivative_explicit(form: DerivativeForm, t: float) -> np.ndarray:
    """Evaluate r'(t) from the explicit form by homogeneous de Casteljau."""
    t = _check_t(t)
    h = decasteljau(form.homogeneous(), t)
    return h[:-1] / h[-1]


def eval_derivative_explicit_many(form: DerivativeForm, ts: np.ndarray) -> np.ndarray:
    """Vectorized `eval_derivative_explicit` over a parameter array."""
    h = decasteljau_grid(form.homogeneous(), np.asarray(ts, dtype=np.float64))
    return h[:, :-1] / h[:, -1:]


def finite_difference(curve: RationalBezierCurve, t: float, h: float = 1e-6) -> np.ndarray:
    """Second-order finite-difference estimate of r'(t).

    Central difference in the interior; one-sided three-point stencils
    when t - h or t + h would leave [0, 1].
    """
    require_valid(curve)
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
