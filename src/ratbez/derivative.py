"""The closed-form first derivative of a rational Bezier curve.

`build_derivative_form` writes r'(t) as an explicit rational Bezier
curve of degree 2n, built from the control data alone.  Its numerator
is the product-rule numerator p'(t) w(t) - p(t) w'(t): a sum over pairs
of weighted control-point differences at degree 2n - 1, elevated once to
degree 2n.  Its denominator is the squared weight function, the
Bernstein product of the weights with themselves.  Both are computed on
the curve's checked arrays.  `DerivativeForm` checks its rows when it is
built, by the build or by hand, so the maximizer, the bounds and the
explicit evaluator only see forms with finite numerators and weights in
(0, inf), on which the convex-hull bound holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curve import RationalBezierCurve, _check_ts, _rational


@dataclass(frozen=True, slots=True)
class DerivativeForm:
    """Explicit degree-2n rational representation of r'(t).

    `rows` holds the 2n + 1 homogeneous rows (n * N_i | W_i), read-only,
    with r'(t) = sum n N_i B_i / sum W_i B_i, N_i the product-rule
    numerator points.  The properties below are read off it:

    degree             len(rows) - 1
    weights            W_i, Bernstein coefficients of w(t)^2, up to
                       the constant factor the weights were scaled by
    control_points     Q_i = n * N_i / W_i, the derivative's own
                       rational control points

    Construction raises ValueError unless the rows form a 2-d array of at
    least one row and two columns, every weight lies in (0, inf) and
    every numerator entry is finite.
    """

    rows: np.ndarray

    def __post_init__(self):
        arr = np.array(self.rows, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 2:
            raise ValueError(f"form rows must be 2-d with at least 1 row and 2 columns, got shape {arr.shape}")
        if not ((arr[:, -1] > 0.0) & (arr[:, -1] < np.inf)).all():
            raise ValueError("squared weight coefficients must lie in (0, inf), inside the float range")
        if not np.isfinite(arr[:, :-1]).all():
            raise ValueError("derivative numerator points must be finite, inside the float range")
        arr.setflags(write=False)
        object.__setattr__(self, "rows", arr)

    @property
    def degree(self) -> int:
        return len(self.rows) - 1

    @property
    def weights(self) -> np.ndarray:
        return self.rows[:, -1]

    @property
    def control_points(self) -> np.ndarray:
        return self.rows[:, :-1] / self.rows[:, -1:]


def _binomials(m: int) -> tuple[np.ndarray, np.ndarray]:
    """C(m, i) for i = 0..m as mantissas f in [1/2, 1] and integer exponents e,
    C(m, i) = f * 2**e, each f correctly rounded; no degree overflows.

    The multiplicative recurrence runs over the first half of the row only,
    and each exact C(m, i) is rounded as soon as it is formed and written
    to both i and m - i, so one big integer is alive at a time.
    """
    f, e = np.empty(m + 1), np.empty(m + 1, dtype=np.int64)
    c = 1
    for i in range(m // 2 + 1):
        k = c.bit_length()
        f[i] = f[m - i] = c / (1 << k)
        e[i] = e[m - i] = k
        c = c * (m - i) // (i + 1)
    return f, e


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bernstein coefficients of the product of two Bernstein polynomials.

    `a` holds m + 1 rows of coefficients and `b` holds l + 1 scalars; the
    degree-(m+l) product has the rows
    sum_j C(m, j) C(l, i-j) a_j b_{i-j} / C(m+l, i).
    The loop runs over the m + 1 rows of `a`: row a_j, times every b_k,
    adds one slice of l + 1 rows, out[j : j + l + 1].  So elevating a
    form by e steps, `_product(rows, np.ones(e + 1))`, takes m + 1 numpy
    steps whatever e is.
    """
    m, l = len(a) - 1, len(b) - 1
    (fa, ea), (fb, eb), (fs, es) = _binomials(m), _binomials(l), _binomials(m + l)
    scaled, sb = fa[:, None] * a, (fb * b)[:, None]
    out = np.zeros((m + l + 1, a.shape[1]))
    for j in range(m + 1):
        out[j : j + l + 1] += np.ldexp(sb * scaled[j], (ea[j] + eb - es[j : j + l + 1])[:, None])
    return out / fs[:, None]


def _intermediate_points(points: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Degree-(2n-1) numerator points P_j of p'(t) w(t) - p(t) w'(t), for
    the n + 1 control `points` and weights `w` of a curve of degree n >= 1.

    With A(t) the weighted-point numerator of the curve, the product-rule
    numerator A'(t) w(t) - A(t) w'(t) equals n * sum_j P_j B_j^{2n-1}(t) with

        P_j = sum (b - a) C(n, a) C(n, b) w_a w_b (p_b - p_a) / (n C(2n-1, j))

    over the pairs a < b with a + b in {j, j + 1}.  Each term carries a
    difference of two control points, so points far from the origin
    cause no cancellation.  The binomials' mantissas are multiplied and
    divided, and their exponents applied to each finished term, so no
    binomial leaves the float range, and a term underflows only where its
    value does.
    """
    n = len(w) - 1
    a, b = np.triu_indices(n + 1, 1)
    (f, e), (fw, ew) = _binomials(n), _binomials(2 * n - 1)
    pair, shift = f[a] * f[b], e[a] + e[b]
    diff = (w[a] * w[b])[:, None] * (points[b] - points[a])
    out = np.zeros((2 * n, points.shape[1]))
    for j in (a + b - 1, a + b):
        np.add.at(out, j, np.ldexp((pair / fw[j] * (b - a))[:, None] * diff, (shift - ew[j])[:, None]))
    return out / n


def build_derivative_form(curve: RationalBezierCurve) -> DerivativeForm:
    """Assemble the explicit degree-2n rational form of r'(t).

    The squared weights are the Bernstein product of the weights with
    themselves, W_i = sum_j [C(n, j) C(n, i-j) / C(2n, i)] w_j w_{i-j}.
    The degree-(2n-1) numerator points are elevated once, as a Bernstein
    product with the constant 1, so numerator and squared-weight
    denominator share degree 2n, and the form stores them beside the
    weights as the rows (n * N_i | W_i).  The weights are first divided by
    their maximum.  Where the smallest square would then fall below
    2^-1020, they are also centred: multiplied by 2^-(e // 2), e the binary
    exponent of the smallest, so the squared weights straddle 1.  Neither
    step changes r', and weights whose squares are normal keep the largest
    at 1, leaving the most room for large points.  Raises ValueError for
    a degree-0 curve, and, from the form's own check, when a squared-weight
    coefficient leaves the float range, which needs weights spanning about
    2^1020, or a numerator row overflows; the family
    `counterexample_family(n)` builds through n = 1016.
    """
    n = curve.degree
    if n < 1:
        raise ValueError("derivative of a degree-0 curve (a point) is undefined")
    w = curve.weights / curve.weights.max()
    if w.min() < 2.0 ** -510:
        w = np.ldexp(w, -(np.frexp(w.min())[1] // 2))
    # out-of-range values are refused by DerivativeForm, not reported as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        wts = _product(w[:, None], w)[:, 0]
        numerator = n * _product(_intermediate_points(curve.points, w), np.ones(2))
    return DerivativeForm(np.hstack([numerator, wts[:, None]]))


def eval_derivative_explicit_many(form: DerivativeForm, ts: np.ndarray) -> np.ndarray:
    """r'(t) at every parameter of `ts`, one row per t, from the explicit
    form by homogeneous de Casteljau (for one t, pass `[t]` and take row 0).

    Raises ValueError unless `ts` is 1-d and every t is finite and in
    [0, 1].
    """
    return _rational(form.rows, _check_ts(ts))


def eval_derivative_explicit(form: DerivativeForm, t: float) -> np.ndarray:
    """`eval_derivative_explicit_many(form, [t])[0]`.  Not exported in
    `ratbez.__all__`; kept only because `perfbench/test_checks.py` calls
    it by this name."""
    return eval_derivative_explicit_many(form, [t])[0]
