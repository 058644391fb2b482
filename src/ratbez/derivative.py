"""The closed-form first derivative of a rational Bezier curve.

`build_derivative_form` writes r'(t) as an explicit rational Bezier
curve of degree 2n, built from the control data alone.  Its numerator
is the product-rule numerator p'(t) w(t) - p(t) w'(t), elevated once to
degree 2n; its denominator is the squared weight function.  Dividing
the numerator points by the degree-2n weight coefficients gives genuine
rational control points for the derivative.  The maximizer and the
bounds read the form's homogeneous rows; the explicit evaluators
evaluate them by de Casteljau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curve import RationalBezierCurve, _check_t, _rational


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
    """

    rows: np.ndarray

    def __post_init__(self):
        arr = np.array(self.rows, dtype=np.float64)
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


def _require_positive_degree(curve: RationalBezierCurve) -> int:
    n = curve.degree
    if n < 1:
        raise ValueError("derivative of a degree-0 curve (a point) is undefined")
    return n


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
    """
    m, l = len(a) - 1, len(b) - 1
    (fa, ea), (fb, eb), (fs, es) = _binomials(m), _binomials(l), _binomials(m + l)
    scaled = fa[:, None] * a
    out = np.zeros((m + l + 1, a.shape[1]))
    for j, (bj, ej) in enumerate(zip(fb * b, eb)):
        out[j : j + m + 1] += np.ldexp(bj * scaled, (ea + ej - es[j : j + m + 1])[:, None])
    return out / fs[:, None]


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
    cause no cancellation.  The binomials' mantissas are multiplied and
    divided, and their exponents applied to each finished term, so no
    binomial leaves the float range, and a term underflows only where its
    value does.
    """
    n = _require_positive_degree(curve)
    a, b = np.triu_indices(n + 1, 1)
    (f, e), (fw, ew) = _binomials(n), _binomials(2 * n - 1)
    pair, shift = f[a] * f[b], e[a] + e[b]
    w = curve.weights
    diff = (w[a] * w[b])[:, None] * (curve.points[b] - curve.points[a])
    out = np.zeros((2 * n, curve.dimension))
    for j in (a + b - 1, a + b):
        np.add.at(out, j, np.ldexp((pair / fw[j] * (b - a))[:, None] * diff, (shift - ew[j])[:, None]))
    return out / n


def build_derivative_form(curve: RationalBezierCurve) -> DerivativeForm:
    """Assemble the explicit degree-2n rational form of r'(t).

    The degree-(2n-1) numerator points are elevated once, as a Bernstein
    product with the constant 1, so numerator and squared-weight
    denominator share degree 2n, and the form stores them beside the
    weights as the rows (n * N_i | W_i).  The weights are first divided by
    their maximum.  Where the smallest square would then fall below
    2^-1020, they are also centred: multiplied by 2^-(e // 2), e the binary
    exponent of the smallest, so the squared weights straddle 1.  Neither
    step changes r', and weights whose squares are normal keep the largest
    at 1, leaving the most room for large points.  Raises ValueError when
    a squared-weight coefficient leaves the float range, which needs
    weights spanning about 2^1020, or a numerator row overflows; the
    family `counterexample_family(n)` builds through n = 1016.
    """
    n = _require_positive_degree(curve)
    w = curve.weights / curve.weights.max()
    if w.min() < 2.0 ** -510:
        w = np.ldexp(w, -(np.frexp(w.min())[1] // 2))
    curve = RationalBezierCurve(curve.points, w)
    # out-of-range values are caught below, not reported as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        wts = derivative_weights(curve)
        numerator = n * _product(intermediate_points(curve), np.ones(2))
    if not ((wts > 0.0) & (wts < np.inf)).all():
        raise ValueError("squared weight coefficients leave the float range; the weight range is too wide")
    if not np.isfinite(numerator).all():
        raise ValueError("derivative numerator points overflow the float range")
    return DerivativeForm(np.hstack([numerator, wts[:, None]]))


def eval_derivative_explicit(form: DerivativeForm, t: float) -> np.ndarray:
    """Evaluate r'(t) from the explicit form by homogeneous de Casteljau."""
    return _rational(form.rows, np.array([_check_t(t)]))[0]


def eval_derivative_explicit_many(form: DerivativeForm, ts: np.ndarray) -> np.ndarray:
    """Vectorized `eval_derivative_explicit` over a parameter array.

    Raises ValueError unless `ts` is 1-d and every t is finite and in
    [0, 1].
    """
    ts = np.asarray(ts, dtype=np.float64)
    if ts.ndim != 1:
        raise ValueError(f"parameters must form a 1-d array, got shape {ts.shape}")
    outside = ~((ts >= 0.0) & (ts <= 1.0))
    if outside.any():
        raise ValueError(f"parameter t={ts[outside][0]} outside [0, 1]")
    return _rational(form.rows, ts)
