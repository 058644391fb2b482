"""The closed-form first derivative of a rational Bezier curve.

`build_derivative_form` writes r'(t) as an explicit rational Bezier
curve of degree 2n, built from the control data alone.  Its numerator
is the product-rule numerator p'(t) w(t) - p(t) w'(t): a sum over pairs
of weighted control-point differences at its own degree, 2n - 2, elevated
to degree 2n.  Its denominator is the squared weight function, the
Bernstein product of the weights with themselves.  Both are computed on
the curve's checked arrays.  `DerivativeForm` checks its rows when it is
built, by the build or by hand, so the maximizer, the bounds and the
explicit evaluator only see forms with finite numerators and weights in
(0, inf), on which the convex-hull bound holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curve import RationalBezierCurve, _check_ts, _rational

# bits kept by the binomial enclosure in `_binomials`
_WIDTH = 96


@dataclass(frozen=True, slots=True)
class DerivativeForm:
    """Explicit degree-2n rational representation of r'(t).

    `rows` holds the 2n + 1 homogeneous rows (N_i | W_i), read-only,
    with r'(t) = sum N_i B_i / sum W_i B_i, N_i the product-rule
    numerator points.  The properties below are read off it:

    degree             len(rows) - 1
    weights            W_i, Bernstein coefficients of w(t)^2, up to
                       the constant factor the weights were scaled by
    control_points     Q_i = N_i / W_i, the derivative's own
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
    """C(m, i) for i = 0..m as mantissas f in [1/2, 1] and C-int (np.intc)
    exponents e, C(m, i) = f * 2**e, each f correctly rounded; no degree
    overflows.  The exponents are C ints because numpy runs ldexp's C-int
    loop ('di->d') 10-12 times faster than its int64 loop ('dl->d'), with
    the same bits: about 4 against 44 us over 8001 exponents (numpy 2.4).

    The multiplicative recurrence runs over the first half of the row and
    carries integers lo <= hi and a shift s with lo * 2**s <= C(m, i) <=
    hi * 2**s: lo rounds down and hi up at each step, and once hi passes
    2 * _WIDTH bits both are cut back to _WIDTH bits, lo down and hi up.
    Until the first cut lo = hi = C(m, i) exactly.  Rounding to a float is
    monotone, so where float(lo) = float(hi) and both have k bits, that
    float over 2**k is the correctly rounded mantissa and k + s the
    exponent; elsewhere the exact math.comb(m, i) is rounded instead.  So
    no integer grows past about 2 * _WIDTH bits, and the half row, kept
    in lists, fills both ends of each array at once.
    """
    top = 1 << 2 * _WIDTH
    fs, es = [], []
    lo = hi = 1
    s = 0
    for i in range(m // 2 + 1):
        k = hi.bit_length()
        f = float(lo)
        if f == float(hi) and lo.bit_length() == k:
            fs.append(math.ldexp(f, -k))
            es.append(k + s)
        else:
            c = math.comb(m, i)
            k = c.bit_length()
            fs.append(c / (1 << k))
            es.append(k)
        a, b = m - i, i + 1
        lo = lo * a // b
        hi = -(-hi * a // b)
        if hi >= top:
            cut = hi.bit_length() - _WIDTH
            lo, hi, s = lo >> cut, -(-hi >> cut), s + cut
    rest = (m + 1) // 2  # C(m, i) = C(m, m - i) for the i past m // 2
    return np.array(fs + fs[:rest][::-1]), np.array(es + es[:rest][::-1], dtype=np.intc)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bernstein coefficients of the product of two Bernstein polynomials.

    `a` holds m + 1 rows of c coordinates and `b` holds l + 1 scalars; the
    degree-(m+l) product has the rows
    sum_j C(m, j) C(l, i-j) a_j b_{i-j} / C(m+l, i).
    Each binomial is a mantissa in [1/2, 1] and an exponent (`_binomials`):
    fa, ea for m, fb, eb for l and fs, es for m + l.  The sums run in one
    contiguous row per coordinate, shape (c, m + l + 1), returned
    transposed.  The loop runs over the m + 1 rows of `a`: row a_j adds
    x_k = (fa_j a_j)(fb_k b_k) times 2**s_k, s_k = ea_j + eb_k - es_{j+k},
    to the columns j .. j + l, so elevating a form by e steps,
    `_product(rows, np.ones(e + 1))`, takes m + 1 numpy steps whatever e
    is.  Each step multiplies by one vector np.ldexp(1.0, s): every weight
    C(m, j) C(l, k) / C(m+l, j+k) is at least 1 / C(m+l, m) >= 2**-es_m,
    so every s_k >= -es_m - 1, and while es_m <= 1073 each 2**s_k is an
    exact float, and x * 2**s rounds once, to the bits of np.ldexp(x, s).
    Larger products shift each coordinate with np.ldexp(x, s).  The
    exponents are C ints (`_binomials`), so s is too, and either arm takes
    numpy's fast ldexp loop: at e = 8000 a step spends about 4 us, not 44,
    on np.ldexp(1.0, s).  The rest of the cost is the binomial rows, each
    a Python loop over half the row.
    """
    m, l = len(a) - 1, len(b) - 1
    (fa, ea), (fb, eb), (fs, es) = _binomials(m), _binomials(l), _binomials(m + l)
    scaled, sb = (fa[:, None] * a).T, fb * b
    out = np.zeros((a.shape[1], m + l + 1))
    exact = es[m] <= 1073  # every 2**s is a float, at least 2**-1074
    for j in range(m + 1):
        x, s = scaled[:, j : j + 1] * sb, ea[j] + eb - es[j : j + l + 1]
        out[:, j : j + l + 1] += x * np.ldexp(1.0, s) if exact else np.ldexp(x, s)
    return (out / fs).T


def _intermediate_points(points: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Degree-(2n-2) numerator points D_k of p'(t) w(t) - p(t) w'(t), for
    the n + 1 control `points` and weights `w` of a curve of degree n >= 1.

    With A(t) the weighted-point numerator of the curve, the product-rule
    numerator A'(t) w(t) - A(t) w'(t) is the sum over the pairs a < b of
    w_a w_b (p_b - p_a) (B_b' B_a - B_b B_a').  Each bracket is
    (b - a) B_a B_b / (t (1 - t)), a multiple of the one basis function
    B_{a+b-1}^{2n-2}, so the numerator is sum_k D_k B_k^{2n-2}(t) with

        D_k = sum (b - a) C(n, a) C(n, b) w_a w_b (p_b - p_a) / C(2n-2, k)

    over the pairs with a + b - 1 = k (written at degree 2n - 1, its top
    coefficient would cancel).  Each term carries a difference of two control
    points, so points far from the origin cause no cancellation.  The
    binomials' mantissas are multiplied and divided, and their exponents
    applied to each finished term, so no binomial leaves the float range,
    and a term underflows only where its value does.
    """
    n = len(w) - 1
    a, b = np.triu_indices(n + 1, 1)
    k = a + b - 1
    (f, e), (fk, ek) = _binomials(n), _binomials(2 * n - 2)
    term = (f[a] * f[b] / fk[k] * (b - a))[:, None] * ((w[a] * w[b])[:, None] * (points[b] - points[a]))
    out = np.zeros((2 * n - 1, points.shape[1]))
    np.add.at(out, k, np.ldexp(term, (e[a] + e[b] - ek[k])[:, None]))
    return out


def build_derivative_form(curve: RationalBezierCurve) -> DerivativeForm:
    """Assemble the explicit degree-2n rational form of r'(t).

    The squared weights are the Bernstein product of the weights with
    themselves, W_i = sum_j [C(n, j) C(n, i-j) / C(2n, i)] w_j w_{i-j}.
    The degree-(2n-2) numerator points are elevated twice, as one
    Bernstein product with the constant 1, so numerator and squared-weight
    denominator share degree 2n, and the form stores them beside the
    weights as the rows (N_i | W_i).  The weights are first divided by
    their maximum.  Where the smallest square would then fall below
    2^-1020, they are also centred: multiplied by 2^-(e // 2), e the binary
    exponent of the smallest, so the squared weights straddle 1.  In exact
    arithmetic neither step changes r'; in floats the centring is exact,
    but the division rounds each weight once unless the maximum is a
    power of two.  Weights whose squares are normal keep the largest at
    1, leaving the most room for large points.  Raises ValueError for
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
    with np.errstate(all="ignore"):
        wts = _product(w[:, None], w)[:, 0]
        numerator = _product(_intermediate_points(curve.points, w), np.ones(3))
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
