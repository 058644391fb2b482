"""Independent reference implementations used as test oracles.

Most of these deliberately avoid the library's evaluation paths:
binomials come from an additive Pascal triangle, curve values from
direct basis summation, elevated coefficients from the one-shot
binomial-product formula (and, for bitwise checks, from the textbook
row-major elevation step), the derivative's degree-(2n - 2) numerator
points from the product formula A'w - Aw' in exact rational arithmetic,
reduced exactly from degree 2n - 1, and the degree-11 family fixture from
its explicit rational-function form.

The compact derivative numerator (after Sederberg), the Bernstein
helpers and the finite-difference estimate live here too, since only
tests call them.  `decasteljau`, `eval_weight` and
`eval_derivative_sederberg` evaluate through the library's
`decasteljau_grid` kernel, and `finite_difference` through its
`eval_point`.  `sederberg_terms` gives the same D_k as the library's
private pair sum, at the same degree from the same pairs, and differs from
it only in arithmetic: it rounds its own exact integer binomials to
floats, and raises ValueError where one exceeds the float range
(C(1030, 515) is the first).  So `exact_intermediate_points`, which uses
no pair formula, is the independent check of those points.
`exact_derivative_norm` gives |r'(t)| from the control data in exact
rational arithmetic, rounded only at the end.  `ldexp_product` is the
library's Bernstein product with np.ldexp applied to every coordinate,
the bitwise reference for its power-of-two multiply.  `split` is the
level-by-level halving at t = 1/2 that the maximizer ran before
`_kernels.halver`, the bit-for-bit reference for it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb

import numpy as np

from ratbez import RationalBezierCurve, eval_point
from ratbez._kernels import decasteljau_grid
from ratbez.curve import _check_ts
from ratbez.derivative import _binomials


def pascal_binomial(n: int, k: int) -> int:
    """C(n, k) grown row by row by additions only."""
    row = [1]
    for _ in range(n):
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
    return row[k]


def basis_value(values, t: float):
    """Bernstein-form evaluation by direct basis summation."""
    arr = np.asarray(values, dtype=np.float64)
    n = arr.shape[0] - 1
    total = np.zeros_like(arr[0], dtype=np.float64)
    for i in range(n + 1):
        total = total + bernstein(n, i, t) * arr[i]
    return total


def rational_point(curve: RationalBezierCurve, t: float) -> np.ndarray:
    """Rational curve point by basis summation of both layers."""
    num = basis_value(curve.points * curve.weights[:, None], t)
    den = basis_value(curve.weights, t)
    return num / den


def elevation_product_coeffs(values, e: int) -> np.ndarray:
    """Coefficients after e elevation steps, via the closed product form.

    For degree m coefficients c_j, the degree-(m+e) coefficients are
    c'_i = sum_j C(m, j) C(e, i - j) c_j / C(m + e, i), the sum running
    over max(0, i - e) <= j <= min(m, i).
    """
    arr = np.asarray(values, dtype=np.float64)
    m = arr.shape[0] - 1
    out = np.zeros((m + e + 1,) + arr.shape[1:])
    for i in range(m + e + 1):
        denom = pascal_binomial(m + e, i)
        for j in range(max(0, i - e), min(m, i) + 1):
            out[i] = out[i] + (pascal_binomial(m, j) * pascal_binomial(e, i - j) / denom) * arr[j]
    return out


def ldexp_product(a, b) -> np.ndarray:
    """The Bernstein product of the rows `a` and the scalars `b` with the
    library's binomial mantissas and exponents, summed in the library's
    order, but shifted by np.ldexp on every coordinate of a row-major
    (m + l + 1, k) buffer: the bit-for-bit reference for
    `derivative._product`, whose power-of-two multiply must round as
    ldexp does."""
    m, l = len(a) - 1, len(b) - 1
    (fa, ea), (fb, eb), (fs, es) = _binomials(m), _binomials(l), _binomials(m + l)
    scaled, sb = fa[:, None] * a, (fb * b)[:, None]
    out = np.zeros((m + l + 1, a.shape[1]))
    for j in range(m + 1):
        out[j : j + l + 1] += np.ldexp(sb * scaled[j], (ea[j] + eb - es[j : j + l + 1])[:, None])
    return out / fs[:, None]


def split(coeffs: np.ndarray):
    """De Casteljau at t = 1/2, one new array per level: the coefficient
    rows of both halves, each reparametrized to [0, 1]; they share the
    row at t = 1/2."""
    m1 = coeffs.shape[0]
    left = np.empty_like(coeffs)
    right = np.empty_like(coeffs)
    b = coeffs
    left[0], right[-1] = b[0], b[-1]
    for r in range(1, m1):
        # halve before adding: two rows near the float maximum sum past it
        h = 0.5 * b
        b = h[:-1] + h[1:]
        left[r], right[m1 - 1 - r] = b[0], b[-1]
    return left, right


def _common_integers(values):
    """Floats as integers over one common power-of-two denominator."""
    ratios = [float(v).as_integer_ratio() for v in values]
    scale = max(den for _, den in ratios)
    return [num * (scale // den) for num, den in ratios], scale


def exact_intermediate_points(curve: RationalBezierCurve) -> np.ndarray:
    """Numerator points D_k of degree 2n - 2, rounded once from their exact
    rational values.

    With A_i = w_i p_i, the product-rule numerator A'w - Aw' has the
    degree-(2n - 1) Bernstein coefficients
    c_j = n sum_i C(n-1, i) C(n, j-i) (dA_i w_{j-i} - A_{j-i} dw_i) / C(2n-1, j).
    Its true degree is 2n - 2, so one elevation step
    c_j = (j D_{j-1} + (2n-1-j) D_j) / (2n - 1) is undone from the left,
    D_k = ((2n-1) c_k - k D_{k-1}) / (2n-1-k), and the top coefficient is
    checked to cancel: c_{2n-1} = D_{2n-2}.  The inputs are dyadic, so every
    value is an exact rational; no pair formula is used.
    """
    n = curve.degree
    m = 2 * n - 1
    w, wscale = _common_integers(curve.weights)
    dw = [w[i + 1] - w[i] for i in range(n)]
    out = np.empty((m, curve.dimension))
    for c in range(curve.dimension):
        p, pscale = _common_integers(curve.points[:, c])
        a = [w[i] * p[i] for i in range(n + 1)]
        da = [a[i + 1] - a[i] for i in range(n)]
        coeffs = [
            Fraction(
                n * sum(
                    comb(n - 1, i) * comb(n, j - i) * (da[i] * w[j - i] - a[j - i] * dw[i])
                    for i in range(max(0, j - n), min(n - 1, j) + 1)
                ),
                comb(m, j) * wscale * wscale * pscale,
            )
            for j in range(m + 1)
        ]
        reduced = [coeffs[0]]
        for k in range(1, m):
            reduced.append((m * coeffs[k] - k * reduced[-1]) / (m - k))
        assert coeffs[m] == reduced[-1], "the degree-(2n - 1) top coefficient must cancel"
        out[:, c] = [float(v) for v in reduced]
    return out


def exact_derivative_norm(curve: RationalBezierCurve, t: float) -> float:
    """|r'(t)| from the curve's control data in exact rational arithmetic.

    With A = sum w_i p_i B_i^n, r' = (A' w - A w') / w^2.  At the dyadic
    t = k / 2^q every basis value is C(m, i) k^i (2^q - k)^(m-i) / 2^(qm),
    so all four sums are exact integers over known powers of two.  Each
    coordinate is rounded once, and their norm is taken by math.hypot.
    """
    n = curve.degree
    k, q = float(t).as_integer_ratio()
    kp, up = [1], [1]
    for _ in range(n):
        kp.append(kp[-1] * k)
        up.append(up[-1] * (q - k))

    def at(coeffs):  # sum c_i B_i^m(t) for the m + 1 integers c_i
        m = len(coeffs) - 1
        return Fraction(sum(comb(m, i) * c * kp[i] * up[m - i] for i, c in enumerate(coeffs)), q**m)

    w, wscale = _common_integers(curve.weights)
    wt, dwt = at(w), n * at([w[i + 1] - w[i] for i in range(n)])
    out = []
    for c in range(curve.dimension):
        p, pscale = _common_integers(curve.points[:, c])
        a = [wi * pi for wi, pi in zip(w, p)]
        da = [a[i + 1] - a[i] for i in range(n)]
        out.append(float((n * at(da) * wt - at(a) * dwt) / (wt * wt * pscale)))
    return math.hypot(*out)


# ---------------------------------------------------------------------------
# Bernstein helpers, the compact (Sederberg) derivative numerator and the
# finite-difference estimate

def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k) as a Python int.

    Raises ValueError for negative arguments or k > n.
    """
    if n < 0 or k < 0:
        raise ValueError(f"binomial arguments must be nonnegative, got n={n}, k={k}")
    if k > n:
        raise ValueError(f"binomial upper index exceeded: k={k} > n={n}")
    return math.comb(n, k)


def bernstein(n: int, i: int, t: float) -> float:
    """Bernstein basis value B_i^n(t) = C(n, i) t^i (1 - t)^(n - i).

    Raises ValueError where C(n, i) exceeds the float range.
    """
    if not 0 <= i <= n:
        raise ValueError(f"basis index out of range: i={i}, n={n}")
    _check_ts([t])
    try:
        coef = float(binomial(n, i))
    except OverflowError:
        raise ValueError(f"binomial({n}, {i}) exceeds the float range") from None
    # Python's float power gives 0.0 ** 0 == 1.0, matching the convention
    return coef * t**i * (1.0 - t) ** (n - i)


def decasteljau(values, t: float):
    """Evaluate one Bernstein coefficient set (scalar or vector rows) at t."""
    arr = np.asarray(values, dtype=np.float64)
    scalar = arr.ndim == 1
    if scalar:
        arr = arr[:, None]
    res = decasteljau_grid(arr, _check_ts([t]))[0]
    return float(res[0]) if scalar else res


def eval_weight(curve: RationalBezierCurve, t: float) -> float:
    """Evaluate the weight function w(t) = sum_i w_i B_i^n(t); always > 0."""
    return decasteljau(curve.weights, t)


def _float_binomials(m: int) -> np.ndarray:
    """C(m, i) for i = 0..m, each rounded once from the exact integer.

    Raises ValueError where one exceeds the float range.
    """
    try:
        return np.array([float(comb(m, i)) for i in range(m + 1)])
    except OverflowError:
        raise ValueError(f"binomial coefficients of degree {m} exceed the float range") from None


def sederberg_terms(curve: RationalBezierCurve) -> np.ndarray:
    """Bernstein coefficients D_i of the compact derivative numerator.

    D_i = (1 / C(2n-2, i)) * sum_j (i - 2j + 1) C(n, j) C(n, i-j+1)
          w_j w_{i-j+1} (p_{i-j+1} - p_j),
    summed over j from max(0, i-n+1) to floor(i/2), for i = 0 .. 2n-2.
    Returns the read-only (2n-1, d) array of the D_i, the degree-(2n-2)
    numerator of r'(t) = sum D_i B_i^{2n-2}(t) / w(t)^2.  Raises
    ValueError when a term leaves the float range.
    """
    n = curve.degree
    if n < 1:
        raise ValueError("derivative of a degree-0 curve (a point) is undefined")
    p = curve.points
    cw = _float_binomials(n) * curve.weights
    terms = np.empty((2 * n - 1, curve.dimension))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(2 * n - 1):
            j = np.arange(max(0, i - n + 1), i // 2 + 1)
            k = i - j + 1
            terms[i] = ((i - 2 * j + 1) * cw[j] * cw[k]) @ (p[k] - p[j])
        terms /= _float_binomials(2 * n - 2)[:, None]
    if not np.isfinite(terms).all():
        raise ValueError(f"Sederberg numerator terms of degree {2 * n - 2} overflow the float range")
    terms.setflags(write=False)
    return terms


def eval_derivative_sederberg(curve: RationalBezierCurve, t: float) -> np.ndarray:
    """Evaluate r'(t) through the compact numerator form."""
    terms = sederberg_terms(curve)
    ts = _check_ts([t])
    w = decasteljau_grid(curve.weights[:, None], ts)[0, 0]
    return decasteljau_grid(terms, ts)[0] / (w * w)


def finite_difference(curve: RationalBezierCurve, t: float, h: float = 1e-6) -> np.ndarray:
    """Second-order finite-difference estimate of r'(t).

    Central difference in the interior; one-sided three-point stencils
    when t - h or t + h would leave [0, 1].
    """
    t = float(_check_ts([t])[0])
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


def random_curve(rng: np.random.Generator, n: int, d: int) -> RationalBezierCurve:
    """Corpus draw: coords uniform in [-10, 10], weights log-uniform in [2^-10, 2^4]."""
    points = rng.uniform(-10.0, 10.0, size=(n + 1, d))
    lo, hi = np.log(2.0**-10), np.log(2.0**4)
    weights = np.exp(rng.uniform(lo, hi, size=n + 1))
    return RationalBezierCurve(points, weights)


# ---------------------------------------------------------------------------
# Degree-11 family member in explicit rational form (1-d values on the x axis)

_R_NUM = np.array([0.0, 256, -1280, 2880, -3840, 3360, -2016, 840, -240, 45, -5, 1]) * 22.0
_R_DEN = np.array([1024.0, -5632, 14080, -21120, 21120, -14784, 7392, -2640, 660, -110, 11, 1])
_DR_Q = np.array(
    [-32.0, 176, -440, 660, -660, 462, -231, 165 / 2, -165 / 8, 55 / 16, -11 / 8, 1]
)


def fixture11_point(t: float) -> float:
    """x coordinate of the degree-11 family curve at t."""
    return np.polynomial.polynomial.polyval(t, _R_NUM) / np.polynomial.polynomial.polyval(
        t, _R_DEN
    )


def fixture11_derivative(t: float) -> float:
    """x coordinate of its first derivative at t."""
    den = np.polynomial.polynomial.polyval(t, _R_DEN)
    return 352.0 * np.polynomial.polynomial.polyval(t, _DR_Q) * (t - 2.0) ** 9 / (den * den)


# Reference sweep values for the bound-violating family, degrees 2..20:
# (measured peak, argmax t, conjectured bound, elevation bound at e=1000).
EXPECTED_TABLE = {
    2: (2.666667, 0.500000, 4.000000, 2.669326),
    3: (4.466444, 0.656248, 6.000000, 4.473876),
    4: (6.464102, 0.732052, 8.000000, 6.478938),
    5: (8.571204, 0.778664, 10.000000, 8.595967),
    6: (10.748531, 0.810729, 12.000000, 10.785651),
    7: (12.974278, 0.834352, 14.000000, 13.026093),
    8: (15.235043, 0.852540, 16.000000, 15.303826),
    9: (17.522048, 0.866991, 18.000000, 17.609929),
    10: (19.829270, 0.878795, 20.000000, 19.938505),
    11: (22.152423, 0.888645, 22.000000, 22.285016),
    12: (24.488370, 0.896975, 24.000000, 24.646413),
    13: (26.834755, 0.904127, 26.000000, 27.020171),
    14: (29.189773, 0.910321, 28.000000, 29.404333),
    15: (31.552017, 0.915748, 30.000000, 31.798333),
    16: (33.920374, 0.920566, 32.000000, 34.199561),
    17: (36.293948, 0.924842, 34.000000, 36.608912),
    18: (38.672013, 0.928682, 36.000000, 39.023699),
    19: (41.053972, 0.932145, 38.000000, 41.445157),
    20: (43.439332, 0.935269, 40.000000, 43.871119),
}
