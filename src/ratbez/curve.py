"""Rational Bezier curves and Bernstein-form plumbing.

A rational Bezier curve of degree n is

    r(t) = sum_i w_i p_i B_i^n(t) / sum_i w_i B_i^n(t),   t in [0, 1],

with control points p_i, positive weights w_i, and the Bernstein basis
B_i^n(t) = C(n, i) t^i (1 - t)^(n - i) (with 0^0 = 1).  All evaluation
goes through the de Casteljau recurrence; the curve is evaluated in
homogeneous form (w_i p_i, w_i) with a single division at the end, so
the endpoints are reproduced exactly.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from ._kernels import decasteljau_grid, elevate_chain


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
    _check_t(t)
    try:
        coef = float(binomial(n, i))
    except OverflowError:
        raise ValueError(f"binomial({n}, {i}) exceeds the float range") from None
    # Python's float power gives 0.0 ** 0 == 1.0, matching the convention
    return coef * t**i * (1.0 - t) ** (n - i)


def _check_t(t: float) -> float:
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"parameter t={t} outside [0, 1]")
    return t


def decasteljau(values, t: float):
    """Evaluate one Bernstein coefficient set (scalar or vector rows) at t."""
    arr = np.asarray(values, dtype=np.float64)
    scalar = arr.ndim == 1
    if scalar:
        arr = arr[:, None]
    res = decasteljau_grid(arr, np.array([_check_t(t)]))[0]
    return float(res[0]) if scalar else res


@dataclass(frozen=True)
class BernsteinCoefficients:
    """A polynomial (or vector of polynomials) in Bernstein form.

    `coefficients` holds degree + 1 rows; each row is a scalar or a
    point.  Instances are immutable.
    """

    degree: int
    coefficients: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coefficients, dtype=np.float64)
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        if arr.shape[0] != self.degree + 1:
            raise ValueError(
                f"length mismatch: degree {self.degree} needs "
                f"{self.degree + 1} coefficients, got {arr.shape[0]}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "coefficients", arr)

    @classmethod
    def from_values(cls, values) -> "BernsteinCoefficients":
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape[0] < 1:
            raise ValueError("empty coefficient list")
        return cls(arr.shape[0] - 1, arr)

    def evaluate(self, t: float):
        return decasteljau(self.coefficients, t)


def elevate_once(coeffs: BernsteinCoefficients) -> BernsteinCoefficients:
    """Raise the Bernstein degree by one without changing the function.

    The new coefficients are c'_0 = c_0, c'_{m+1} = c_m and
    c'_i = (i / (m+1)) c_{i-1} + (1 - i / (m+1)) c_i in between.
    """
    arr = np.asarray(coeffs.coefficients, dtype=np.float64)
    if arr.shape[0] < 1:
        raise ValueError("empty coefficient list")
    scalar = arr.ndim == 1
    work = arr[:, None] if scalar else arr
    out = elevate_chain(work, 1)
    return BernsteinCoefficients(coeffs.degree + 1, out[:, 0] if scalar else out)


@dataclass(frozen=True)
class RationalBezierCurve:
    """Immutable rational Bezier curve: control points plus positive weights.

    `points` is coerced to a (degree + 1, dimension) float array and
    `weights` to a matching 1-d array.  Structural problems (ragged
    points, wrong shapes) raise at construction; value-level problems
    (nonpositive weights, non-finite entries) are reported by
    `validate`, which every operation checks first.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        try:
            pts = np.array(self.points, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"points must form a rectangular numeric array: {exc}") from None
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise ValueError(f"points must be 2-d, got shape {pts.shape}")
        try:
            wts = np.array(self.weights, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"weights must be numeric: {exc}") from None
        if wts.ndim != 1:
            raise ValueError(f"weights must be 1-d, got shape {wts.shape}")
        pts.setflags(write=False)
        wts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    @property
    def degree(self) -> int:
        return self.points.shape[0] - 1

    @property
    def dimension(self) -> int:
        return self.points.shape[1]


def validate(curve: RationalBezierCurve) -> list[str]:
    """Return a list of problems with the curve; empty means usable."""
    errors: list[str] = []
    npts = curve.points.shape[0]
    nwts = curve.weights.shape[0]
    if npts == 0:
        errors.append("curve has no control points")
        return errors
    if npts != nwts:
        errors.append(f"length mismatch: {npts} points vs {nwts} weights")
    if curve.points.shape[1] == 0:
        errors.append("points have zero dimension")
    for i, w in enumerate(curve.weights):
        if not np.isfinite(w):
            errors.append(f"non-finite weight at index {i}")
        elif w <= 0.0:
            errors.append(f"nonpositive weight at index {i}")
    bad = np.nonzero(~np.isfinite(curve.points).all(axis=1))[0]
    for i in bad:
        errors.append(f"non-finite coordinate in point {i}")
    return errors


def require_valid(curve: RationalBezierCurve) -> None:
    errors = validate(curve)
    if errors:
        raise ValueError("; ".join(errors))


def eval_weight(curve: RationalBezierCurve, t: float) -> float:
    """Evaluate the weight function w(t) = sum_i w_i B_i^n(t); always > 0."""
    require_valid(curve)
    _check_t(t)
    return decasteljau(curve.weights, t)


def eval_point(curve: RationalBezierCurve, t: float) -> np.ndarray:
    """Evaluate the curve point r(t) via homogeneous de Casteljau."""
    require_valid(curve)
    t = _check_t(t)
    if t == 0.0:
        return curve.points[0].copy()
    if t == 1.0:
        return curve.points[-1].copy()
    hom = np.hstack([curve.points * curve.weights[:, None], curve.weights[:, None]])
    h = decasteljau(hom, t)
    return h[:-1] / h[-1]


# ---------------------------------------------------------------------------
# JSON interchange: {"degree": n, "points": [[...], ...], "weights": [...]}

def curve_to_json_obj(curve: RationalBezierCurve) -> dict:
    return {
        "degree": curve.degree,
        "points": curve.points.tolist(),
        "weights": curve.weights.tolist(),
    }


def curve_from_json_obj(obj) -> RationalBezierCurve:
    """Build a curve from a parsed JSON object, checking the layout."""
    if not isinstance(obj, dict):
        raise ValueError("curve JSON must be an object")
    missing = [key for key in ("degree", "points", "weights") if key not in obj]
    if missing:
        raise ValueError(f"curve JSON missing keys: {', '.join(missing)}")
    degree = obj["degree"]
    if not isinstance(degree, int) or isinstance(degree, bool):
        raise ValueError("degree must be an integer")
    points = obj["points"]
    weights = obj["weights"]
    if not isinstance(points, list) or not isinstance(weights, list):
        raise ValueError("points and weights must be arrays")
    curve = RationalBezierCurve(points, weights)
    if curve.degree != degree:
        raise ValueError(
            f"length mismatch: degree {degree} but {len(points)} points"
        )
    return curve


def load_curve(path: str) -> RationalBezierCurve:
    """Read a curve from a JSON file, or from stdin when path is '-'."""
    try:
        if path == "-":
            obj = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}") from None
    return curve_from_json_obj(obj)


def save_curve(curve: RationalBezierCurve, path: str) -> None:
    """Write a curve as JSON; floats round-trip bitwise."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(curve_to_json_obj(curve), fh, indent=2)
        fh.write("\n")
