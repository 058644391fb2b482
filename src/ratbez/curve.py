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
import sys
from dataclasses import dataclass

import numpy as np

from ._kernels import decasteljau_grid


def _check_ts(ts) -> np.ndarray:
    """`ts` as a float array; ValueError unless it is 1-d and every t is in
    [0, 1]."""
    ts = np.asarray(ts, dtype=np.float64)
    if ts.ndim != 1:
        raise ValueError(f"parameters must form a 1-d array, got shape {ts.shape}")
    outside = ~((ts >= 0.0) & (ts <= 1.0))
    if outside.any():
        raise ValueError(f"parameter t={ts[outside][0]} outside [0, 1]")
    return ts


def _rational(rows: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """The rational curve of the homogeneous `rows` (point | weight) at every
    checked t in `ts`: one grid evaluation, one division."""
    h = decasteljau_grid(rows, ts)
    return h[:, :-1] / h[:, -1:]


def _problems(points: np.ndarray, weights: np.ndarray) -> list[str]:
    """Every reason the coerced arrays do not form a usable curve."""
    npts, nwts = points.shape[0], weights.shape[0]
    if npts == 0:
        return ["curve has no control points"]
    errors = []
    if npts != nwts:
        errors.append(f"length mismatch: {npts} points vs {nwts} weights")
    if points.shape[1] == 0:
        errors.append("points have zero dimension")
    finite = np.isfinite(points).all(axis=1)
    if not (((weights > 0.0) & (weights < np.inf)).all() and finite.all()):
        errors += [f"{'non-finite' if not np.isfinite(w) else 'nonpositive'} weight at index {i}"
                   for i, w in enumerate(weights) if not 0.0 < w < np.inf]
        errors += [f"non-finite coordinate in point {i}" for i in np.flatnonzero(~finite)]
    return errors


@dataclass(frozen=True, slots=True)
class RationalBezierCurve:
    """Immutable rational Bezier curve: control points plus positive weights.

    `points` is coerced to a (degree + 1, dimension) float array and
    `weights` to a matching 1-d array.  Construction raises ValueError,
    listing every problem, unless there is at least one point of positive
    dimension, one weight per point, every weight is finite and positive
    and every coordinate finite; so every curve that exists is usable.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        try:
            pts = np.array(self.points, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"points must form a rectangular numeric array: {exc}") from None
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise ValueError(f"points must be 2-d, got shape {pts.shape}")
        try:
            wts = np.array(self.weights, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"weights must be numeric: {exc}") from None
        if wts.ndim != 1:
            raise ValueError(f"weights must be 1-d, got shape {wts.shape}")
        errors = _problems(pts, wts)
        if errors:
            raise ValueError("; ".join(errors))
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

    def homogeneous(self) -> np.ndarray:
        """The rows (w_i p_i | w_i) for rational evaluation.

        The weights are first scaled by the power of two that brings the
        largest into [1/2, 1), so w_i p_i cannot overflow; the scaling is
        exact, and the curve it defines is the same.  Where the weights span
        more than the normal range, the scale stops where the smallest
        weight would leave it.
        """
        w = self.weights
        w = np.ldexp(w, -min(np.frexp(w.max())[1], np.frexp(w.min())[1] + 1021))[:, None]
        return np.hstack([self.points * w, w])


def eval_point(curve: RationalBezierCurve, t: float) -> np.ndarray:
    """Evaluate the curve point r(t) via homogeneous de Casteljau."""
    ts = _check_ts([float(t)])
    if ts[0] == 0.0:
        return curve.points[0].copy()
    if ts[0] == 1.0:
        return curve.points[-1].copy()
    return _rational(curve.homogeneous(), ts)[0]


# ---------------------------------------------------------------------------
# JSON interchange: {"degree": n, "points": [[...], ...], "weights": [...]}

def curve_to_json_obj(curve: RationalBezierCurve) -> dict:
    return {
        "degree": curve.degree,
        "points": curve.points.tolist(),
        "weights": curve.weights.tolist(),
    }


def _numbers_only(value) -> bool:
    """Whether every leaf of the nested lists `value` is a JSON number: an
    int or a float, never a bool."""
    if isinstance(value, list):
        return all(_numbers_only(item) for item in value)
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def curve_from_json_obj(obj) -> RationalBezierCurve:
    """Build a curve from a parsed JSON object, checking the layout; every
    coordinate and weight must be a JSON number."""
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
    if not (_numbers_only(points) and _numbers_only(weights)):
        raise ValueError("points and weights must hold JSON numbers only")
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
