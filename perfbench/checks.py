"""Checks on the program's outputs, computed apart from ratbez.

Every reference value here comes from direct Bernstein basis sums and the
quotient rule, or from a property the method must have (soundness of a
bound, monotone tightening in e, the paper's "violated exactly for
n >= 11").  Nothing is compared against a stored copy of an earlier
output.  Each check returns a list of messages; an empty list passes.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import numpy as np

# Relative tolerance for comparing two float64 evaluations of the same
# quantity.  The worst disagreement seen between the basis sums below and
# ratbez on random curves is about 1e-15; a value perturbed by 1e-6 must fail.
REL = 1e-9

# Printed values carry 6 decimals ("%.6f"), so they sit within 5e-7.
PRINTED_ABS = 5.1e-7

UNIFORM_SAMPLES = 1001
RANDOM_SAMPLES = 200


def _basis(n: int, ts: np.ndarray) -> np.ndarray:
    i = np.arange(n + 1)
    binom = np.array([math.comb(n, k) for k in range(n + 1)], dtype=np.float64)
    t = ts[:, None]
    return binom * t**i * (1.0 - t) ** (n - i)


def derivative(points, weights, ts) -> np.ndarray:
    """r'(t) at every t, by the quotient rule over direct basis sums.

    r = P / w with P = sum w_i p_i B_i^n and w = sum w_i B_i^n, and
    B_i^n' = n (B_{i-1}^{n-1} - B_i^{n-1}).
    """
    p = np.asarray(points, dtype=np.float64)
    if p.ndim == 1:
        p = p[:, None]
    w = np.asarray(weights, dtype=np.float64)
    ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
    n = w.shape[0] - 1
    basis = _basis(n, ts)
    lower = _basis(n - 1, ts)
    zero = np.zeros((ts.shape[0], 1))
    dbasis = n * (np.hstack([zero, lower]) - np.hstack([lower, zero]))
    wp = w[:, None] * p
    big_w, big_p = basis @ w, basis @ wp
    dw, dp = dbasis @ w, dbasis @ wp
    return (dp * big_w[:, None] - big_p * dw[:, None]) / (big_w * big_w)[:, None]


def derivative_norm(points, weights, ts) -> np.ndarray:
    d = derivative(points, weights, ts)
    return np.sqrt((d * d).sum(axis=1))


def point(points, weights, t: float) -> np.ndarray:
    """r(t) by direct basis sums."""
    p = np.asarray(points, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    b = _basis(w.shape[0] - 1, np.array([float(t)]))[0]
    return (b * w) @ p / (b @ w)


def conjecture_bound(points, weights) -> float:
    """n * (largest adjacent weight ratio, both ways) * (longest leg)."""
    p = np.asarray(points, dtype=np.float64)
    if p.ndim == 1:
        p = p[:, None]
    w = np.asarray(weights, dtype=np.float64)
    ratios = [max(a / b, b / a) for a, b in zip(w[:-1], w[1:])]
    legs = np.sqrt((np.diff(p, axis=0) ** 2).sum(axis=1))
    return (w.shape[0] - 1) * max(ratios) * float(legs.max())


class Reference:
    """The benchmark's own samples of |r'| for one curve.

    Samples sit on a uniform grid of UNIFORM_SAMPLES parameters plus
    RANDOM_SAMPLES parameters drawn from `rng`.
    """

    def __init__(self, points, weights, rng: np.random.Generator):
        self.points = np.asarray(points, dtype=np.float64)
        self.weights = np.asarray(weights, dtype=np.float64)
        ts = np.concatenate([
            np.linspace(0.0, 1.0, UNIFORM_SAMPLES),
            rng.uniform(0.0, 1.0, RANDOM_SAMPLES),
        ])
        self.sample_max = float(derivative_norm(self.points, self.weights, ts).max())
        self.conjecture = conjecture_bound(self.points, self.weights)

    def norm_at(self, t: float) -> float:
        return float(derivative_norm(self.points, self.weights, [t])[0])

    def peak(self, argmax_t: float | None = None) -> float:
        """Largest own sample, including |r'| at a reported argmax."""
        if argmax_t is None:
            return self.sample_max
        return max(self.sample_max, self.norm_at(argmax_t))


def check_peak(ref: Reference, peak: float, argmax_t: float) -> list[str]:
    """The reported peak is |r'(argmax)| and dominates every own sample."""
    errors = []
    if not 0.0 <= argmax_t <= 1.0:
        return [f"argmax t={argmax_t!r} outside [0, 1]"]
    at = ref.norm_at(argmax_t)
    if not abs(at - peak) <= REL * abs(at):
        errors.append(f"peak {peak!r} is not |r'(argmax={argmax_t!r})| = {at!r}")
    if not ref.sample_max <= peak * (1.0 + REL):
        errors.append(f"peak {peak!r} below a sampled |r'| = {ref.sample_max!r}")
    return errors


def check_sound(ref: Reference, bound: float, what: str = "elevation bound") -> list[str]:
    """A sound bound is at least every sampled |r'|."""
    if not bound >= ref.sample_max * (1.0 - REL):
        return [f"{what} {bound!r} below a sampled |r'| = {ref.sample_max!r}"]
    return []


def check_profile(profile) -> list[str]:
    """bound_profile output: strictly increasing e, non-increasing bounds."""
    errors = []
    es = [e for e, _ in profile]
    if any(b <= a for a, b in zip(es, es[1:])):
        errors.append(f"profile step counts not increasing: {es}")
    values = [v for _, v in profile]
    for (e0, a), (e1, b) in zip(profile, profile[1:]):
        if not b <= a * (1.0 + REL):
            errors.append(f"bound rose from {a!r} at e={e0} to {b!r} at e={e1}")
    if not all(math.isfinite(v) for v in values):
        errors.append(f"non-finite bound in profile {values}")
    return errors


def check_conjecture(ref: Reference, value: float) -> list[str]:
    if not abs(value - ref.conjecture) <= 1e-12 * ref.conjecture:
        return [f"conjecture bound {value!r} != recomputed {ref.conjecture!r}"]
    return []


def check_verdict(ref: Reference, verdict: str, argmax_t: float | None = None) -> list[str]:
    """The verdict agrees with comparing the own peak with the own bound."""
    if verdict not in ("holds", "violated"):
        return [f"unknown verdict {verdict!r}"]
    peak = ref.peak(argmax_t)
    expected = "violated" if ref.conjecture < peak else "holds"
    if verdict != expected:
        return [f"verdict {verdict!r}, but own peak {peak!r} vs bound {ref.conjecture!r} gives {expected!r}"]
    return []


def check_form_endpoints(ref: Reference, control_points) -> list[str]:
    """A derivative form's end control points are r'(0) and r'(1)."""
    errors = []
    cp = np.asarray(control_points, dtype=np.float64)
    ends = derivative(ref.points, ref.weights, [0.0, 1.0])
    scale = max(1.0, float(np.abs(ends).max()))
    for got, want, t in ((cp[0], ends[0], 0), (cp[-1], ends[1], 1)):
        if not np.abs(got - want).max() <= REL * scale:
            errors.append(f"form control point at t={t} is {got.tolist()}, r'({t}) = {want.tolist()}")
    return errors


def check_exit(code: int, stderr: str = "") -> list[str]:
    if code != 0:
        return [f"exit code {code}: {stderr.strip()[-300:]}"]
    return []


def check_svg(text: str) -> list[str]:
    """The plot is one well-formed SVG document."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return [f"SVG does not parse: {exc}"]
    if not root.tag.endswith("svg"):
        return [f"root element is {root.tag!r}, not svg"]
    return []


def check_printed_point(ref: Reference, t: float, text: str) -> list[str]:
    """`ratbez eval` prints r(t) with 12 significant digits."""
    try:
        got = np.array([float(v) for v in text.split()])
    except ValueError:
        return [f"eval printed {text!r}"]
    want = point(ref.points, ref.weights, t)
    scale = max(1.0, float(np.abs(ref.points).max()))
    if got.shape != want.shape or not np.abs(got - want).max() <= 1e-11 * scale:
        return [f"eval printed {got.tolist()}, own r({t}) = {want.tolist()}"]
    return []


def check_printed_peak(ref: Reference, peak: float, argmax_t: float) -> list[str]:
    """`ratbez maximize` output, within its printed precision.

    t is printed to 6 decimals, so the peak is compared with |r'| over
    t +- 5e-7, sampled densely enough that a sharp peak inside that
    interval is not missed.
    """
    if not 0.0 <= argmax_t <= 1.0:
        return [f"argmax t={argmax_t!r} outside [0, 1]"]
    near = derivative_norm(
        ref.points, ref.weights,
        np.clip(np.linspace(argmax_t - 5e-7, argmax_t + 5e-7, 201), 0.0, 1.0),
    )
    errors = []
    if not near.min() - PRINTED_ABS - REL * peak <= peak <= near.max() + PRINTED_ABS + REL * peak:
        errors.append(f"printed peak {peak!r} is not |r'| near t={argmax_t!r}: "
                      f"[{near.min()!r}, {near.max()!r}]")
    if not ref.sample_max <= peak + PRINTED_ABS + REL * peak:
        errors.append(f"printed peak {peak!r} below a sampled |r'| = {ref.sample_max!r}")
    return errors
