"""Extreme inputs: every public figure is finite or a ValueError, with no
RuntimeWarning on the way (pytest's `filterwarnings = error` turns one
into a failure)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ratbez import (
    DerivativeForm,
    RationalBezierCurve,
    bound_profile,
    conjecture_bound,
    eval_derivative_explicit_many,
    eval_point,
    maximize_derivative_norm,
    render_plot,
)

# both ends of the float range, subnormals included, beside plain values
COORDS = (0.0, 1.0, -1.0, 3.0, 5e-324, -5e-324, 1e-300, 2.2e-308, 1e300, -1e300, 1.7e308, -1.7e308)
WEIGHTS = (5e-324, 1e-310, 1e-300, 1e-200, 1.0, 1e200, 1e300, 1.7e308)


@st.composite
def points_and_weights(draw):
    """1-4 rows of 1-2 extreme coordinates, and one extreme weight per row."""
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    points = draw(st.lists(st.lists(st.sampled_from(COORDS), min_size=d, max_size=d),
                           min_size=n, max_size=n))
    weights = draw(st.lists(st.sampled_from(WEIGHTS), min_size=n, max_size=n))
    return points, weights


def _finite_or_refused(call, *args):
    """Run `call`; a ValueError is a refusal, anything it returns must be
    finite (a `MaximizerResult` by its peak and bound, a bound profile by
    its bounds, an SVG document by existing)."""
    try:
        value = call(*args)
    except ValueError:
        return
    if isinstance(value, str):
        return
    if hasattr(value, "upper"):
        value = [value.max_value, value.upper]
    elif isinstance(value, list):
        value = [bound for _, bound in value]
    assert np.isfinite(value).all(), (call.__name__, args, value)


@settings(max_examples=400, deadline=None)
@given(points_and_weights(), points_and_weights())
def test_extreme_inputs_give_a_finite_figure_or_a_value_error(form_data, curve_data):
    rows = np.hstack([np.array(form_data[0]), np.array(form_data[1])[:, None]])
    form = DerivativeForm(rows)
    curve = RationalBezierCurve(*curve_data)
    _finite_or_refused(eval_derivative_explicit_many, form, [0.0, 0.25, 0.5, 1.0])
    _finite_or_refused(maximize_derivative_norm, form)
    _finite_or_refused(bound_profile, form, [0, 1, 5, 50])
    _finite_or_refused(maximize_derivative_norm, curve)
    _finite_or_refused(eval_point, curve, 0.5)
    _finite_or_refused(conjecture_bound, curve)
    for kind in ("curve", "derivative_norm"):
        _finite_or_refused(render_plot, kind, curve)
