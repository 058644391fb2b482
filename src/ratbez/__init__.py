"""Rational Bezier curves: evaluation, closed-form first derivatives,
derivative-magnitude bounds, and bound-violation experiments."""

from .bounds import (
    bound_profile,
    conjecture_bound,
    elevation_bound,
    weight_ratio,
)
from .curve import (
    RationalBezierCurve,
    curve_from_json_obj,
    curve_to_json_obj,
    eval_point,
    load_curve,
    save_curve,
)
from .derivative import (
    DerivativeForm,
    build_derivative_form,
    eval_derivative_explicit,  # not in __all__: perfbench/test_checks.py calls it
    eval_derivative_explicit_many,
)
from .experiments import (
    Table1Row,
    counterexample_family,
    read_table1_csv,
    run_table1,
    table1_row,
    write_table1_csv,
)
from .maximize import MaximizerResult, maximize_derivative_norm
from .svgplot import render_plot

__version__ = "0.1.0"

__all__ = [
    "DerivativeForm",
    "MaximizerResult",
    "RationalBezierCurve",
    "Table1Row",
    "bound_profile",
    "build_derivative_form",
    "conjecture_bound",
    "counterexample_family",
    "curve_from_json_obj",
    "curve_to_json_obj",
    "elevation_bound",
    "eval_derivative_explicit_many",
    "eval_point",
    "load_curve",
    "maximize_derivative_norm",
    "read_table1_csv",
    "render_plot",
    "run_table1",
    "save_curve",
    "table1_row",
    "weight_ratio",
    "write_table1_csv",
    "__version__",
]
