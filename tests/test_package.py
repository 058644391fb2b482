"""The package's public names."""

import ratbez

PUBLIC_NAMES = [
    "DerivativeForm",
    "MaximizerResult",
    "RationalBezierCurve",
    "Table1Row",
    "__version__",
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
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(ratbez.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(ratbez, name) is not None, name
