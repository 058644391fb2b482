"""The README's `## Library` example runs and gives the figures its
comments state."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def _run(block: str):
    """Run the block; return its namespace and the value of each expression
    statement, keyed by the statement's source."""
    namespace, values = {}, {}
    for stmt in ast.parse(block).body:
        source = ast.get_source_segment(block, stmt)
        if isinstance(stmt, ast.Expr):
            values[source] = eval(source, namespace)
        else:
            exec(source, namespace)
    return namespace, values


def _agrees(value: float, figure: str) -> bool:
    """`value` matches `figure` ("22.285016...") to its last written digit."""
    digits = figure.rstrip(".")
    places = len(digits.partition(".")[2])
    return abs(value - float(digits)) < 10.0 ** -places


def test_library_example_gives_its_commented_figures():
    block = _library_block()
    namespace, values = _run(block)
    # each line's code, stripped, against its comment
    comments = {code.strip(): comment for code, _, comment in
                (line.partition("#") for line in block.splitlines())}
    res = namespace["res"]
    upper, pieces = values["res.upper, res.pieces"]
    assert values["eval_point(curve, 0.5)"].shape == (2,)
    assert namespace["form"].degree == 22 and "degree-22" in comments["form = build_derivative_form(curve)"]
    figures = [
        ("conjecture_bound(curve)", values["conjecture_bound(curve)"], "22.0"),
        ("elevation_bound(form, e=1000)", values["elevation_bound(form, e=1000)"], "22.285016..."),
        ("res = maximize_derivative_norm(form)", res.max_value, "22.152423..."),
        ("res = maximize_derivative_norm(form)", res.argmax_t, "0.888645..."),
        ("res.upper, res.pieces", upper, "22.152423..."),
    ]
    for line, value, figure in figures:
        assert type(value) is float
        assert figure in comments[line]
        assert _agrees(value, figure), f"{line}: {value!r} does not read as {figure}"
    assert pieces == 19 and comments["res.upper, res.pieces"].rstrip().endswith(", 19")
