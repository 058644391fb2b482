"""The README's `## Library` example runs and gives the figures its
comments state, and every command of its `## CLI` block runs."""

import ast
import contextlib
import io
import shlex
from pathlib import Path

from ratbez.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str, fence: str) -> str:
    """The first `fence` code block under the `## heading` section."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{fence}\n", 1)[1].split("\n```", 1)[0]


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
    block = _block("Library", "python")
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


def test_cli_block_runs(tmp_path, monkeypatch):
    (tmp_path / "curve.json").write_text(_block("CLI", "json") + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line, comments=True) for line in _block("CLI", "sh").splitlines()]
    assert commands and all(argv[0] == "ratbez" for argv in commands)
    printed = {}
    for argv in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv[1:]) == 0, argv
        printed[argv[1]] = out.getvalue().strip()
    assert printed["table1"] == "10 violations (n = 11..20)"
    assert "such as `10 violations (n = 11..20)`" in README.read_text(encoding="utf-8")
