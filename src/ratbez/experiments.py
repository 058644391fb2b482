"""Stress-testing the conjectured derivative bound.

The curves studied here have collinear unit-spaced control points
p_i = (i, 0) and geometrically decaying weights w_i = 2^-i except for
the last one, which is lifted to 2^-(n-2).  Every adjacent weight ratio
is then exactly 2, so the conjectured bound equals 2n, while the actual
derivative peak grows past it once the degree reaches 11.

`run_table1` reproduces the full comparison table (degrees 2..20 by
default): measured peak, its location, the conjectured bound, the
elevation bound, the elevation runtime, and a holds/violated verdict.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, fields

from .bounds import _integer, conjecture_bound, elevation_bound
from .curve import RationalBezierCurve
from .derivative import build_derivative_form
from .maximize import maximize_derivative_norm


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


def _verdict(text: str) -> str:
    if text not in ("holds", "violated"):
        raise ValueError(f"verdict must be 'holds' or 'violated', got {text!r}")
    return text


# the header of the results-table CSV: one column per Table1Row field, in order
CSV_COLUMNS = ["n", "max_deriv", "t", "conjecture", "elevation_bound", "e", "runtime_s", "verdict"]
# how a cell is written and read, by the Table1Row field's annotation (a
# string under `from __future__ import annotations`; the verdict is the one str)
_WRITERS = {"int": str, "float": "{:.6f}".format, "str": str}
_PARSERS = {"int": int, "float": _finite, "str": _verdict}


@dataclass(frozen=True, slots=True)
class Table1Row:
    """One degree's comparison of measured peak against both bounds.

    `runtime_seconds` is the wall time of the elevation bound alone; the
    form build, the maximizer and the conjectured bound are not counted.
    """

    degree: int
    max_first_derivative: float
    argmax_t: float
    conjectured_bound: float
    elevation_bound: float
    elevation_steps: int
    runtime_seconds: float
    verdict: str


def counterexample_family(n: int) -> RationalBezierCurve:
    """Degree-n member of the bound-violating family (needs n >= 2).

    Points (0,0), (1,0), ..., (n,0); weights 2^0, 2^-1, ..., 2^-(n-1)
    with the final weight raised to 2^-(n-2).  Raises ValueError unless n
    is a Python or numpy integer of at least 2.
    """
    n = _integer(n, "degree")
    if n < 2:
        raise ValueError("family members need degree at least 2")
    weights = [2.0 ** -i for i in range(n)] + [2.0 ** -(n - 2)]
    points = [(float(i), 0.0) for i in range(n + 1)]
    return RationalBezierCurve(points, weights)


def table1_row(n: int, e: int = 1000) -> Table1Row:
    """Compute one comparison row for the degree-n family member.

    The derivative form is built once and serves both the maximizer and
    the elevation bound.  `runtime_seconds` times only the elevation-bound
    computation.
    """
    curve = counterexample_family(n)
    form = build_derivative_form(curve)
    peak = maximize_derivative_norm(form)
    conj = conjecture_bound(curve)
    start = time.perf_counter()
    elev = elevation_bound(form, e)
    runtime = time.perf_counter() - start
    verdict = "violated" if conj - peak.max_value < 0.0 else "holds"
    return Table1Row(
        degree=curve.degree,
        max_first_derivative=peak.max_value,
        argmax_t=peak.argmax_t,
        conjectured_bound=conj,
        elevation_bound=elev,
        elevation_steps=e,
        runtime_seconds=runtime,
        verdict=verdict,
    )


def run_table1(n_min: int = 2, n_max: int = 20, e: int = 1000) -> list[Table1Row]:
    """Comparison rows for every degree in [n_min, n_max].

    Forms build through n = 1016; past it a row fails with ValueError,
    which names the degree.  Raises ValueError unless both ends are
    Python or numpy integers with 2 <= n_min <= n_max.
    """
    n_min, n_max = _integer(n_min, "degree"), _integer(n_max, "degree")
    if not 2 <= n_min <= n_max:
        raise ValueError(f"degree range must satisfy 2 <= n_min <= n_max, got [{n_min}, {n_max}]")
    rows = []
    for n in range(n_min, n_max + 1):
        try:
            rows.append(table1_row(n, e=e))
        except ValueError as exc:
            raise ValueError(f"table row for degree {n} failed: {exc}") from exc
    return rows


def rows_to_csv(rows: list[Table1Row]) -> str:
    """Render rows as CSV with six-decimal floats and a fixed header."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_WRITERS[f.type](getattr(row, f.name)) for f in fields(Table1Row)])
    return buf.getvalue()


def write_table1_csv(rows: list[Table1Row], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(rows_to_csv(rows))


def read_table1_csv(path: str) -> list[Table1Row]:
    """Parse a CSV produced by `write_table1_csv`; strict about the header."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != CSV_COLUMNS:
                raise ValueError(f"not a results-table CSV: header {header}")
            rows = []
            for record in reader:
                try:
                    if len(record) != len(CSV_COLUMNS):
                        raise ValueError(f"bad CSV record: {record}")
                    rows.append(Table1Row(*(_PARSERS[f.type](value)
                                            for f, value in zip(fields(Table1Row), record))))
                except ValueError as exc:
                    raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    if not rows:
        raise ValueError(f"no data rows in {path}")
    return rows
