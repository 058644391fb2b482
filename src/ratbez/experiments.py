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
import time
from dataclasses import dataclass

from .bounds import conjecture_bound, elevation_bound
from .curve import RationalBezierCurve
from .derivative import build_derivative_form
from .maximize import maximize_derivative_norm

CSV_COLUMNS = ["n", "max_deriv", "t", "conjecture", "elevation_bound", "e", "runtime_s", "verdict"]


@dataclass(frozen=True)
class Table1Row:
    """One degree's comparison of measured peak against both bounds."""

    degree: int
    max_first_derivative: float
    argmax_t: float
    conjectured_bound: float
    elevation_bound: float
    elevation_steps: int
    runtime_seconds: float
    verdict: str


@dataclass(frozen=True)
class VerdictRecord:
    """Outcome of checking the conjectured bound on one curve."""

    verdict: str
    margin: float


def counterexample_family(n: int) -> RationalBezierCurve:
    """Degree-n member of the bound-violating family (needs n >= 2).

    Points (0,0), (1,0), ..., (n,0); weights 2^0, 2^-1, ..., 2^-(n-1)
    with the final weight raised to 2^-(n-2).
    """
    if n < 2:
        raise ValueError("family members need degree at least 2")
    weights = [2.0 ** -i for i in range(n)] + [2.0 ** -(n - 2)]
    points = [(float(i), 0.0) for i in range(n + 1)]
    return RationalBezierCurve(points, weights)


def conjecture_verdict(curve: RationalBezierCurve, tol: float = 1e-10) -> VerdictRecord:
    """Compare the measured derivative peak against the conjectured bound.

    margin = bound - measured peak; negative margin means "violated".
    """
    peak = maximize_derivative_norm(curve, tol=tol)
    bound = conjecture_bound(curve)
    margin = bound.value - peak.max_value
    return VerdictRecord("violated" if margin < 0.0 else "holds", margin)


def table1_row(n: int, e: int = 1000, tol: float = 1e-10) -> Table1Row:
    """Compute one comparison row for the degree-n family member.

    `runtime_seconds` times only the elevation-bound computation.
    """
    curve = counterexample_family(n)
    peak = maximize_derivative_norm(curve, tol=tol)
    conj = conjecture_bound(curve)
    form = build_derivative_form(curve)
    start = time.perf_counter()
    elev = elevation_bound(form, e)
    runtime = time.perf_counter() - start
    verdict = "violated" if conj.value - peak.max_value < 0.0 else "holds"
    return Table1Row(
        degree=n,
        max_first_derivative=peak.max_value,
        argmax_t=peak.argmax_t,
        conjectured_bound=conj.value,
        elevation_bound=elev.value,
        elevation_steps=e,
        runtime_seconds=runtime,
        verdict=verdict,
    )


def run_table1(
    n_min: int = 2,
    n_max: int = 20,
    e: int = 1000,
    tol: float = 1e-10,
) -> list[Table1Row]:
    """Comparison rows for every degree in [n_min, n_max]; forms build up to 514."""
    if not 2 <= n_min <= n_max <= 514:
        raise ValueError(f"degree range must satisfy 2 <= n_min <= n_max <= 514, got [{n_min}, {n_max}]")
    rows = []
    for n in range(n_min, n_max + 1):
        try:
            rows.append(table1_row(n, e=e, tol=tol))
        except Exception as exc:
            raise RuntimeError(f"table row for degree {n} failed: {exc}") from exc
    return rows


def rows_to_csv(rows: list[Table1Row]) -> str:
    """Render rows as CSV with six-decimal floats and a fixed header."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([
            str(row.degree),
            f"{row.max_first_derivative:.6f}",
            f"{row.argmax_t:.6f}",
            f"{row.conjectured_bound:.6f}",
            f"{row.elevation_bound:.6f}",
            str(row.elevation_steps),
            f"{row.runtime_seconds:.6f}",
            row.verdict,
        ])
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
                if len(record) != len(CSV_COLUMNS):
                    raise ValueError(f"bad CSV record: {record}")
                rows.append(Table1Row(
                    degree=int(record[0]),
                    max_first_derivative=float(record[1]),
                    argmax_t=float(record[2]),
                    conjectured_bound=float(record[3]),
                    elevation_bound=float(record[4]),
                    elevation_steps=int(record[5]),
                    runtime_seconds=float(record[6]),
                    verdict=record[7],
                ))
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    if not rows:
        raise ValueError(f"no data rows in {path}")
    return rows
