"""Command-line interface.

Subcommands: eval (curve point), bound (conjecture or elevation bound),
maximize (derivative-magnitude peak), table1 (degree sweep of the
bound-violating family, written as CSV), and plot (SVG charts).

Exit codes: 0 on success, 2 for bad input (files, JSON, parameters),
3 when writing an output file fails.
"""

from __future__ import annotations

import argparse
import sys

from .bounds import conjecture_bound, elevation_bound
from .curve import eval_point, load_curve
from .derivative import build_derivative_form
from .experiments import read_table1_csv, run_table1, write_table1_csv
from .maximize import maximize_derivative_norm
from .svgplot import CURVE_KINDS, PLOT_KINDS, write_plot


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratbez",
        description="rational Bezier curves: evaluation, derivative bounds, experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="print the curve point r(t)")
    p.add_argument("curve", help="curve JSON file, or - for stdin")
    p.add_argument("t", type=float, help="parameter in [0, 1]")

    p = sub.add_parser("bound", help="print a derivative bound")
    p.add_argument("curve", help="curve JSON file, or - for stdin")
    p.add_argument(
        "--method", choices=["conjecture", "elevation"], default="conjecture",
        help="which bound to compute (default conjecture)",
    )
    p.add_argument("--e", type=int, default=1000, help="elevation steps (default 1000)")

    p = sub.add_parser("maximize", help="locate the derivative-magnitude peak")
    p.add_argument("curve", help="curve JSON file, or - for stdin")

    p = sub.add_parser("table1", help="bound-violation sweep over the curve family")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=20)
    p.add_argument("--e", type=int, default=1000, help="elevation steps (default 1000)")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("plot", help="render an SVG chart")
    p.add_argument("input", help="curve JSON (curve kinds) or results CSV (table kinds)")
    p.add_argument("--kind", required=True, choices=list(PLOT_KINDS))
    p.add_argument("--out", required=True, help="output SVG path")
    p.add_argument("--samples", type=int, default=512)
    p.add_argument("--overlay-bound", type=float, default=None)

    return parser


def cmd_eval(args) -> int:
    curve = load_curve(args.curve)
    point = eval_point(curve, args.t)
    print(" ".join(f"{v:.12g}" for v in point))
    return 0


def cmd_bound(args) -> int:
    curve = load_curve(args.curve)
    # both bounds are Euclidean; the printed "p=2" keeps the line's format
    if args.method == "conjecture":
        report = conjecture_bound(curve)
        print(f"conjecture bound: {report.value:.6f} (weight ratio {report.weight_ratio:.6g}, p=2)")
    else:
        report = elevation_bound(build_derivative_form(curve), args.e)
        print(f"elevation bound: {report.value:.6f} (e={args.e}, p=2)")
    return 0


def cmd_maximize(args) -> int:
    curve = load_curve(args.curve)
    result = maximize_derivative_norm(curve)
    print(f"{result.max_value:.6f} @ t={result.argmax_t:.6f}")
    return 0


def cmd_table1(args) -> int:
    rows = run_table1(args.n_min, args.n_max, e=args.e)
    write_table1_csv(rows, args.out)
    violated = [r.degree for r in rows if r.verdict == "violated"]
    if not violated:
        print("0 violations")
    else:
        contiguous = violated == list(range(violated[0], violated[-1] + 1))
        span = (
            f"n = {violated[0]}..{violated[-1]}"
            if contiguous and len(violated) > 1
            else "n = " + ", ".join(str(n) for n in violated)
        )
        print(f"{len(violated)} violation{'' if len(violated) == 1 else 's'} ({span})")
    return 0


def cmd_plot(args) -> int:
    if args.kind in CURVE_KINDS:
        source = {"curve": load_curve(args.input)}
    else:
        source = {"rows": read_table1_csv(args.input)}
    write_plot(args.kind, args.out, samples=args.samples, overlay_bound=args.overlay_bound, **source)
    return 0


_COMMANDS = {
    "eval": cmd_eval,
    "bound": cmd_bound,
    "maximize": cmd_maximize,
    "table1": cmd_table1,
    "plot": cmd_plot,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())
