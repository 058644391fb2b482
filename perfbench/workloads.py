"""The three workloads: inputs made from the seed, one operation each, and
the checks on each output.

A workload holds a pool of rounds.  A run repeats whole rounds, round r
being `rounds[r % len(rounds)]`, so every run does the same operations in
the same proportions whatever its seed and length.  The seed decides the
inputs (CLI curves, elevation degrees) and the random sample points of
the checks; the program receives only the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

import checks

E_TABLE = 1000
E_PROFILE = [1000, 2000, 4000, 8000]
TABLE1_DEGREES = range(2, 21)
ELEVATION_BANDS = [(2, 8), (9, 15), (16, 22), (23, 30)]
ELEVATION_POOL_ROUNDS = 4
CLI_CURVES = 5
CLI_DEGREE = 6
CLI_ENTRY = "from ratbez.cli import run; run()"


@dataclass
class Item:
    """One operation's input."""

    key: str
    points: np.ndarray
    weights: np.ndarray
    extra: dict = field(default_factory=dict)


def family(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The paper's degree-n curve: points (i, 0), weights 2^-i, last 2^-(n-2)."""
    points = np.array([[float(i), 0.0] for i in range(n + 1)])
    weights = np.array([2.0 ** -i for i in range(n)] + [2.0 ** -(n - 2)])
    return points, weights


def random_curve(rng: np.random.Generator, degree: int, dim: int):
    """Coordinates uniform in [-10, 10], weights log-uniform in 2^-10..2^4."""
    points = rng.uniform(-10.0, 10.0, (degree + 1, dim))
    weights = 2.0 ** rng.uniform(-10.0, 4.0, degree + 1)
    return points, weights


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.rounds: list[list[Item]] = []
        self._refs: dict[str, checks.Reference] = {}

    def reference(self, item: Item) -> checks.Reference:
        ref = self._refs.get(item.key)
        if ref is None:
            rng = np.random.default_rng([self.seed, len(self._refs)])
            ref = self._refs[item.key] = checks.Reference(item.points, item.weights, rng)
        return ref

    @property
    def warmup(self) -> Item:
        return self.rounds[0][0]

    def op(self, item: Item):
        raise NotImplementedError

    def check(self, item: Item, out) -> list[str]:
        raise NotImplementedError

    def gap(self, item: Item, out) -> float | None:
        """Sound bound at e = 1000 over the own peak, minus 1, if the op made one."""
        return None


class Table1(Workload):
    """table1_row(n, e=1000) for n = 2..20, in order."""

    name = "table1"

    def __init__(self, seed: int):
        super().__init__(seed)
        import ratbez
        self.ratbez = ratbez
        self.rounds = [[Item(f"n{n}", *family(n), {"n": n}) for n in TABLE1_DEGREES]]

    def op(self, item):
        return self.ratbez.table1_row(item.extra["n"], e=E_TABLE)

    def check(self, item, row):
        n = item.extra["n"]
        ref = self.reference(item)
        errors = checks.check_peak(ref, row.max_first_derivative, row.argmax_t)
        errors += checks.check_conjecture(ref, row.conjectured_bound)
        if row.conjectured_bound != 2 * n:
            errors.append(f"family bound {row.conjectured_bound!r} != 2n = {2 * n}")
        errors += checks.check_sound(ref, row.elevation_bound)
        if row.elevation_steps != E_TABLE:
            errors.append(f"row reports e={row.elevation_steps}, asked {E_TABLE}")
        expected = "violated" if n >= 11 else "holds"
        if row.verdict != expected:
            errors.append(f"verdict {row.verdict!r} at n={n}; the paper's finding is {expected!r}")
        errors += checks.check_verdict(ref, row.verdict, row.argmax_t)
        return [f"n={n}: {e}" for e in errors]

    def gap(self, item, row):
        return row.elevation_bound / self.reference(item).peak(row.argmax_t) - 1.0


class Elevation(Workload):
    """build_derivative_form and bound_profile(form, [1000, 2000, 4000,
    8000]) for one family member.  A round takes one degree from each of
    four bands spanning 2..30."""

    name = "elevation"

    def __init__(self, seed: int):
        super().__init__(seed)
        import ratbez
        self.ratbez = ratbez
        rng = np.random.default_rng(seed)
        for _ in range(ELEVATION_POOL_ROUNDS):
            row = []
            for lo, hi in ELEVATION_BANDS:
                n = int(rng.integers(lo, hi + 1))
                points, weights = family(n)
                item = Item(f"n{n}", points, weights, {"n": n})
                item.extra["curve"] = ratbez.RationalBezierCurve(points, weights)
                row.append(item)
            self.rounds.append(row)

    def op(self, item):
        form = self.ratbez.build_derivative_form(item.extra["curve"])
        return form, self.ratbez.bound_profile(form, E_PROFILE)

    def check(self, item, out):
        form, profile = out
        ref = self.reference(item)
        errors = checks.check_profile(profile)
        if [e for e, _ in profile] != E_PROFILE:
            errors.append(f"profile steps {[e for e, _ in profile]} != {E_PROFILE}")
        for e, value in profile:
            errors += checks.check_sound(ref, value, f"bound at e={e}")
        errors += checks.check_form_endpoints(ref, form.control_points)
        return [f"{item.key}: {e}" for e in errors]

    def gap(self, item, out):
        return out[1][0][1] / self.reference(item).peak() - 1.0


class Cli(Workload):
    """One `ratbez` call per operation, cycling through eval, bound, bound
    --method elevation, maximize and plot --kind derivative_norm; a round
    is the five commands on one curve file.

    By default each call is a cold start: a fresh interpreter running the
    console-script entry point.  With `in_process` the same argument lists
    go through ratbez.cli.main in this process (the traced run)."""

    name = "cli"

    def __init__(self, seed: int, workdir: str, in_process: bool = False):
        super().__init__(seed)
        self.workdir = workdir
        self.in_process = in_process
        self._plots = 0
        if in_process:
            import ratbez.cli
            self.cli = ratbez.cli
        rng = np.random.default_rng(seed)
        for c in range(CLI_CURVES):
            points, weights = random_curve(rng, CLI_DEGREE, 2)
            path = os.path.join(workdir, f"curve{c}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"degree": CLI_DEGREE, "points": points.tolist(),
                           "weights": weights.tolist()}, fh)
            t = float(rng.uniform(0.0, 1.0))
            commands = [
                ["eval", path, repr(t)],
                ["bound", path],
                ["bound", path, "--method", "elevation", "--e", str(E_TABLE)],
                ["maximize", path],
                ["plot", path, "--kind", "derivative_norm"],
            ]
            self.rounds.append([
                Item(f"c{c}", points, weights, {"argv": argv, "t": t}) for argv in commands
            ])

    def op(self, item):
        argv = list(item.extra["argv"])
        svg = None
        if argv[0] == "plot":
            self._plots += 1
            svg = os.path.join(self.workdir, f"plot{self._plots}.svg")
            argv += ["--out", svg]
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
            return code, out.getvalue(), err.getvalue(), svg
        proc = subprocess.run(
            [sys.executable, "-c", CLI_ENTRY, *argv],
            capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr, svg

    def check(self, item, out):
        code, stdout, stderr, svg = out
        errors = checks.check_exit(code, stderr)
        if errors:
            return [f"{item.extra['argv']}: {e}" for e in errors]
        ref = self.reference(item)
        command = item.extra["argv"]
        text = stdout.strip()
        try:
            if command[0] == "eval":
                errors += checks.check_printed_point(ref, item.extra["t"], text)
            elif command[0] == "bound" and "elevation" not in command:
                value = float(text.split()[2])
                if not abs(value - ref.conjecture) <= checks.PRINTED_ABS + checks.REL * ref.conjecture:
                    errors.append(f"printed bound {value!r} != recomputed {ref.conjecture!r}")
            elif command[0] == "bound":
                value = float(text.split()[2])
                errors += checks.check_sound(ref, value + checks.PRINTED_ABS)
            elif command[0] == "maximize":
                peak, at = text.split(" @ t=")
                errors += checks.check_printed_peak(ref, float(peak), float(at))
            else:
                with open(svg, encoding="utf-8") as fh:
                    errors += checks.check_svg(fh.read())
        except (ValueError, IndexError) as exc:
            errors.append(f"unreadable output {text!r}: {exc}")
        return [f"{item.key} {command[0]}: {e}" for e in errors]

    def gap(self, item, out):
        argv = item.extra["argv"]
        if argv[0] != "bound" or "elevation" not in argv or out[0] != 0:
            return None
        return float(out[1].split()[2]) / self.reference(item).peak() - 1.0


WORKLOADS = ["table1", "elevation", "cli"]


def make(name: str, seed: int, workdir: str, in_process: bool = False) -> Workload:
    if name == "table1":
        return Table1(seed)
    if name == "elevation":
        return Elevation(seed)
    if name == "cli":
        return Cli(seed, workdir, in_process)
    raise ValueError(f"unknown workload {name!r}")
