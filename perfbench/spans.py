"""Spans around calls into ratbez's layers, recorded from outside.

`install` replaces each wrapped public function at every module attribute
of the `ratbez` package that refers to it, which is where other layers
look it up.  Each call records a span (name, start, end, parent, work
counters) in memory.  `layer_metrics` turns the spans into per-layer
calls, self time and work counts per workload operation.  A wrapped name
that no longer exists in ratbez is skipped and reports zero calls.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from median import median

# (module, attribute, span name)
TARGETS = [
    ("ratbez.maximize", "maximize_derivative_norm", "maximize"),
    ("ratbez._kernels", "decasteljau_grid", "kernels.grid"),
    ("ratbez._kernels", "elevate_chain", "kernels.elevate"),
    ("ratbez._kernels", "max_norm_ratio", "kernels.ratio"),
    ("ratbez.derivative", "build_derivative_form", "derivative.form"),
    ("ratbez.derivative", "eval_derivative_explicit_many", "derivative.eval_many"),
    ("ratbez.bounds", "elevation_bound", "bounds.elevation"),
    ("ratbez.bounds", "bound_profile", "bounds.profile"),
    ("ratbez.bounds", "conjecture_bound", "bounds.conjecture"),
    ("ratbez.experiments", "table1_row", "experiments.row"),
    ("ratbez.curve", "load_curve", "curve.load"),
    ("ratbez.curve", "eval_point", "curve.eval_point"),
    ("ratbez.svgplot", "render_plot", "svgplot.render"),
    ("ratbez.cli", "main", "cli.main"),
]


def _grid_work(args, kwargs, result):
    # decasteljau_grid(coeffs (m+1, k), ts (T,)): each of the m recurrence
    # levels does (rows left) * k updates of 2 multiplies and 1 add.
    coeffs, ts = args[0], args[1]
    m1, k = coeffs.shape
    points = len(ts)
    return {
        "points": points,
        "flop": 3 * k * (m1 * (m1 - 1) // 2) * points,
        "bytes": 8 * (m1 * k + points + points * k),
    }


def _elevate_work(args, kwargs, result):
    # elevate_chain(coeffs (m+1, k), steps): the step from c to c + 1 rows
    # updates c - 1 rows of k values with 2 multiplies and 1 add.
    coeffs = args[0]
    steps = int(args[1] if len(args) > 1 else kwargs["steps"])
    m1, k = coeffs.shape
    rows_updated = sum(c - 1 for c in range(m1, m1 + steps))
    return {"steps": steps, "flop": 3 * k * rows_updated}


def _ratio_work(args, kwargs, result):
    return {"rows": len(args[0])}


def _elevation_work(args, kwargs, result):
    return {"steps": int(args[1] if len(args) > 1 else kwargs.get("e", 0))}


def _profile_work(args, kwargs, result):
    e_list = args[1] if len(args) > 1 else kwargs["e_list"]
    return {"steps": max((int(e) for e in e_list), default=0)}


def _render_work(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


WORK = {
    "kernels.grid": _grid_work,
    "kernels.elevate": _elevate_work,
    "kernels.ratio": _ratio_work,
    "bounds.elevation": _elevation_work,
    "bounds.profile": _profile_work,
    "svgplot.render": _render_work,
}


class Recorder:
    """Spans of one process, kept in memory until `dump`."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            record = {"name": name, "parent": parent}
            self.spans.append(record)
            self._stack.append(idx)
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                self._stack.pop()
            if work is not None:
                record.update(work(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target at each ratbez module attribute bound to it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "ratbez" or key.startswith("ratbez."))]
        for module_name, attr, name in TARGETS:
            owner = sys.modules.get(module_name)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self.span(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, value in reversed(self._restore):
            setattr(module, key, value)
        self._restore.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_metrics(spans: list[dict], ops: int) -> dict[str, float]:
    """Per-layer calls, self time and work per workload operation.

    Operation spans are named "op"; every other span belongs to a layer.
    """
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    work: dict[str, float] = {}
    maximize_ms = []
    for s, t in zip(spans, own):
        name = s["name"]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + t
        for key in ("points", "flop", "bytes", "steps", "rows"):
            if key in s:
                work[f"{name}.{key}"] = work.get(f"{name}.{key}", 0) + s[key]
        if name == "maximize":
            maximize_ms.append(1e3 * (s["end"] - s["start"]))

    def per_op(table, key):
        return table.get(key, 0) / ops

    def elevation(table, suffix=""):
        return (table.get("bounds.elevation" + suffix, 0)
                + table.get("bounds.profile" + suffix, 0)) / ops

    return {
        "maximize.calls": per_op(calls, "maximize"),
        "maximize.self_s": per_op(self_s, "maximize"),
        "maximize.ms_p50": median(maximize_ms) if maximize_ms else 0.0,
        "kernels.grid_calls": per_op(calls, "kernels.grid"),
        "kernels.grid_self_s": per_op(self_s, "kernels.grid"),
        "kernels.grid_points": per_op(work, "kernels.grid.points"),
        "kernels.grid_flop": per_op(work, "kernels.grid.flop"),
        "kernels.grid_bytes": per_op(work, "kernels.grid.bytes"),
        "derivative.form_calls": per_op(calls, "derivative.form"),
        "derivative.form_self_s": per_op(self_s, "derivative.form"),
        "derivative.eval_many_self_s": per_op(self_s, "derivative.eval_many"),
        "bounds.elevation_calls": elevation(calls),
        "bounds.elevation_self_s": elevation(self_s),
        "bounds.elevation_steps": elevation(work, ".steps"),
        "bounds.conjecture_self_s": per_op(self_s, "bounds.conjecture"),
        "kernels.elevate_self_s": per_op(self_s, "kernels.elevate"),
        "kernels.elevate_steps": per_op(work, "kernels.elevate.steps"),
        "kernels.elevate_flop": per_op(work, "kernels.elevate.flop"),
        "kernels.ratio_self_s": per_op(self_s, "kernels.ratio"),
        "kernels.ratio_rows": per_op(work, "kernels.ratio.rows"),
        "experiments.row_self_s": per_op(self_s, "experiments.row"),
        "curve.load_self_s": per_op(self_s, "curve.load"),
        "curve.eval_point_self_s": per_op(self_s, "curve.eval_point"),
        "svgplot.render_self_s": per_op(self_s, "svgplot.render"),
        "svgplot.svg_bytes": per_op(work, "svgplot.render.bytes"),
        "cli.main_self_s": per_op(self_s, "cli.main"),
    }
