"""Benchmark of ratbez: end-to-end metrics per workload, or, with
--trace 1, per-layer metrics from a traced run.

    python3 perfbench/run.py --workload table1|elevation|cli
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.
Without --workload, all three workloads run in turn.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Each workload runs in fresh worker processes (perfbench/worker.py), one at
a time: six that only set up, and one that sets up and then runs timed
rounds for about --seconds.  The load is a closed loop with one client.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import subprocess
import sys
import time

from median import median
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES_BEFORE = 3
SETUP_SAMPLES_AFTER = 3
STARTUP_SAMPLES = 7
DEADLINE_S = 170.0
IMPORT_TIMER = ("import time; t = time.perf_counter(); import ratbez; "
                "print(time.perf_counter() - t)")


class Runner:
    def __init__(self, root: str, seed: int, seconds: float, trace: int):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.deadline = time.perf_counter() + DEADLINE_S
        self.out_dir = os.path.join(root, ".perfbench")
        src = os.path.join(root, "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"

    def _run(self, argv: list[str]) -> subprocess.CompletedProcess:
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise RuntimeError("benchmark deadline passed")
        return subprocess.run(argv, env=self.env, cwd=self.root, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)

    def worker(self, workload: str, mode: str, workdir: str, spans: str | None = None):
        argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
                "--seed", str(self.seed), "--seconds", str(self.seconds),
                "--trace", str(self.trace), "--mode", mode, "--workdir", workdir]
        if spans:
            argv += ["--spans", spans]
        started = time.perf_counter()
        proc = self._run(argv)
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["setup_s"] = result["ready"] - started
        return result

    def startup_ms(self) -> tuple[float, float]:
        """Median bare interpreter start and median fresh `import ratbez`."""
        bare, imports = [], []
        for _ in range(STARTUP_SAMPLES):
            t0 = time.perf_counter()
            self._run([sys.executable, "-c", "pass"])
            bare.append(1e3 * (time.perf_counter() - t0))
            proc = self._run([sys.executable, "-c", IMPORT_TIMER])
            imports.append(1e3 * float(proc.stdout.strip()))
        return median(bare), median(imports)

    def workload(self, name: str) -> dict:
        workdir = os.path.join(self.out_dir, f"work-{name}-{os.getpid()}")
        os.makedirs(workdir, exist_ok=True)
        try:
            if self.trace:
                spans = os.path.join(self.out_dir, f"spans-{name}-{self.seed}.jsonl")
                main = self.worker(name, "measure", workdir, spans)
                interp, imp = self.startup_ms()
                layers = dict(main["layers"], **{"cli.interp_ms_p50": interp,
                                                  "cli.import_ms_p50": imp})
                metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in sorted(layers.items())}
            else:
                setups = [self.worker(name, "setup", workdir)["setup_s"]
                          for _ in range(SETUP_SAMPLES_BEFORE)]
                main = self.worker(name, "measure", workdir)
                setups.append(main["setup_s"])
                setups += [self.worker(name, "setup", workdir)["setup_s"]
                           for _ in range(SETUP_SAMPLES_AFTER)]
                metrics = {
                    "setup_s": {"value": median(setups), "unit": "s"},
                    "ops_per_s": {"value": main["ops"] / main["span_s"], "unit": "1/s"},
                    "op_ms_p50": {"value": 1e3 * median(main["latencies_s"]),
                                  "unit": "ms"},
                    "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
                }
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        result = {"correct": main["correct"], "attempted": main["ops"],
                  "failed": main["failed"], "metrics": metrics}
        with open(os.path.join(self.out_dir, f"result-{name}-{self.seed}-trace{self.trace}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
        return result


UNITS = {
    "maximize.calls": "calls/op", "maximize.self_s": "s/op", "maximize.ms_p50": "ms",
    "kernels.grid_calls": "calls/op", "kernels.grid_self_s": "s/op",
    "kernels.grid_points": "points/op", "kernels.grid_flop": "flop/op",
    "kernels.grid_bytes": "bytes/op",
    "derivative.form_calls": "calls/op", "derivative.form_self_s": "s/op",
    "derivative.eval_many_self_s": "s/op",
    "bounds.elevation_calls": "calls/op", "bounds.elevation_self_s": "s/op",
    "bounds.elevation_steps": "steps/op", "bounds.conjecture_self_s": "s/op",
    "bounds.gap_rel_p50": "ratio",
    "kernels.elevate_self_s": "s/op", "kernels.elevate_steps": "steps/op",
    "kernels.elevate_flop": "flop/op", "kernels.ratio_self_s": "s/op",
    "kernels.ratio_rows": "rows/op",
    "experiments.row_self_s": "s/op",
    "curve.load_self_s": "s/op", "curve.eval_point_self_s": "s/op",
    "svgplot.render_self_s": "s/op", "svgplot.svg_bytes": "bytes/op",
    "cli.interp_ms_p50": "ms", "cli.import_ms_p50": "ms", "cli.main_self_s": "s/op",
    "trace.overhead_rel": "ratio",
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all three in turn)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=34.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.getcwd()
    package = os.path.join(root, "src", "ratbez")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        print(f"error: no ratbez package under {os.path.join(root, 'src')}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    # Byte-compile once, untimed, so no set-up sample pays for it.
    compileall.compile_dir(package, quiet=1)
    compileall.compile_dir(HERE, quiet=1)

    runner = Runner(root, args.seed, args.seconds, args.trace)
    os.makedirs(runner.out_dir, exist_ok=True)
    for name in [args.workload] if args.workload else WORKLOADS:
        try:
            result = runner.workload(name)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        if not args.workload:
            print(f"# {name}")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
