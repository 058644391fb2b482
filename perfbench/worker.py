"""One workload process: set up, warm up, run timed rounds, check outputs.

Started by run.py, one process per set-up sample and one for the timed
run.  Prints one JSON object as its last line of standard output.  The
`ready` field is the monotonic clock (system-wide on Linux) at the end of
set-up, which run.py subtracts from the time it started this process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --mode setup|measure --workdir DIR
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import workloads
from median import median
from spans import Recorder, layer_metrics


def timed_rounds(wl, seconds=None, rounds=None, wrap=None):
    """Exactly `rounds` whole rounds, or the whole number of rounds (at
    least one) whose total time ends nearest to `seconds`.

    Returns the outputs, the per-operation latencies, the failure count,
    the number of rounds and the span from the first start to the last end.
    """
    op = wrap(wl.op) if wrap else wl.op
    outputs, latencies, failed, r = [], [], 0, 0
    start = time.perf_counter()
    while True:
        for item in wl.rounds[r % len(wl.rounds)]:
            t0 = time.perf_counter()
            try:
                out = op(item)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = exc
                failed += 1
            latencies.append(time.perf_counter() - t0)
            outputs.append((item, out))
        r += 1
        elapsed = time.perf_counter() - start
        if r == rounds or (rounds is None and elapsed + elapsed / r / 2 >= seconds):
            break
    return outputs, latencies, failed, r, time.perf_counter() - start


def check_all(wl, outputs) -> list[str]:
    errors = []
    for item, out in outputs:
        if isinstance(out, Exception):
            print(f"{wl.name} {item.key}: failed: {out!r}", file=sys.stderr)
            continue
        errors += wl.check(item, out)
    return errors


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--mode", choices=["setup", "measure"], required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", help="file for the traced run's spans (JSON lines)")
    args = ap.parse_args()

    wl = workloads.make(args.workload, args.seed, args.workdir, in_process=bool(args.trace))
    warm = wl.op(wl.warmup)
    ready = time.perf_counter()
    result = {"ready": ready}
    if args.mode == "setup":
        print(json.dumps(result))
        return

    if not args.trace:
        outputs, latencies, failed, _, span = timed_rounds(wl, seconds=args.seconds)
        usage = resource.getrusage(
            resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF)
        result.update(ops=len(latencies), failed=failed, span_s=span,
                      latencies_s=latencies, peak_rss_mb=usage.ru_maxrss / 1024.0)
    else:
        # The same rounds without and then with the wrappers: the difference
        # in wall time is the tracing overhead.
        plain, _, failed_plain, rounds, plain_span = timed_rounds(wl, seconds=args.seconds / 2)
        recorder = Recorder()
        recorder.install()
        try:
            traced, _, failed, _, traced_span = timed_rounds(
                wl, rounds=rounds, wrap=lambda fn: recorder.span("op", fn))
        finally:
            recorder.uninstall()
        if args.spans:
            recorder.dump(args.spans)
        layers = layer_metrics(recorder.spans, len(traced))
        gaps = [g for item, out in traced if not isinstance(out, Exception)
                for g in [wl.gap(item, out)] if g is not None]
        layers["bounds.gap_rel_p50"] = median(gaps) if gaps else 0.0
        layers["trace.overhead_rel"] = traced_span / plain_span - 1.0
        outputs = plain + traced
        failed += failed_plain
        result.update(ops=len(outputs), failed=failed, layers=layers)

    errors = check_all(wl, [(wl.warmup, warm)] + outputs)
    for e in errors[:20]:
        print(f"check failed: {args.workload} {e}", file=sys.stderr)
    result["correct"] = not errors
    print(json.dumps(result))


if __name__ == "__main__":
    main()
