"""One benchmark process: set up, run one workload for a time, report JSON.

Started by run.py in a fresh interpreter with the thread counts pinned.
With --setup-only it measures set-up and exits.  The last stdout line is
a JSON object for run.py; nothing else is printed to stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time


def probe() -> float:
    """Seconds for a fixed array computation that does not touch the library.

    The machine's speed drifts by tens of percent over minutes; timed next
    to short units of work, this probe tracks that drift (see README.md).
    """
    import numpy as np

    t0 = time.perf_counter()
    a = np.exp(1j * np.linspace(0.0, 1.0, 100_000))
    for _ in range(4):
        a = (a * a.conj() + 1.0) ** 0.5
    return time.perf_counter() - t0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", default=".")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import numpy

    import workloads

    workloads.warm()
    setup = {
        "setup_s": time.perf_counter() - t0,
        "setup_probe_s": statistics.median(probe() for _ in range(3)),
    }
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    unit_fn = workloads.WORKLOADS[args.workload]
    scaled = args.workload in workloads.SPEED_SCALED
    ctx = workloads.Context(args.seed, args.scratch)
    tracer = None
    if args.trace:
        import spans

        costs = spans.calibrate()
        tracer = spans.Tracer()
        spans.install(tracer)
    units = []
    start = time.perf_counter()
    before = probe() if scaled else None
    try:
        while True:
            u0 = time.perf_counter()
            unit = unit_fn(ctx, len(units))
            elapsed = time.perf_counter() - u0
            after = probe() if scaled else None
            units.append({
                "s": elapsed,
                "probe_s": (before + after) / 2.0 if scaled else None,
                "ops": unit.ops,
                "key": unit.key,
                "sha": unit.sha,
            })
            before = after
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.restore()

    result = {
        **setup,
        "units": units,
        "attempted": ctx.tally.attempted,
        "failed": ctx.tally.failed,
        "errors": ctx.tally.errors[:20],
        "worst": ctx.worst,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }
    if tracer is not None:
        wall = sum(u["s"] for u in units)
        values = spans.layer_metrics(tracer, wall, len(units), costs)
        result["layers"] = {name: (values[name], unit) for name, unit in spans.LAYER_METRICS}
        result["layers"].update(workloads.check_metrics(ctx))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
