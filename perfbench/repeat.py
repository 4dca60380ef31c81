#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/repeat.py --workload pair-checks --seeds 1-10

Runs run.py once per seed, one process at a time, with BENCHMARK.json's
run_seconds, and prints for every metric the median, the quartiles, the
sample count and the spread (inter-quartile distance over the median)
beside a third of the metric's bound.  Exits 1 if any run failed or was
incorrect.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import summarize

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    ok = True
    for seed in args.seeds:
        argv = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"] and result["failed"] == 0
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>3s} {'spread':>8s} {'bound/3':>8s}")
    for name, vals in values.items():
        s = summarize(vals)
        bound = bounds.get(name)
        third = f"{bound / 3:8.4f}" if bound is not None else ""
        print(f"{name:40s} {s.median:12.6g} {s.q1:12.6g} {s.q3:12.6g} {s.n:3d} {s.spread:8.4f} {third} {units[name]}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
