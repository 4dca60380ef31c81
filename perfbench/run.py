#!/usr/bin/env python3
"""Benchmark of the hartogs-bergman verification engine.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Set-up is measured in several
fresh processes; the workload then runs in one more fresh process, with
BLAS/OpenMP thread counts pinned to 1, repeating its unit of work until
--seconds have passed.  Every output is checked.  The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics under --trace 0 and the per-layer metrics (from spans
recorded around each layer) under --trace 1.  Provenance, unit timings and
any failure go to stderr and to .bench_build/perfbench/runs.jsonl, whose
report checksums flag two runs of one source tree that disagree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from stats import at_reference_speed, checksum_mismatches, summarize

WORKLOADS = ("battery", "pair-checks", "reproducing-grid")
SETUP_PROCESSES = 4  # fresh set-up processes besides the workload's own
SETUP_TIMEOUT_S = 30
DEADLINE_S = 170  # the whole run, probes included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def source_tree_hash() -> str:
    """Identifies what a run computed: a hash of the library and benchmark sources."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(extra: list[str], timeout: float) -> dict:
    """Run worker.py in a fresh interpreter and parse its JSON line.

    subprocess.run kills and reaps the child when the timeout expires.
    """
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *extra],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(result: dict, setups: list[dict]) -> dict:
    units = result["units"]
    times = [at_reference_speed(u["s"], u["probe_s"]) for u in units]
    setup_s = [at_reference_speed(p["setup_s"], p["setup_probe_s"]) for p in setups]
    attempted = result["attempted"]
    return {
        "setup_s": (summarize(setup_s).median, "s"),
        "wall_s": (summarize(times).median, "s"),
        "ops_per_s": (summarize(u["ops"] / t for u, t in zip(units, times)).median, "1/s"),
        "passed_share": ((attempted - result["failed"]) / attempted, "ratio"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def read_history(log: Path) -> list[dict]:
    if not log.exists():
        return []
    with open(log) as fh:
        return [rec for line in fh if line.strip() for rec in json.loads(line)["checksums"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    src = ROOT / "src"
    if not (src / "hartogs_bergman" / "__init__.py").is_file():
        print(f"perfbench: no library source under {src}", file=sys.stderr)
        return 2

    start = time.monotonic()
    scratch = ROOT / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        setups = [
            run_worker(["--workload", args.workload, "--setup-only"], SETUP_TIMEOUT_S)
            for _ in range(SETUP_PROCESSES)
        ]
        result = run_worker(
            [
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--scratch", tmp,
            ],
            DEADLINE_S - (time.monotonic() - start),
        )
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    setups.append(result)
    tree = source_tree_hash()
    records = [{"tree": tree, "key": u["key"], "sha": u["sha"]} for u in result["units"]]
    log = scratch / "runs.jsonl"
    same_tree, other_tree = checksum_mismatches(read_history(log), records)

    if args.trace:
        metrics = dict(result["layers"])
        metrics["check.checksum_mismatches"] = (len(same_tree), "count")
    else:
        metrics = end_to_end(result, setups)
    correct = result["failed"] == 0 and not same_tree

    provenance = {
        "git_sha": git_sha(),
        "source_tree": tree,
        "nproc": len(os.sched_getaffinity(0)),
        "python": result["python"],
        "numpy": result["numpy"],
    }
    unit_s = summarize(u["s"] for u in result["units"])
    print(f"perfbench: {json.dumps(provenance)}", file=sys.stderr)
    print(
        f"perfbench: {args.workload} seed={args.seed} units={unit_s.n} "
        f"unit_s median={unit_s.median:.4f} q1={unit_s.q1:.4f} q3={unit_s.q3:.4f} "
        f"raw setup_s={[round(p['setup_s'], 4) for p in setups]} worst={json.dumps(result['worst'])}",
        file=sys.stderr,
    )
    for err in result["errors"]:
        print(f"perfbench: FAILED {err}", file=sys.stderr)
    if same_tree:
        print(f"perfbench: CHECKSUM MISMATCH within one source tree: {same_tree}", file=sys.stderr)
    if other_tree:
        print(f"perfbench: checksums differ from another source tree: {len(other_tree)} units",
              file=sys.stderr)

    with open(log, "a") as fh:
        entry = {
            "provenance": provenance,
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "checksums": records,
            "units": [[u["s"], u["probe_s"]] for u in result["units"]],
            "setups": [[p["setup_s"], p["setup_probe_s"]] for p in setups],
            "correct": correct,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v[0] for k, v in metrics.items()},
        }
        fh.write(json.dumps(entry) + "\n")

    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
