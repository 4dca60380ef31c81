"""The benchmark's workloads: inputs from the seed, calls, correctness gates.

Each workload is a function ``unit(ctx, index) -> Unit`` that performs one
fixed amount of work through a public entry point of the library
(``acceptance.run_all``, ``cli.main`` or
``oracle.reproducing_residuals_batch``), checks every output, and adds its
operations to ``ctx.tally``.  The worker repeats units until the run's
time is used up.  See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

from stats import Tally, sha256


@dataclass(frozen=True)
class Unit:
    ops: int  # operations the unit attempted
    key: str  # what was computed: the same key must give the same checksum
    sha: str  # checksum of every report the unit produced


@dataclass
class Context:
    seed: int
    scratch: str  # directory for report files
    tally: Tally = field(default_factory=Tally)
    worst: dict = field(default_factory=dict)

    def note_worst(self, name: str, values) -> None:
        self.worst[name] = max([self.worst.get(name, 0.0), *values])


def unit_seed(seed: int, index: int) -> int:
    # bell-check also draws from seed + 1, so units step by two.
    return 1000 * seed + 2 * index


# --- battery ---------------------------------------------------------------


def battery(ctx: Context, index: int) -> Unit:
    """One acceptance.run_all(), which is `hartogs-bergman reproduce`.

    The battery pins its own seeds, so its inputs do not depend on ctx.seed.
    """
    from hartogs_bergman import acceptance

    total = len(acceptance.ALL_CRITERIA)
    log = io.StringIO()
    try:
        results = acceptance.run_all(log=log)
    except Exception as exc:  # a crash fails every criterion not yet passed
        passed = log.getvalue().count("[PASS]")
        ctx.tally.check(True, passed)
        ctx.tally.fail(total - passed, f"battery: {exc!r}")
        return Unit(total, "battery", sha256(log.getvalue().encode()))
    for r in results:
        ctx.tally.check(r.passed)
    if len(results) != total:
        ctx.tally.fail(total - len(results), "battery: criteria missing from run_all")
    # The same payload `hartogs-bergman reproduce` prints, without timings.
    payload = {
        "criteria": [
            {"number": r.number, "name": r.name, "passed": r.passed, "details": r.details}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    return Unit(total, "battery", sha256(payload))


# --- pair-checks -------------------------------------------------------------

# Pair counts balance the series-compare time against the bell-check plus
# biholo-check time.  Tolerances are each command's default --tol.
SERIES_SPECS = ("fat:1", "fat:2", "fat:3", "fat:4", "thin:2", "thin:3", "thin:4")
SERIES_PAIRS = 25
SERIES_TOL = 1e-6
BELL_KS = range(2, 9)
BELL_PAIRS = 300
BELL_TOL = 1e-9
BIHOLO_MAPS = (
    ("shear", None),
    ("shear-inv", None),
    *(("shear-iter", k) for k in (2, 3, 4)),
    *(("shear-iter-inv", k) for k in (2, 3, 4)),
)
BIHOLO_PAIRS = 300
BIHOLO_TOL = 1e-12
ASYMPTOTICS_SPECS = ("fat:1", "fat:2", "thin:2", "thin:3")
ASYMPTOTICS_STEPS = 20  # the command's default path length


def pair_check_calls(seed: int):
    """(argv, operations, values-from-report, tol) for every call of one unit."""
    s = str(seed)
    calls = []
    for spec in SERIES_SPECS:
        argv = ["series-compare", "--spec", spec, "--pairs", str(SERIES_PAIRS), "--seed", s]
        calls.append((argv, SERIES_PAIRS, lambda r: [row["rel_dev"] for row in r["pairs"]], SERIES_TOL))
    for k in BELL_KS:
        argv = ["bell-check", "--k", str(k), "--pairs", str(BELL_PAIRS), "--seed", s]
        calls.append((argv, BELL_PAIRS, lambda r: r["residuals"], BELL_TOL))
    for name, k in BIHOLO_MAPS:
        argv = ["biholo-check", "--map", name, "--pairs", str(BIHOLO_PAIRS), "--seed", s]
        if k is not None:
            argv += ["--k", str(k)]
        calls.append((argv, BIHOLO_PAIRS, lambda r: r["residuals"], BIHOLO_TOL))
    for spec in ASYMPTOTICS_SPECS:
        argv = ["asymptotics", "--spec", spec, "--path", "origin", "--compare", "delta"]
        calls.append((argv, 1, None, None))
    return calls


def _csv_rows(text: str) -> int:
    # A schema comment line and a header line precede the data rows.
    return len(text.splitlines()) - 2


def pair_checks(ctx: Context, index: int) -> Unit:
    """In-process cli.main calls, each writing its report to a file."""
    from hartogs_bergman import cli

    seed = unit_seed(ctx.seed, index)
    calls = pair_check_calls(seed)
    out = os.path.join(ctx.scratch, "report")
    shas = []
    for argv, ops, values_of, tol in calls:
        with contextlib.suppress(FileNotFoundError):
            os.remove(out)
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["--out", out, *argv])
            with open(out, "rb") as fh:
                data = fh.read()
        except (Exception, SystemExit) as exc:  # SystemExit: argparse rejected argv
            ctx.tally.fail(ops, f"{' '.join(argv)}: {exc!r}")
            shas.append(f"error:{type(exc).__name__}")
            continue
        shas.append(sha256(data))
        if values_of is None:  # a CSV path table: one operation
            ok = code == 0 and _csv_rows(data.decode()) == ASYMPTOTICS_STEPS
            ctx.tally.check(ok)
            if not ok:
                ctx.tally.errors.append(f"{' '.join(argv)}: exit {code}")
            continue
        values = values_of(json.loads(data)["results"])
        ctx.note_worst(argv[0], values)
        misses = sum(not v <= tol for v in values) + max(ops - len(values), 0)
        if code != 0 and misses == 0:
            misses = ops
        ctx.tally.check(True, ops - misses)
        if misses:
            ctx.tally.fail(misses, f"{' '.join(argv)}: exit {code}, {misses} over tol {tol:g}")
    return Unit(sum(call[1] for call in calls), f"pair-checks:{seed}", sha256(shas))


# --- reproducing-grid --------------------------------------------------------

GRID_SPECS = ("fat:3", "thin:3")
GRID_FUNCTIONS = ("one", "z1", "z2")
GRID_POINTS = 24
GRID_N = 2_000_000
GRID_TOL = 0.02  # criterion 7's bound


def grid_points(spec, rng: np.random.Generator, count: int):
    """Interior points with |z2| in [0.5, 0.9], as in criterion 7.

    |z1| is a fraction u <= 0.4 of its largest value |z2|^(1/gamma), so
    each point keeps a fixed relative distance from the curved face.
    """
    from hartogs_bergman.domain import Point2C

    g = float(spec.gamma)
    r2 = rng.uniform(0.5, 0.9, count)
    r1 = rng.uniform(0.0, 0.4, count) * r2 ** (1.0 / g)
    a1, a2 = rng.uniform(0.0, 2.0 * np.pi, (2, count))
    return [
        Point2C(complex(x * np.cos(p), x * np.sin(p)), complex(y * np.cos(q), y * np.sin(q)))
        for x, y, p, q in zip(r1, r2, a1, a2)
    ]


def reproducing_grid(ctx: Context, index: int) -> Unit:
    """Monte Carlo reproducing residuals for many points on one sample stream."""
    from hartogs_bergman import oracle
    from hartogs_bergman.domain import DomainSpec

    seed = unit_seed(ctx.seed, index)
    fs = [oracle.parse_function(name) for name in GRID_FUNCTIONS]
    digest = []
    for i, text in enumerate(GRID_SPECS):
        spec = DomainSpec.parse(text)
        zs = grid_points(spec, np.random.default_rng([seed, i]), GRID_POINTS)
        ops = len(fs) * len(zs)
        try:
            reports = oracle.reproducing_residuals_batch(spec, fs, zs, GRID_N, seed + i)
        except Exception as exc:
            ctx.tally.fail(ops, f"reproducing {text}: {exc!r}")
            digest.append(f"error:{type(exc).__name__}")
            continue
        flat = [r for row in reports for r in row]
        ctx.note_worst("reproducing", [r.residual for r in flat])
        ctx.worst["excluded"] = ctx.worst.get("excluded", 0) + sum(r.excluded for r in flat)
        misses = sum(not r.residual <= GRID_TOL for r in flat) + ops - len(flat)
        ctx.tally.check(True, ops - misses)
        if misses:
            ctx.tally.fail(misses, f"reproducing {text}: {misses} residuals over {GRID_TOL}")
        digest.append([[repr(r.residual), repr(r.estimate), r.excluded] for r in flat])
    ops = len(GRID_SPECS) * len(fs) * GRID_POINTS
    return Unit(ops, f"reproducing-grid:{seed}", sha256(digest))


WORKLOADS = {
    "battery": battery,
    "pair-checks": pair_checks,
    "reproducing-grid": reproducing_grid,
}

# Workloads whose unit times are rescaled to the reference speed (see
# worker.probe).  pair-checks runs ~20 short, Python-bound units per run,
# each bracketed by probes, and rescaling cut its run-to-run spread from
# 0.16-0.23 to 0.02-0.03.  The battery and the grid spend seconds inside
# single vectorised calls whose variation the probe does not track:
# rescaling left their spread at ~0.12 or made it worse, so they report
# plain wall time.
SPEED_SCALED = ("pair-checks",)


def warm() -> None:
    """Fill the library's lazy caches the way a first small call would."""
    from hartogs_bergman import cli, kernels, oracle  # noqa: F401  (cli imports acceptance)
    from hartogs_bergman.domain import DomainSpec, Point2C, sample_uniform_arrays

    specs = [DomainSpec.fat(k) for k in range(1, 9)] + [DomainSpec.thin(k) for k in (2, 3, 4)]
    p = Point2C(0.01, 0.5)
    for spec in specs:
        kernels.kernel(spec, p, p)
        z1, z2 = sample_uniform_arrays(spec, 16, 0)
        kernels.kernel_num_den(spec, z1 * np.conj(z1), z2 * np.conj(z2))
        oracle.kernel_series(spec, p, p)
    cli.build_parser()


# Correctness details the traced run reports beside the layer metrics.
CHECK_METRICS = (
    ("check.failed_share", "ratio"),
    ("check.worst_series_rel_dev", "ratio"),
    ("check.worst_bell_residual", "ratio"),
    ("check.worst_biholo_residual", "ratio"),
    ("check.worst_reproducing_residual", "ratio"),
    ("check.excluded", "count"),
)


def check_metrics(ctx: Context) -> dict:
    worst = ctx.worst
    values = (
        ctx.tally.failed_share,
        worst.get("series-compare", 0.0),
        worst.get("bell-check", 0.0),
        worst.get("biholo-check", 0.0),
        worst.get("reproducing", 0.0),
        worst.get("excluded", 0),
    )
    return {name: (v, unit) for (name, unit), v in zip(CHECK_METRICS, values)}
