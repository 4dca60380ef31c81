"""In-memory spans recorded around calls into the library's layers.

The tracer never edits a source file.  ``install`` rebinds, in every
loaded ``hartogs_bergman`` module, each name that refers to a traced
function (``oracle._fill_uniform``, ``cli._pairs``,
``acceptance.kernel_series``, ``kernels.contains`` ...) to a wrapper that
records a span, and ``restore`` puts the originals back.  A call that
re-enters a span of the same name while it is open (``kernel`` calling
``bergman_fat``, ``sample_uniform_arrays`` calling ``_fill_uniform``) passes
through unrecorded, so each unit of work is counted once.

Spans are kept in memory; ``layer_metrics`` turns them into the per-layer
numbers the benchmark prints.
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from stats import quantile

PACKAGE = "hartogs_bergman"


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    children_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the time its direct child spans cover.

        Spans nest strictly in one thread, so direct children never
        overlap and their durations add up to the covered part.
        """
        return self.duration - self.children_s


class Tracer:
    """Records nested spans; one instance per traced run."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.passthrough = 0
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int | None:
        """Start a span, or return None when one of this name is already open."""
        if any(self.spans[i].name == name for i in self.stack):
            self.passthrough += 1
            return None
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, self.clock(), parent=parent))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int | None) -> Span | None:
        if index is None:
            return None
        span = self.spans[index]
        span.end = self.clock()
        self.stack.pop()
        if span.parent is not None:
            self.spans[span.parent].children_s += span.duration
        return span

    def wrap(self, name: str, fn, record=None):
        """fn with a span around each call; record(attrs, args, kwargs, result) adds counts."""

        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.close(index)
            if span is not None and record is not None:
                record(span.attrs, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def rebind(self, module: str, attr: str, name: str, record=None) -> None:
        """Replace every binding of module.attr inside the package with a traced wrapper."""
        original = getattr(sys.modules[f"{PACKAGE}.{module}"], attr)
        wrapper = self.wrap(name, original, record)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == PACKAGE and getattr(mod, attr, None) is original:
                self._patched.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def replace(self, owner, key, value) -> None:
        """Rebind one attribute (module or object) or one dict entry, restorably."""
        if isinstance(owner, dict):
            self._patched.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patched.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def restore(self) -> None:
        for owner, key, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patched.clear()


# --- recorders: counts read from arguments and return values -------------


def _points(attrs, args, kwargs, result):
    attrs["points"] = len(result[0])


def _num_den(attrs, args, kwargs, result):
    s, t = args[1], args[2]
    num, den = result
    arrays = [np.asarray(x) for x in (s, t, num, den)]
    attrs["elements"] = max(a.size for a in arrays)
    attrs["computed_bytes"] = sum(a.nbytes for a in arrays)


def _near_singular(attrs, args, kwargs, result):
    attrs["near_singular"] = int(result.near_singular)


def _series(attrs, args, kwargs, result):
    trunc = result[1]
    attrs["terms"] = trunc.terms_used
    attrs["rect"] = trunc.a_max
    # Auto truncation starts at 32 and doubles.
    attrs["doublings"] = max((trunc.a_max // 32).bit_length() - 1, 0)


def _reproducing(attrs, args, kwargs, result):
    attrs["excluded"] = sum(r.excluded for row in result for r in row)


def _inner_product(attrs, args, kwargs, result):
    attrs["samples"] = result.n


def _residual(attrs, args, kwargs, result):
    attrs["residual"] = result


def _pairs(attrs, args, kwargs, result):
    attrs["pairs"] = len(result)


def _emit(attrs, args, kwargs, result):
    out = args[1].out
    if out:
        attrs["bytes"] = os.path.getsize(out)


# (span name, defining module, attribute, recorder)
REBINDS = (
    ("domain.sample", "domain", "_fill_uniform", _points),
    ("domain.sample", "domain", "sample_uniform_arrays", _points),
    ("domain.contains", "domain", "contains", None),
    ("domain.boundary_distance", "domain", "boundary_distance", None),
    ("kernels.num_den", "kernels", "kernel_num_den", _num_den),
    ("kernels.scalar", "kernels", "kernel", _near_singular),
    ("kernels.scalar", "kernels", "bergman_fat", _near_singular),
    ("kernels.scalar", "kernels", "bergman_thin", _near_singular),
    ("kernels.scalar", "kernels", "bergman_reference", _near_singular),
    ("oracle.series", "oracle", "kernel_series", _series),
    ("oracle.reproducing", "oracle", "reproducing_residuals_batch", _reproducing),
    ("oracle.inner_product", "oracle", "inner_product_mc", _inner_product),
    ("transforms.bell", "transforms", "bell_residual", _residual),
    ("transforms.biholo", "transforms", "biholo_residual", _residual),
    ("polynomials.identities", "polynomials", "verify_coefficient_identities", None),
    ("analysis.thin_nonvanishing", "analysis", "thin_nonvanishing", None),
    ("analysis.diagonal_ratio", "analysis", "diagonal_ratio", None),
    ("analysis.delta_rate", "analysis", "delta_rate", None),
    ("analysis.ramadanov", "analysis", "ramadanov_table", None),
    ("acceptance.pairs", "acceptance", "_pairs", _pairs),
)

CLI_COMMANDS = {
    "series-compare": "cli.series_compare",
    "bell-check": "cli.bell_check",
    "biholo-check": "cli.biholo_check",
    "asymptotics": "cli.asymptotics",
}


def install(tracer: Tracer) -> None:
    """Rebind every traced name; undo with tracer.restore()."""
    import hartogs_bergman.acceptance as acceptance
    import hartogs_bergman.cli as cli

    for name, module, attr, record in REBINDS:
        tracer.rebind(module, attr, name, record)
    # run_all iterates the ALL_CRITERIA tuple, and cli.main dispatches
    # through the _COMMANDS dict, so those entries are rebound in place.
    tracer.replace(
        acceptance,
        "ALL_CRITERIA",
        tuple(
            (number, label, tracer.wrap(f"acceptance.c{number:02d}", fn))
            for number, label, fn in acceptance.ALL_CRITERIA
        ),
    )
    for command, name in CLI_COMMANDS.items():
        tracer.replace(cli._COMMANDS, command, tracer.wrap(name, cli._COMMANDS[command]))
    tracer.replace(cli, "_emit", tracer.wrap("cli.emit", cli._emit, _emit))


def calibrate(n: int = 20_000) -> tuple[float, float]:
    """Seconds a recorded span and a pass-through call add to one call."""

    def noop():
        return None

    def timed(fn) -> float:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        return (time.perf_counter() - t0) / n

    bare = timed(noop)
    tracer = Tracer()
    recorded = timed(tracer.wrap("calibrate", noop))
    outer = tracer.open("calibrate")
    passed = timed(tracer.wrap("calibrate", noop))
    tracer.close(outer)
    return max(recorded - bare, 0.0), max(passed - bare, 0.0)


# Every per-layer metric the traced run prints, in BENCHMARK.json order.
LAYER_METRICS = (
    ("domain.sample.calls", "count"),
    ("domain.sample.points", "count"),
    ("domain.sample.s", "s"),
    ("domain.sample.points_per_s", "1/s"),
    ("domain.sample.share", "ratio"),
    ("domain.contains.calls", "count"),
    ("domain.contains.s", "s"),
    ("domain.boundary_distance.calls", "count"),
    ("domain.boundary_distance.s", "s"),
    ("kernels.num_den.calls", "count"),
    ("kernels.num_den.elements", "count"),
    ("kernels.num_den.s", "s"),
    ("kernels.num_den.elements_per_s", "1/s"),
    ("kernels.num_den.computed_bytes", "bytes"),
    ("kernels.scalar.calls", "count"),
    ("kernels.scalar.s", "s"),
    ("kernels.scalar.us_per_call", "us"),
    ("kernels.near_singular", "count"),
    ("oracle.series.calls", "count"),
    ("oracle.series.s", "s"),
    ("oracle.series.p50_ms", "ms"),
    ("oracle.series.p99_ms", "ms"),
    ("oracle.series.max_ms", "ms"),
    ("oracle.series.terms", "count"),
    ("oracle.series.rect_max", "count"),
    ("oracle.series.doublings", "count"),
    ("oracle.reproducing.calls", "count"),
    ("oracle.reproducing.s", "s"),
    ("oracle.reproducing.self_s", "s"),
    ("oracle.reproducing.excluded", "count"),
    ("oracle.inner_product.calls", "count"),
    ("oracle.inner_product.s", "s"),
    ("oracle.inner_product.self_s", "s"),
    ("oracle.inner_product.samples", "count"),
    ("transforms.bell.calls", "count"),
    ("transforms.bell.s", "s"),
    ("transforms.bell.us_per_pair", "us"),
    ("transforms.bell.max_residual", "ratio"),
    ("transforms.biholo.calls", "count"),
    ("transforms.biholo.s", "s"),
    ("transforms.biholo.us_per_pair", "us"),
    ("transforms.biholo.max_residual", "ratio"),
    ("polynomials.identities.s", "s"),
    ("analysis.thin_nonvanishing.s", "s"),
    ("analysis.diagonal_ratio.s", "s"),
    ("analysis.delta_rate.s", "s"),
    ("analysis.ramadanov.s", "s"),
    *((f"acceptance.c{i:02d}.s", "s") for i in range(1, 11)),
    ("acceptance.pairs.calls", "count"),
    ("acceptance.pairs.pairs", "count"),
    ("acceptance.pairs.s", "s"),
    ("cli.series_compare.s", "s"),
    ("cli.bell_check.s", "s"),
    ("cli.biholo_check.s", "s"),
    ("cli.asymptotics.s", "s"),
    ("cli.emit.s", "s"),
    ("cli.emit.bytes", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.units", "count"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
)


def _rate(num: float, den: float) -> float:
    return num / den if den > 0.0 else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, units: int, costs: tuple[float, float]) -> dict:
    """Per-layer metrics from the recorded spans of a run whose units took wall_s in all."""
    by_name: dict[str, list[Span]] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)

    def spans(name):
        return by_name.get(name, [])

    def total(name, what="duration"):
        return sum(getattr(s, what) for s in spans(name))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in spans(name))

    def attr_max(name, key):
        return max((s.attrs.get(key, 0) for s in spans(name)), default=0)

    out = {}
    for name in {n for n, _ in LAYER_METRICS if n.endswith(".s")}:
        out[name] = total(name[: -len(".s")])
    for name in {n for n, _ in LAYER_METRICS if n.endswith(".calls")}:
        out[name] = len(spans(name[: -len(".calls")]))
    out["domain.sample.points"] = attr_sum("domain.sample", "points")
    out["domain.sample.points_per_s"] = _rate(out["domain.sample.points"], out["domain.sample.s"])
    out["domain.sample.share"] = _rate(total("domain.sample", "self_s"), wall_s)
    out["kernels.num_den.elements"] = attr_sum("kernels.num_den", "elements")
    out["kernels.num_den.elements_per_s"] = _rate(
        out["kernels.num_den.elements"], out["kernels.num_den.s"]
    )
    out["kernels.num_den.computed_bytes"] = attr_sum("kernels.num_den", "computed_bytes")
    out["kernels.scalar.us_per_call"] = 1e6 * _rate(out["kernels.scalar.s"], out["kernels.scalar.calls"])
    out["kernels.near_singular"] = attr_sum("kernels.scalar", "near_singular")
    series_ms = sorted(1e3 * s.duration for s in spans("oracle.series"))
    out["oracle.series.p50_ms"] = quantile(series_ms, 0.5) if series_ms else 0.0
    out["oracle.series.p99_ms"] = quantile(series_ms, 0.99) if series_ms else 0.0
    out["oracle.series.max_ms"] = series_ms[-1] if series_ms else 0.0
    out["oracle.series.terms"] = attr_sum("oracle.series", "terms")
    out["oracle.series.rect_max"] = attr_max("oracle.series", "rect")
    out["oracle.series.doublings"] = attr_sum("oracle.series", "doublings")
    out["oracle.reproducing.self_s"] = total("oracle.reproducing", "self_s")
    out["oracle.reproducing.excluded"] = attr_sum("oracle.reproducing", "excluded")
    out["oracle.inner_product.self_s"] = total("oracle.inner_product", "self_s")
    out["oracle.inner_product.samples"] = attr_sum("oracle.inner_product", "samples")
    for layer in ("transforms.bell", "transforms.biholo"):
        out[f"{layer}.us_per_pair"] = 1e6 * _rate(out[f"{layer}.s"], out[f"{layer}.calls"])
        out[f"{layer}.max_residual"] = attr_max(layer, "residual")
    out["acceptance.pairs.pairs"] = attr_sum("acceptance.pairs", "pairs")
    out["cli.emit.bytes"] = attr_sum("cli.emit", "bytes")
    span_cost, pass_cost = costs
    out["trace.wall_s"] = wall_s
    out["trace.units"] = units
    out["trace.overhead_s"] = len(tracer.spans) * span_cost + tracer.passthrough * pass_cost
    top = sum(s.duration for s in tracer.spans if s.parent is None)
    out["trace.unattributed_s"] = wall_s - top
    return {name: out[name] for name, _ in LAYER_METRICS}
