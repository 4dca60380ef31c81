import json
import sys
from pathlib import Path

import pytest

import run
from stats import PROBE_NOMINAL_S
import spans
import workloads
from spans import Tracer, layer_metrics


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_nested_children():
    # outer [0, 10] holds a [1, 4] (which holds b [2, 3]) and b [5, 7].
    tracer = Tracer(clock=fake_clock([0, 1, 2, 3, 4, 5, 7, 10]))
    outer = tracer.open("outer")
    a = tracer.open("a")
    b = tracer.open("b")
    tracer.close(b)
    tracer.close(a)
    b2 = tracer.open("b")
    tracer.close(b2)
    tracer.close(outer)
    by = {(s.name, s.start): s for s in tracer.spans}
    assert by[("outer", 0)].self_s == 10 - 3 - 2
    assert by[("a", 1)].self_s == 3 - 1
    assert by[("b", 2)].self_s == 1
    assert by[("outer", 0)].parent is None
    assert by[("b", 2)].parent == tracer.spans.index(by[("a", 1)])


def test_reentering_an_open_span_passes_through():
    tracer = Tracer()

    def inner():
        return 1

    wrapped_inner = tracer.wrap("kernels.scalar", inner)

    def outer():
        return wrapped_inner() + 1

    assert tracer.wrap("kernels.scalar", outer)() == 2
    assert [s.name for s in tracer.spans] == ["kernels.scalar"]
    assert tracer.passthrough == 1


def test_exception_closes_the_span():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("x", boom)()
    assert tracer.stack == []
    assert tracer.spans[0].end >= tracer.spans[0].start


def test_install_rebinds_imported_names_and_restore_undoes_it():
    import hartogs_bergman.acceptance as acceptance
    import hartogs_bergman.cli as cli
    import hartogs_bergman.domain as domain
    import hartogs_bergman.oracle as oracle

    before = (oracle._fill_uniform, cli._pairs, acceptance.kernel_series, acceptance.ALL_CRITERIA,
              dict(cli._COMMANDS), cli._emit)
    tracer = Tracer()
    spans.install(tracer)
    try:
        assert oracle._fill_uniform is not before[0]
        assert oracle._fill_uniform.__wrapped__ is before[0]
        assert domain._fill_uniform is oracle._fill_uniform
        assert cli._pairs is acceptance._pairs
        z1, _ = domain.sample_uniform_arrays(domain.DomainSpec.fat(2), 10, 0)
    finally:
        tracer.restore()
    assert len(z1) == 10
    # sample_uniform_arrays calls _fill_uniform: one span, one pass-through.
    assert [s.name for s in tracer.spans] == ["domain.sample"]
    assert tracer.spans[0].attrs["points"] == 10
    after = (oracle._fill_uniform, cli._pairs, acceptance.kernel_series, acceptance.ALL_CRITERIA,
             dict(cli._COMMANDS), cli._emit)
    assert after == before


def test_unattributed_time_is_wall_minus_top_level_spans():
    tracer = Tracer(clock=fake_clock([0, 2, 3, 5]))
    tracer.close(tracer.open("acceptance.c01"))
    tracer.close(tracer.open("acceptance.c02"))
    m = layer_metrics(tracer, wall_s=6.0, units=1, costs=(0.0, 0.0))
    assert m["acceptance.c01.s"] == 2
    assert m["acceptance.c02.s"] == 2
    assert m["trace.unattributed_s"] == 2


def test_battery_crash_counts_unfinished_criteria_as_failed(monkeypatch, tmp_path):
    import hartogs_bergman.acceptance as acceptance

    def crashing_run_all(log=None):
        print("[PASS] criterion 1 (exact-identities): ok [0.1s]", file=log)
        raise RuntimeError("rejection sampling failed to converge")

    monkeypatch.setattr(acceptance, "run_all", crashing_run_all)
    ctx = workloads.Context(1, str(tmp_path))
    unit = workloads.battery(ctx, 0)
    assert unit.ops == len(acceptance.ALL_CRITERIA) == 10
    assert (ctx.tally.attempted, ctx.tally.failed) == (10, 9)
    assert "RuntimeError" in ctx.tally.errors[0]


@pytest.mark.parametrize(
    "error", [ArithmeticError("tail bound still above tolerance"), SystemExit(1)]
)
def test_cli_exception_fails_every_pair_of_the_call(monkeypatch, tmp_path, error):
    import hartogs_bergman.cli as cli

    def crashing_main(argv):
        if argv[2] == "series-compare":
            raise error
        return cli_main(argv)

    cli_main = cli.main
    monkeypatch.setattr(cli, "main", crashing_main)
    monkeypatch.setattr(workloads, "BELL_PAIRS", 5)
    monkeypatch.setattr(workloads, "BIHOLO_PAIRS", 5)
    ctx = workloads.Context(1, str(tmp_path))
    unit = workloads.pair_checks(ctx, 0)
    series = len(workloads.SERIES_SPECS) * workloads.SERIES_PAIRS
    assert unit.ops == ctx.tally.attempted
    assert ctx.tally.failed == series
    assert ctx.tally.failed_share == pytest.approx(series / unit.ops)


def test_benchmark_json_lists_every_printed_metric():
    bench = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    printed = [*spans.LAYER_METRICS, *workloads.CHECK_METRICS, ("check.checksum_mismatches", "count")]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == printed
    fake = {"units": [{"s": 2.0, "probe_s": None, "ops": 4}], "attempted": 4, "failed": 1,
            "peak_rss_mb": 1.0}
    e2e = run.end_to_end(fake, [{"setup_s": 0.2, "setup_probe_s": PROBE_NOMINAL_S}])
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == [(k, u) for k, (_, u) in e2e.items()]
    assert e2e["setup_s"][0] == pytest.approx(0.2)
    assert (e2e["wall_s"][0], e2e["ops_per_s"][0]) == (2.0, 2.0)
    assert e2e["passed_share"][0] == 0.75
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
