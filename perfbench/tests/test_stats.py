import statistics

import pytest

from stats import PROBE_NOMINAL_S, Tally, at_reference_speed, checksum_mismatches, quantile, summarize


def test_summary_matches_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.0]
    s = summarize(values)
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert (s.q1, s.median, s.q3, s.n) == (q1, med, q3, 10)
    assert s.median == statistics.median(values)
    assert s.spread == pytest.approx((q3 - q1) / med)


def test_summary_of_one_value_has_no_spread():
    s = summarize([2.5])
    assert (s.median, s.q1, s.q3, s.n, s.spread) == (2.5, 2.5, 2.5, 1, 0.0)


def test_quantile_interpolates_sorted_values():
    xs = [0.0, 10.0, 20.0, 30.0]
    assert quantile(xs, 0.0) == 0.0
    assert quantile(xs, 1.0) == 30.0
    assert quantile(xs, 0.5) == 15.0
    assert quantile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        quantile([], 0.5)


def test_tally_counts_misses_and_exceptions():
    t = Tally()
    t.check(True, 8)
    t.check(False)
    t.fail(3, "crashed")
    assert (t.attempted, t.failed) == (12, 4)
    assert t.failed_share == pytest.approx(4 / 12)
    assert t.errors == ["crashed"]
    assert Tally().failed_share == 0.0


def rec(tree, key, sha):
    return {"tree": tree, "key": key, "sha": sha}


def test_checksum_mismatch_within_a_tree_is_flagged():
    history = [rec("A", "grid:1", "x"), rec("A", "grid:3", "y")]
    same, other = checksum_mismatches(history, [rec("A", "grid:1", "z"), rec("A", "grid:3", "y")])
    assert same == ["grid:1"]
    assert other == []


def test_checksum_change_across_trees_is_only_reported():
    same, other = checksum_mismatches([rec("A", "battery", "x")], [rec("B", "battery", "z")])
    assert same == []
    assert other == ["battery"]


def test_checksum_mismatch_inside_one_run_is_flagged():
    same, _ = checksum_mismatches([], [rec("A", "battery", "x"), rec("A", "battery", "y")])
    assert same == ["battery"]


def test_equal_checksums_are_not_flagged():
    history = [rec("A", "battery", "x"), rec("B", "battery", "x")]
    assert checksum_mismatches(history, [rec("A", "battery", "x")]) == ([], [])


def test_rescaling_cancels_a_uniform_slowdown():
    # A machine running 30% slow stretches the unit and the probe alike.
    assert at_reference_speed(1.3, 1.3 * PROBE_NOMINAL_S) == pytest.approx(1.0)
    assert at_reference_speed(1.3, None) == 1.3
