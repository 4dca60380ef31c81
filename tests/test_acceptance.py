"""Acceptance battery: one test per headline criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines as they complete (criterion 7 draws 10^7 Monte Carlo
samples per domain and dominates the runtime).
"""

import numpy as np
import pytest

from hartogs_bergman import acceptance, domain, kernels
from hartogs_bergman.acceptance import (ALL_CRITERIA, criterion_3_thin_resolution,
                                        criterion_8_basis_norms, series_deviations)
from hartogs_bergman.domain import DomainSpec, Point2C
from hartogs_bergman.kernels import SingularEvaluation, bergman_reference, bergman_thin
from hartogs_bergman.transforms import invariance_sides


@pytest.mark.parametrize(
    "number,name,runner", ALL_CRITERIA, ids=[f"c{num:02d}-{name}" for num, name, _ in ALL_CRITERIA]
)
def test_criterion(number, name, runner):
    result = runner()
    status = "PASS" if result.passed else "FAIL"
    print(
        f"[{status}] criterion {result.number} ({result.name}): "
        f"{result.details} [{result.elapsed_s:.2f}s]"
    )
    assert result.passed, f"criterion {number} ({name}): {result.details}"


def test_basis_norms_draw_one_stream_per_domain(monkeypatch):
    # All inner products of a domain share one 2e5-point stream, drawn in
    # one chunk of oracle._CHUNK = 131,072 samples and the rest.
    drawn = []
    original = domain._fill_uniform

    def counting(rng, spec, n):
        drawn.append((str(spec), n))
        return original(rng, spec, n)

    monkeypatch.setattr(domain, "_fill_uniform", counting)
    assert criterion_8_basis_norms().passed
    assert drawn == [(text, n) for text in ("classical", "fat:2", "fat:3", "thin:2", "thin:3")
                     for n in (131_072, 68_928)]


def test_criterion_3_sides_match_the_scalar_kernels(monkeypatch):
    # On criterion 3's 75 pairs and for both variants, the array rule's two sides
    # agree with the one-pair kernels it replaced: bergman_thin, a one-element row
    # of the same array path, bit for bit, and the punctured bidisc kernel pulled
    # back through the map's images and Jacobians, whose products are Python's.
    calls = []

    def recording(m, src, dst, *columns, thin_variant):
        sides = invariance_sides(m, src, dst, *columns, thin_variant=thin_variant)
        calls.append((m, src, dst, columns, thin_variant, sides))
        return sides

    monkeypatch.setattr(acceptance, "invariance_sides", recording)
    assert criterion_3_thin_resolution().passed
    assert [(src.k, variant) for _, src, _, _, variant, _ in calls] == [
        (k, v) for k in (2, 3, 4) for v in ("1-t", "1-s")]
    bound = 16.0 * np.finfo(float).eps
    for m, src, dst, (z1, z2, w1, w2), variant, (value, pull) in calls:
        assert len(z1) == 25
        for i in range(25):
            z, w = Point2C(z1[i], z2[i]), Point2C(w1[i], w2[i])
            assert value[i] == bergman_thin(src.k, z, w, variant=variant).value
            want = (m.jacobian(z) * bergman_reference(dst, m.image(z), m.image(w)).value
                    * m.jacobian(w).conjugate())
            assert abs(pull[i] - want) <= bound * abs(want)


def test_criterion_3_raises_on_a_near_singular_evaluation(monkeypatch):
    # Like criteria 4 and 5, criterion 3 reads the invariance rule's flags.
    monkeypatch.setattr(kernels, "NEAR_SINGULAR_THRESHOLD", 1e300)
    with pytest.raises(SingularEvaluation, match="invariance rule"):
        criterion_3_thin_resolution()


def test_pair_filter_builds_points_only_for_kept_pairs(monkeypatch):
    # The max_mod filter reads (s, t) alone, so only the 25 kept pairs
    # become Point2C objects, however many candidates it rejects.
    built = []

    def counting(z1, z2):
        built.append((z1, z2))
        return Point2C(z1, z2)

    monkeypatch.setattr(acceptance, "Point2C", counting)
    rows = series_deviations(DomainSpec.fat(2), 25, seed=1002)
    assert len(rows) == 25
    assert len(built) == 50


@pytest.mark.parametrize("spec", [DomainSpec.classical(), DomainSpec.fat(3), DomainSpec.thin(2)], ids=str)
def test_pairs_are_rows_i_and_512_plus_i_of_each_chunk(spec):
    # 700 pairs span two chunks; the filter keeps ~8-42% of them, so 40 chunks hold 700 kept.
    n, seed = 700, 41

    def near(s, t):
        return np.abs(t) < 0.5

    chunks = domain.sample_chunks(spec, 40 * 1024, seed, 1024)
    rows = np.concatenate([np.stack([z1[:512], z2[:512], z1[512:], z2[512:]], 1) for z1, z2 in chunks])
    # keep sees s and t as kernel forms them, in Python complex.
    s, t = (np.array([a * b.conjugate() for a, b in zip(rows[:, i].tolist(), rows[:, i + 2].tolist())])
            for i in (0, 1))
    pairs = acceptance._pairs(spec, n, seed)
    assert len(pairs) == n
    assert np.array_equal(pairs, rows[:n])
    kept = acceptance._pairs(spec, n, seed, keep=near)
    assert len(kept) == n
    assert np.array_equal(kept, rows[near(s, t)][:n])
    assert np.count_nonzero(near(s, t)) >= n


@pytest.mark.parametrize("spec", [DomainSpec.classical(), DomainSpec.fat(2), DomainSpec.thin(2)], ids=str)
def test_small_t_share_is_the_observed_share(spec):
    # 40 chunks of 512 pairs: the observed share of |t| <= 0.4 lies within
    # 5 standard errors of the closed form.
    pairs = acceptance._pairs(spec, 40 * 512, seed=17)
    _, t = acceptance.pair_invariants(*pairs.T)
    observed = np.mean(np.abs(t) <= 0.4)
    p = acceptance._small_t_share(spec, 0.4)
    assert abs(observed - p) <= 5.0 * np.sqrt(p * (1.0 - p) / len(pairs))
    assert acceptance._small_t_share(spec, 1.0) == 1.0


def test_pair_round_cap_still_ends_a_filter_the_bound_admits(monkeypatch):
    monkeypatch.setattr(acceptance, "_PAIR_ROUNDS", 3)

    def none(s, t):
        return np.zeros(len(s), dtype=bool)

    with pytest.raises(ValueError, match=r"^pair filter on fat:2 accepted 0 of 1 pairs$"):
        acceptance._pairs(DomainSpec.fat(2), 1, seed=1, keep=none)


def _stub(number, calls):
    def criterion():
        calls.append(number)
        return acceptance.CriterionResult(number, f"stub-{number}", True, "ok", 0.0)

    return criterion


def test_run_all_without_selection_runs_every_criterion_in_order(monkeypatch):
    calls = []
    stubs = tuple((n, f"stub-{n}", _stub(n, calls)) for n in (1, 2, 3))
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", stubs)
    results = acceptance.run_all()
    assert calls == [1, 2, 3]
    assert [r.number for r in results] == [1, 2, 3]


@pytest.mark.parametrize("numbers", [[], [11], [1, 11]], ids=repr)
def test_run_all_rejects_a_selection_naming_no_criterion(monkeypatch, numbers):
    calls = []
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", ((1, "stub-1", _stub(1, calls)),))
    with pytest.raises(ValueError, match="criterion numbers"):
        acceptance.run_all(numbers)
    assert calls == []


def test_criteria_are_declared_in_order():
    assert [(n, fn.__name__.split("_")[1]) for n, _, fn in ALL_CRITERIA] == [
        (n, str(n)) for n in range(1, 11)
    ]


def test_declaration_registers_times_and_applies_the_budget(monkeypatch):
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", ())

    @acceptance._criterion(11, "over-budget", budget_s=0.0)
    def late():
        return True, "done"

    @acceptance._criterion(12, "unbounded")
    def free():
        return True, "done"

    assert acceptance.ALL_CRITERIA == ((11, "over-budget", late), (12, "unbounded", free))
    result = late()
    assert (result.number, result.name, result.passed, result.details) == (11, "over-budget", False, "done")
    assert result.elapsed_s >= 0.0
    assert free().passed is True
