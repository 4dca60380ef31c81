import concurrent.futures
import hashlib
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import Future, ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import dblquad

from hartogs_bergman import (
    DomainSpec,
    Point2C,
    bergman_fat,
    bergman_thin,
)
from hartogs_bergman import acceptance, cli, domain, kernels, oracle
from hartogs_bergman.domain import (DomainError, _fill_uniform, sample_chunks, sample_uniform_arrays,
                                    volume)
from hartogs_bergman.kernels import SingularEvaluation, kernel_num_den, pair_invariants
from hartogs_bergman.oracle import (
    Monomial,
    NonconvergentTruncation,
    b_min,
    basis_norms,
    inner_product_mc,
    inner_products_mc,
    is_admissible,
    kernel_series,
    monomial_norm_sq,
    parse_function,
    reproducing_check,
    series_row_sums,
)

PI_SQ = math.pi**2

# The two Monte Carlo integrators, which read their samples through one engine.
INTEGRATORS = ["reproducing", "inner_products"]


@pytest.fixture
def small_chunks(monkeypatch):
    """Chunks of 10^4 samples in the one stream both integrators read, so that a 25,000- or
    30,001-sample stream spans several."""
    monkeypatch.setattr(oracle, "_CHUNK", 10_000)


class _Synchronous:
    """A stand-in for ThreadPoolExecutor that runs each task at once on the submitting thread.

    The stream is still drawn one chunk ahead, but every block is evaluated
    on the caller, so a memory peak does not depend on how the two threads'
    blocks overlap."""

    def __init__(self, *args, **kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:
            future.set_exception(exc)
        return future


def _traced_peak(call, *args, **kwargs):
    """Peak bytes tracemalloc sees while ``call`` runs."""
    tracemalloc.start()
    try:
        call(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def quadrature_norm_sq(spec, a, b):
    """Independent oracle: 2D quadrature of |z1^a z2^b|^2 in the moduli."""
    g = float(spec.gamma)
    val, _ = dblquad(
        lambda r1, r2: 4.0 * PI_SQ * r1 ** (2 * a + 1) * r2 ** (2 * b + 1),
        0.0,
        1.0,
        lambda r2: 0.0,
        lambda r2: r2 ** (1.0 / g),
    )
    return val


class TestAdmissibility:
    def test_classical_examples(self):
        spec = DomainSpec.classical()
        assert is_admissible(spec, 0, -1)  # 2(-1) + 2 + 2 = 2 > 0
        assert not is_admissible(spec, 0, -2)  # exactly 0: excluded by strictness
        assert not is_admissible(spec, -1, 0)

    def test_b_min_exact(self):
        assert b_min(DomainSpec.classical(), 0) == -1
        assert b_min(DomainSpec.thin(2), 0) == -2
        assert b_min(DomainSpec.thin(2), 3) == -8  # must exceed -1 - 4*2 = -9
        assert b_min(DomainSpec.fat(2), 0) == -1
        assert b_min(DomainSpec.fat(3), 4) == -2  # bound -1 - 5/3

    @pytest.mark.parametrize(
        "spec", [DomainSpec.fat(k) for k in range(1, 9)] + [DomainSpec.thin(k) for k in range(2, 6)],
        ids=str,
    )
    def test_b_min_matches_fraction_formula(self, spec):
        g = spec.gamma
        for a in range(3000):
            expected = math.floor(Fraction(-1) - Fraction(a + 1) / g) + 1
            got = b_min(spec, a)
            assert type(got) is int
            assert got == expected

    def test_enumeration_matches_b_min(self):
        spec = DomainSpec.fat(2)
        idx = basis_norms(spec, 3, 2)
        for a in range(4):
            smallest = min(m.b for m in idx if m.a == a)
            assert smallest == b_min(spec, a)
            assert not is_admissible(spec, a, smallest - 1)


class TestNormFormula:
    def test_frozen_examples(self):
        assert monomial_norm_sq(DomainSpec.classical(), 0, 0) == pytest.approx(PI_SQ / 2)
        assert monomial_norm_sq(DomainSpec.classical(), 0, -1) == pytest.approx(PI_SQ)
        assert monomial_norm_sq(DomainSpec.fat(2), 0, 0) == pytest.approx(2.0 * PI_SQ / 3.0)

    @pytest.mark.parametrize(
        "spec,a,b",
        [
            (DomainSpec.classical(), 0, 0),
            (DomainSpec.classical(), 0, -1),
            (DomainSpec.classical(), 2, 1),
            (DomainSpec.fat(2), 0, 0),
            (DomainSpec.fat(2), 1, -1),
            (DomainSpec.fat(3), 2, 0),
            (DomainSpec.thin(2), 0, -2),
            (DomainSpec.thin(3), 1, 2),
        ],
    )
    def test_against_quadrature(self, spec, a, b):
        assert monomial_norm_sq(spec, a, b) == pytest.approx(
            quadrature_norm_sq(spec, a, b), rel=1e-8
        )

    def test_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            monomial_norm_sq(DomainSpec.classical(), 0, -2)


class TestSeries:
    def test_classical_axis_value(self):
        z = Point2C(0.0, 1.0 / math.sqrt(2.0))
        value, trunc = kernel_series(DomainSpec.classical(), z, z, a_max=200, b_max=200, tol=None)
        assert value.real == pytest.approx(8.0 / PI_SQ, abs=1e-6)
        assert trunc.terms_used > 0

    def test_fat2_matches_closed_form_tightly(self):
        spec = DomainSpec.fat(2)
        z1, z2 = sample_uniform_arrays(spec, 40, seed=17)
        checked = 0
        for i in range(20):
            z = Point2C(z1[i], z2[i])
            w = Point2C(z1[20 + i], z2[20 + i])
            s = abs(z.z1 * w.z1)
            t = abs(z.z2 * w.z2)
            if s > 0.4 or t > 0.4:
                continue
            closed = bergman_fat(2, z, w).value
            series, _ = kernel_series(spec, z, w, tol=1e-12)
            assert abs(series - closed) / abs(closed) <= 1e-8
            checked += 1
        assert checked >= 3

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_thin_matches_closed_form(self, k):
        # |z2| concentrates near 1 on the thin triangles (marginal density
        # ~ r2^(2k+1)), so the moduli cap stays loose to keep enough pairs.
        spec = DomainSpec.thin(k)
        z1, z2 = sample_uniform_arrays(spec, 600, seed=70 + k)
        checked = 0
        for i in range(300):
            z = Point2C(z1[i], z2[i])
            w = Point2C(z1[300 + i], z2[300 + i])
            if abs(z.z2 * w.z2) > 0.8 or checked == 60:
                continue
            closed = bergman_thin(k, z, w).value
            try:
                series, _ = kernel_series(spec, z, w, tol=1e-9)
            except NonconvergentTruncation:
                continue  # boundary-adjacent pair, certified unaffordable
            assert abs(series - closed) / abs(closed) <= 1e-6
            checked += 1
        assert checked >= 50

    def test_resolves_thin_denominator(self):
        # The series is the authority: it matches the (1-t)^2 variant only.
        spec = DomainSpec.thin(2)
        z, w = Point2C(0.05, 0.6), Point2C(0.1, 0.55)
        series, _ = kernel_series(spec, z, w, tol=1e-10)
        good = bergman_thin(2, z, w, variant="1-t").value
        bad = bergman_thin(2, z, w, variant="1-s").value
        assert abs(series - good) / abs(good) <= 1e-8
        assert abs(series - bad) / abs(bad) > 1e-2

    def test_conjugate_symmetry_exact(self):
        spec = DomainSpec.fat(3)
        z = Point2C(0.2 + 0.1j, 0.6 - 0.05j)
        w = Point2C(0.1 - 0.2j, 0.5 + 0.1j)
        a, _ = kernel_series(spec, z, w, a_max=64, b_max=64, tol=None)
        b, _ = kernel_series(spec, w, z, a_max=64, b_max=64, tol=None)
        assert a == b.conjugate()

    def test_diagonal_partial_sums_monotone(self):
        spec = DomainSpec.thin(2)
        z = Point2C(0.1, 0.6)
        values = [
            kernel_series(spec, z, z, a_max=n, b_max=n, tol=None)[0].real
            for n in (8, 16, 32, 64)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_tail_bound_is_sound(self):
        spec = DomainSpec.fat(2)
        z1, z2 = sample_uniform_arrays(spec, 20, seed=19)
        for i in range(10):
            z = Point2C(z1[i], z2[i])
            w = Point2C(z1[10 + i], z2[10 + i])
            small, trunc = kernel_series(spec, z, w, a_max=24, b_max=24, tol=None)
            big, _ = kernel_series(spec, z, w, a_max=512, b_max=512, tol=None)
            assert abs(big - small) <= trunc.tail_estimate * (1.0 + 1e-9)

    def test_nonconvergent_truncation_raises(self):
        spec = DomainSpec.fat(2)
        z = Point2C(0.3, 0.8)
        with pytest.raises(NonconvergentTruncation):
            kernel_series(spec, z, z, a_max=4, b_max=4, tol=1e-10)

    def test_auto_truncation_raises_at_the_row_cap(self, monkeypatch):
        # rho = |s|/|t| = 0.998 on the classical diagonal: the rows beyond 64
        # still carry ~0.998^65 of the mass; the tolerance needs ~10^4 rows.
        monkeypatch.setattr(oracle, "_MAX_ROWS", 64)
        z = Point2C(0.4995, 0.5)
        with pytest.raises(NonconvergentTruncation, match=r"at row 64$"):
            kernel_series(DomainSpec.fat(1), z, z, tol=1e-8)

    def test_rejects_half_specified_rectangle(self):
        with pytest.raises(ValueError):
            kernel_series(DomainSpec.fat(2), Point2C(0.1, 0.5), Point2C(0.1, 0.5), a_max=10)

    @pytest.mark.parametrize(
        "bounds", [dict(a_max=-1, b_max=5), dict(a_max=5, b_max=-3)], ids=repr
    )
    def test_negative_bound_raises(self, bounds):
        # b_max = -3 once certified 1.66e-7 with a negative tail bound; the
        # value is 0.465.
        z = Point2C(0.1, 0.5)
        with pytest.raises(ValueError, match="truncation bounds must be nonnegative"):
            kernel_series(DomainSpec.fat(2), z, z, tol=1e-8, **bounds)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0])
    @pytest.mark.parametrize("rect", [None, 40])
    def test_bad_tolerance_raises_at_once(self, tol, rect):
        spec = DomainSpec.fat(2)
        z = Point2C(0.1, 0.5)
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="series tolerance must be > 0"):
            kernel_series(spec, z, z, a_max=rect, b_max=rect, tol=tol)
        assert time.perf_counter() - t0 < 1.0


ROW_SUM_SPECS = [DomainSpec.fat(k) for k in (1, 2, 3, 4)] + [DomainSpec.thin(k) for k in (2, 3, 4)]


def _row_sum_pairs(spec):
    z1, z2 = sample_uniform_arrays(spec, 6, seed=5)
    return [(Point2C(z1[i], z2[i]), Point2C(z1[3 + i], z2[3 + i])) for i in range(3)]


class TestSeriesRowSums:
    """The closed-form row sums against the series written out term by term."""

    @pytest.mark.parametrize("spec", ROW_SUM_SPECS, ids=str)
    def test_explicit_mode_is_the_literal_rectangle(self, spec):
        n = 40
        norms = [(a, b, monomial_norm_sq(spec, a, b))
                 for a in range(n + 1) for b in range(b_min(spec, a), n + 1)]
        for z, w in _row_sum_pairs(spec):
            s = z.z1 * w.z1.conjugate()
            t = z.z2 * w.z2.conjugate()
            literal = sum(s**a * t**b / norm for a, b, norm in norms)
            value, trunc = kernel_series(spec, z, w, a_max=n, b_max=n, tol=None)
            assert abs(value - literal) <= 1e-13 * abs(literal)
            assert (trunc.a_max, trunc.b_max, trunc.terms_used) == (n, n, n + 1)

    @pytest.mark.parametrize("spec", ROW_SUM_SPECS, ids=str)
    def test_auto_mode_within_its_tail_of_a_large_rectangle(self, spec):
        # Both tail bounds are certified distances to the full series.  The
        # 400 x 400 rectangle is the explicit mode, matched term by term above.
        for z, w in _row_sum_pairs(spec):
            value, trunc = kernel_series(spec, z, w, tol=1e-10)
            rect, rect_trunc = kernel_series(spec, z, w, a_max=400, b_max=400, tol=None)
            tails = trunc.tail_estimate + rect_trunc.tail_estimate
            assert abs(value - rect) <= tails + 1e-13 * abs(rect)
            assert trunc.b_max is None
            assert trunc.terms_used == trunc.a_max + 1

    def test_zero_s_is_certified_by_the_first_row(self):
        # s = 0 leaves row 0 alone, summed in full however close |t| is to 1.
        z = Point2C(0.0, 0.99)
        value, trunc = kernel_series(DomainSpec.fat(2), z, z)
        assert (trunc.a_max, trunc.terms_used, trunc.tail_estimate) == (0, 1, 0.0)
        assert abs(value - bergman_fat(2, z, z).value) <= 1e-12 * abs(value)


# sha256 of float.hex of the tail bound at rows 0, 7, ..., 196 and b_max None, 0, 9, 40 over the
# row-sum pair families, recorded from the one-piece bound before its per-call part was split off.
TAIL_BOUND_DIGEST = "4cf122b6e9e1ed8e17642479372288c2f23ddf58632525f1dfae913dd39eed40"


class TestTailBoundSplit:
    """The per-call part of the tail bound is computed once, the per-row part at each row."""

    def test_bits_match_the_one_piece_bound(self):
        values = []
        for spec in ROW_SUM_SPECS:
            for z, w in _row_sum_pairs(spec):
                bound = oracle._tail_bound(spec, abs(z.z1 * w.z1.conjugate()),
                                           abs(z.z2 * w.z2.conjugate()))
                values += [bound(a, b).hex() for a in range(0, 200, 7) for b in (None, 0, 9, 40)]
        assert hashlib.sha256(" ".join(values).encode()).hexdigest() == TAIL_BOUND_DIGEST

    @pytest.mark.parametrize("spec", ROW_SUM_SPECS, ids=str)
    @pytest.mark.parametrize("tol", [1e-6, 1e-10])
    def test_auto_mode_stops_at_the_first_row_the_bound_passes(self, spec, tol):
        for z, w in _row_sum_pairs(spec):
            bound = oracle._tail_bound(spec, abs(z.z1 * w.z1.conjugate()), abs(z.z2 * w.z2.conjugate()))
            value, trunc = kernel_series(spec, z, w, tol=tol)
            assert trunc.tail_estimate == bound(trunc.a_max, None)
            assert trunc.tail_estimate <= tol * max(1.0, abs(value))
            assert trunc.terms_used == trunc.a_max + 1
            # No earlier row passed; its partial sum was within 1% of value.
            assert all(bound(a, None) > 0.99 * tol * max(1.0, abs(value)) for a in range(trunc.a_max))


EPS = np.finfo(float).eps


def _series_pairs(spec, seed, n=25):
    """The pairs series-compare draws by default: |s|, |t| <= 0.4."""
    def small(s, t):
        return (np.abs(s) <= 0.4) & (np.abs(t) <= 0.4)

    return acceptance._pairs(spec, n, seed, keep=small)


def _assert_matches_kernel_series(spec, pairs, tol=1e-10):
    # Identical rows and tail rows, and values within 8 rows eps of the scalar reference.
    values, rows, tails = series_row_sums(spec, *pair_invariants(*pairs.T), tol)
    for (z1, z2, w1, w2), value, used, tail in zip(pairs.tolist(), values, rows, tails):
        series, trunc = kernel_series(spec, Point2C(z1, z2), Point2C(w1, w2), tol=tol)
        assert used == trunc.terms_used
        assert tail <= tol * max(1.0, abs(value))
        assert abs(value - series) <= 8 * used * EPS * abs(series)
    return rows


class TestSeriesRowSumsOnArrays:
    """series_row_sums is kernel_series's auto mode, pair for pair."""

    @pytest.mark.parametrize("spec", ROW_SUM_SPECS, ids=str)
    def test_matches_kernel_series_over_forty_seeds(self, spec):
        for seed in range(3000, 3040):
            _assert_matches_kernel_series(spec, _series_pairs(spec, seed))

    @pytest.mark.parametrize("spec, seed, rows", [(DomainSpec.fat(1), 1403, 90_857),
                                                  (DomainSpec.thin(4), 10118, 24_528)], ids=str)
    def test_matches_kernel_series_as_rho_nears_one(self, spec, seed, rows):
        assert _assert_matches_kernel_series(spec, _series_pairs(spec, seed)).max() == rows

    def test_zero_s_is_certified_by_the_first_row(self):
        z = Point2C(0.0, 0.99)
        values, rows, tails = series_row_sums(DomainSpec.fat(2), [0j, 0.1j], [0.99**2, 0.25], 1e-8)
        assert (rows[0], tails[0]) == (1, 0.0)
        assert abs(values[0] - bergman_fat(2, z, z).value) <= 1e-12 * abs(values[0])
        assert rows[1] > 1

    def test_block_widths_change_no_row(self, monkeypatch):
        # Narrow blocks split every accumulation; the sums still run in one order.
        spec = DomainSpec.thin(4)
        pairs = _series_pairs(spec, 10118)
        values, rows, tails = series_row_sums(spec, *pair_invariants(*pairs.T), 1e-10)
        monkeypatch.setattr(oracle, "_ROW_BLOCK", 3)
        monkeypatch.setattr(oracle, "_BLOCK_CELLS", 50)
        narrow, narrow_rows, narrow_tails = series_row_sums(spec, *pair_invariants(*pairs.T), 1e-10)
        assert np.array_equal(rows, narrow_rows) and np.array_equal(tails, narrow_tails)
        assert np.all(np.abs(narrow - values) <= 8 * rows * EPS * np.abs(values))

    def test_values_do_not_depend_on_where_the_arrays_sit(self):
        spec = DomainSpec.fat(3)
        s, t = pair_invariants(*_series_pairs(spec, 3001).T)
        results = [series_row_sums(spec, s, t, 1e-10)]
        for offset in (1, 3):
            buf = np.zeros((2, len(s) + offset), dtype=np.complex128)
            buf[0, offset:], buf[1, offset:] = s, t
            results.append(series_row_sums(spec, buf[0, offset:], buf[1, offset:], 1e-10))
        assert all(a.tobytes() == b.tobytes() for r in results[1:] for a, b in zip(results[0], r))

    def test_row_cap_names_the_first_pair_that_reaches_it(self, monkeypatch):
        spec, cap = DomainSpec.fat(1), 64
        monkeypatch.setattr(oracle, "_MAX_ROWS", cap)
        pairs = _series_pairs(spec, 1403)
        expected = None
        for z1, z2, w1, w2 in pairs.tolist():
            try:
                kernel_series(spec, Point2C(z1, z2), Point2C(w1, w2), tol=1e-10)
            except NonconvergentTruncation as exc:
                expected = str(exc)
                break
        assert expected is not None and expected.endswith(f"at row {cap}")
        with pytest.raises(NonconvergentTruncation) as info:
            series_row_sums(spec, *pair_invariants(*pairs.T), 1e-10)
        assert str(info.value) == expected

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan])
    def test_bad_tolerance_raises_before_summing(self, monkeypatch, tol):
        monkeypatch.setattr(oracle, "_tail_factors", None)  # any summing would fail on it
        with pytest.raises(ValueError, match="series tolerance must be > 0"):
            series_row_sums(DomainSpec.fat(2), [0.01], [0.2], tol)

    def test_exponents_past_int64_raise_before_summing(self, monkeypatch):
        # thin:k has b_min(a) = -(a+1) k; a block forms b_min up to row _MAX_ROWS + 1.
        last = (2**63 - 1) // (oracle._MAX_ROWS + 2)
        monkeypatch.setattr(oracle, "_tail_factors", None)  # any summing would fail on it
        with pytest.raises(TypeError):
            series_row_sums(DomainSpec.thin(last), [0j], [0.5], 1e-8)
        with pytest.raises(ValueError, match=f"^b_min on thin:{last + 1} leaves int64 before row"):
            series_row_sums(DomainSpec.thin(last + 1), [0j], [0.5], 1e-8)

    def test_series_deviations_names_the_first_pair_outside(self, monkeypatch):
        spec = DomainSpec.fat(2)
        pairs = _series_pairs(spec, 3)
        pairs[3, 3] = 1.0  # w2 on the top face
        pairs[5, 1] = 1.0
        monkeypatch.setattr(acceptance, "_pairs", lambda *args, **kwargs: pairs)
        message = f"w ({pairs[3, 2]}, (1+0j)) is not inside fat:2"
        with pytest.raises(domain.DomainError, match=f"^{re.escape(message)}$"):
            acceptance.series_deviations(spec, 25, 3)


class TestFunctionParsing:
    def test_named_and_monomial_forms(self):
        assert parse_function("one") == Monomial(0, 0)
        assert parse_function("z1") == Monomial(1, 0)
        assert parse_function("z2") == Monomial(0, 1)
        assert parse_function("z2inv") == Monomial(0, -1)
        assert parse_function("z1^2*z2^-3") == Monomial(2, -3)

    def test_rejects_bad_forms(self):
        for bad in ("z3", "z1^a*z2^1", "z1^-1*z2^0", "z1*z2"):
            with pytest.raises(ValueError):
                parse_function(bad)


class TestMonteCarlo:
    def test_constant_inner_product_is_volume(self):
        est = inner_product_mc(DomainSpec.classical(), Monomial(0, 0), Monomial(0, 0), 10_000, seed=20)
        assert est.value.real == pytest.approx(PI_SQ / 2.0, rel=1e-12)
        assert est.std_error == 0.0

    def test_distinct_monomials_orthogonal(self):
        est = inner_product_mc(DomainSpec.classical(), Monomial(1, 0), Monomial(0, 1), 200_000, seed=21)
        assert abs(est.value) <= 3.0 * est.std_error

    def test_negative_power_norm(self):
        # ||z2^-1||^2 = pi^2 on the classical triangle.
        est = inner_product_mc(
            DomainSpec.classical(), Monomial(0, -1), Monomial(0, -1), 500_000, seed=22
        )
        assert abs(est.value - PI_SQ) <= 3.0 * est.std_error

    def test_normalized_monomials_orthonormal(self):
        spec = DomainSpec.fat(2)
        m1, m2 = Monomial(1, 0), Monomial(0, 1)
        n1 = monomial_norm_sq(spec, 1, 0)
        est = inner_product_mc(spec, m1, m1, 300_000, seed=23)
        assert abs(est.value / n1 - 1.0) <= 3.0 * est.std_error / n1
        cross = inner_product_mc(spec, m1, m2, 300_000, seed=24)
        assert abs(cross.value) <= 3.0 * cross.std_error

    def test_requires_minimum_samples(self):
        with pytest.raises(ValueError):
            inner_product_mc(DomainSpec.classical(), Monomial(0, 0), Monomial(0, 0), 10, seed=1)

    @pytest.mark.parametrize("f,g", [((0, -3), (0, 0)), ((0, 0), (0, -2))])
    def test_rejects_inadmissible_functions_before_sampling(self, monkeypatch, f, g):
        # z2^-3 and z2^-2 are not square-integrable on the classical triangle,
        # so their inner products do not exist.
        monkeypatch.setattr(domain, "_fill_uniform", None)
        with pytest.raises(ValueError, match="is not square-integrable on classical"):
            inner_product_mc(DomainSpec.classical(), Monomial(*f), Monomial(*g), 10_000, seed=1)


# repr((complex(value), std_error)) of inner_product_mc(spec, f, g, n,
# seed=11), recorded before the single-pair estimator became a wrapper over
# inner_products_mc; the std_errors were recorded again when the sums of
# squares left BLAS, whose rounding moved with its thread count, and the
# values again when the sums were grouped by evaluation block.
# n = 1_500_000 spans two default chunks.  Like
# GOLDEN_STREAMS in test_domain.py these depend on numpy's PCG64 stream and
# the platform libm (recorded with numpy 2.4 on x86-64 glibc).
GOLDEN_INNER_PRODUCTS = {
    ("fat:2", "one", "one", 20_000): "((6.579736267392905+0j), 0.0)",
    ("fat:2", "z1", "z2", 20_000): "((0.015248117574173261+0.0288870277869249j), 0.02319009100598043)",
    ("fat:2", "z1", "z2", 1_500_000): "((-0.0011671892468571952+0.0014244238186584372j), 0.0026856574165149594)",
    ("fat:2", "z2inv", "z2inv", 20_000): "((19.26340322844888+4.396356935906103e-18j), 0.6358481905066838)",
    ("fat:2", "z1^2*z2^1", "z1^1*z2^-1", 20_000): "((-0.012384374271308046-0.008182871171121372j), 0.016387699402434213)",
    ("thin:3", "one", "one", 20_000): "((2.4674011002723395+0j), 0.0)",
    ("thin:3", "z1", "z2", 20_000): "((0.005718044090314974+0.010832635420096841j), 0.008696284127242661)",
    ("thin:3", "z1", "z2", 1_500_000): "((-0.0004376959675714476+0.0005341589319969136j), 0.0010071215311931098)",
    ("thin:3", "z2inv", "z2inv", 20_000): "((3.2874470202989023-7.227330181052327e-19j), 0.008017860137984988)",
    ("thin:3", "z1^2*z2^1", "z1^1*z2^-1", 20_000): "((-0.003524002026004078-0.0038179806387443707j), 0.004831611434367238)",
    ("classical", "one", "one", 20_000): "((4.934802200544679+0j), 0.0)",
    ("classical", "z1", "z2", 20_000): "((0.011436088180629947+0.02166527084019368j), 0.017392568254485322)",
    ("classical", "z1", "z2", 1_500_000): "((-0.0008753919351428956+0.001068317863993827j), 0.0020142430623862197)",
    ("classical", "z2inv", "z2inv", 20_000): "((9.802240530559168-1.8265847668947383e-18j), 0.10289215334615665)",
    ("classical", "z1^2*z2^1", "z1^1*z2^-1", 20_000): "((-0.008228041134924065-0.007125401650517649j), 0.010999846979080264)",
}

# sha256 of the stdout of
# `inner-product --spec classical --f z2inv --g z2inv --n 1000000 --seed 5`.
GOLDEN_INNER_PRODUCT_REPORT = "1948932c5d6d3c25d981af2acbff04034c3781331c0a48898e9abf31abd0c188"


class TestInnerProductsBatch:
    @pytest.mark.parametrize("key", sorted(GOLDEN_INNER_PRODUCTS), ids=str)
    def test_golden_single_pair(self, key):
        text, f, g, n = key
        est = inner_product_mc(DomainSpec.parse(text), parse_function(f), parse_function(g), n, seed=11)
        assert repr((complex(est.value), est.std_error)) == GOLDEN_INNER_PRODUCTS[key]

    def test_golden_cli_report(self, capsys):
        code = cli.main(
            ["inner-product", "--spec", "classical", "--f", "z2inv", "--g", "z2inv",
             "--n", "1000000", "--seed", "5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_INNER_PRODUCT_REPORT

    @pytest.mark.usefixtures("small_chunks")  # the shared stream spans several chunks
    @pytest.mark.parametrize("text", ["fat:2", "thin:3", "classical"])
    def test_batch_matches_single_calls(self, text):
        spec = DomainSpec.parse(text)
        one, z1, z2, z2inv = (parse_function(t) for t in ("one", "z1", "z2", "z2inv"))
        pairs = [(one, one), (z1, z2), (z2inv, z2inv), (z1, z1), (z2, z1), (z2inv, one)]
        batch = inner_products_mc(spec, pairs, 25_000, seed=12)
        assert len(batch) == len(pairs)
        for (f, g), est in zip(pairs, batch):
            single = inner_product_mc(spec, f, g, 25_000, seed=12)
            assert repr(est) == repr(single)

    @pytest.mark.usefixtures("small_chunks")
    @pytest.mark.parametrize("text", ["fat:2", "thin:3", "classical"])
    def test_block_sums_match_a_full_array_reference(self, text):
        # 25,003 samples in chunks of 10^4 end every chunk in a partial
        # block.  The reference sums each pair's values over the whole
        # stream at once, with numpy's mean and two-pass variance.
        spec = DomainSpec.parse(text)
        n, seed = 25_003, 14
        pairs = [(parse_function(f), parse_function(g)) for f, g in (
            ("one", "one"), ("z1", "z2"), ("z2inv", "z2inv"), ("z1", "z1"), ("z2", "z1"),
            ("z1^2*z2^1", "z1^1*z2^-1"))]
        z1, z2 = (np.concatenate(c) for c in zip(*sample_chunks(spec, n, seed, oracle._CHUNK)))
        vol = volume(spec)
        for (f, g), est in zip(pairs, inner_products_mc(spec, pairs, n, seed)):
            vals = f(z1, z2) * np.conj(g(z1, z2))
            var = vals.real.var() + vals.imag.var()
            assert est.value == pytest.approx(vol * vals.mean(), rel=1e-12)
            assert est.std_error == pytest.approx(vol * math.sqrt(var / n), rel=1e-12)

    def test_memory_does_not_grow_with_the_pairs(self, monkeypatch):
        # Criterion 8's fat:2 call, 10 norms and 10 cross pairs on 2·10^5
        # samples, may not peak 1 MiB above its first pair alone on the same
        # stream: the functions are evaluated one block at a time, not on
        # the whole chunk.  The two are compared with every block on the
        # caller, as in test_reproducing_batch_memory_does_not_grow_with_points;
        # on two threads the call stays far below the 46 MiB that
        # whole-chunk function values took.
        spec = DomainSpec.fat(2)
        monomials = acceptance._variance_safe_monomials(spec, 10)
        cross = [(f, g) for i, f in enumerate(monomials) for g in monomials[i + 1:]
                 if is_admissible(spec, f.a + g.a, f.b + g.b)][:10]
        pairs = [(m, m) for m in monomials] + cross
        assert len(pairs) == 20
        assert _traced_peak(inner_products_mc, spec, pairs, 200_000, seed=7100) <= 12 * 2**20
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _Synchronous)
        many, one = (_traced_peak(inner_products_mc, spec, p, 200_000, seed=7100)
                     for p in (pairs, pairs[:1]))
        assert many - one < 2**20

    @pytest.mark.usefixtures("small_chunks")
    def test_holds_about_two_chunks(self, monkeypatch):
        # Five chunks may not peak 1.5 chunks (z1 and z2, 2 · 16 bytes per
        # sample) above one: the engine holds the chunk being evaluated and
        # the one drawn ahead, and lets each go before the draw after it, so
        # a third chunk held would show as two.  Every block runs on the
        # caller, so the peak does not depend on how the helper's blocks
        # overlap the caller's.
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _Synchronous)
        spec = DomainSpec.classical()
        pairs = [(Monomial(1, 0), Monomial(0, 1))]
        one, several = (_traced_peak(inner_products_mc, spec, pairs, n, seed=15)
                        for n in (10_000, 50_000))
        assert several - one < 1.5 * 2 * 16 * oracle._CHUNK

    def test_constant_pair_is_exact_volume(self):
        spec = DomainSpec.thin(2)
        one = Monomial(0, 0)
        est = inner_products_mc(spec, [(Monomial(1, 0), one), (one, one)], 5_000, seed=13)[1]
        assert est.std_error == 0.0
        assert est.value == volume(spec)

    def test_requires_minimum_samples(self):
        with pytest.raises(ValueError):
            inner_products_mc(DomainSpec.classical(), [(Monomial(0, 0), Monomial(0, 0))], 999, seed=1)


class TestReproducing:
    def test_fat2_constant(self):
        rep = reproducing_check(DomainSpec.fat(2), Monomial(0, 0), Point2C(0.1, 0.5), 1_000_000, seed=31)
        assert rep.residual <= 0.02
        assert rep.expected == 1.0

    def test_classical_z1(self):
        rep = reproducing_check(
            DomainSpec.classical(), Monomial(1, 0), Point2C(0.2, 0.6), 1_000_000, seed=32
        )
        assert rep.residual <= 0.02

    def test_fat2_heavy_tail(self):
        rep = reproducing_check(
            DomainSpec.fat(2), Monomial(0, -1), Point2C(0.1, 0.5), 2_000_000, seed=33
        )
        assert rep.residual <= 0.05

    def test_thin2_uses_resolved_variant(self):
        rep = reproducing_check(DomainSpec.thin(2), Monomial(0, 0), Point2C(0.05, 0.6), 500_000, seed=34)
        assert rep.residual <= 0.05

    def test_rejects_inadmissible_function(self):
        with pytest.raises(ValueError):
            reproducing_check(
                DomainSpec.classical(), Monomial(0, -2), Point2C(0.1, 0.5), 10_000, seed=1
            )

    def test_near_singular_samples_are_excluded(self, monkeypatch):
        # A threshold at the median |den| flags half of one stream; exactly
        # those samples must drop out of the average.
        spec, z, n, seed = DomainSpec.fat(2), Point2C(0.1, 0.5), 10_000, 35
        w1, w2 = sample_uniform_arrays(spec, n, seed)
        num, den = kernel_num_den(spec, z.z1 * np.conj(w1), z.z2 * np.conj(w2))
        threshold = float(np.median(np.abs(den)))
        ok = np.abs(den) >= threshold
        monkeypatch.setattr(kernels, "NEAR_SINGULAR_THRESHOLD", threshold)
        rep = reproducing_check(spec, Monomial(0, 0), z, n, seed)
        assert rep.excluded == n - ok.sum() > 0
        expected = volume(spec) * np.sum(num[ok] / den[ok]) / ok.sum()
        assert rep.estimate == pytest.approx(expected, rel=1e-12)

    def test_every_sample_excluded_raises(self, monkeypatch):
        # Nothing is left to average: the check fails and names the point, not
        # a division by zero.
        monkeypatch.setattr(kernels, "NEAR_SINGULAR_THRESHOLD", 1e300)
        with pytest.raises(SingularEvaluation, match=r"^all 2000 samples are near-singular at "
                                                     r"evaluation point \(\(0\.1\+0j\), \(0\.5\+0j\)\)$"):
            reproducing_check(DomainSpec.fat(2), Monomial(0, 0), Point2C(0.1, 0.5), 2_000, seed=1)


class TestEmptyInputs:
    """Nothing to estimate returns at once, after the same validation, with no sample drawn."""

    SPEC = DomainSpec.fat(2)
    Z = Point2C(0.1, 0.5)

    @pytest.fixture(autouse=True)
    def no_draw(self, monkeypatch):
        def drew(*args):
            raise AssertionError("drew samples")

        monkeypatch.setattr(domain, "_fill_uniform", drew)

    def test_reproducing_without_functions_or_points(self):
        one = Monomial(0, 0)
        batch = oracle.reproducing_residuals_batch
        assert batch(self.SPEC, (), (self.Z,), 10**7, seed=1) == []
        assert batch(self.SPEC, (one, one), (), 10**7, seed=1) == [[], []]
        assert batch(self.SPEC, (), (), 10**7, seed=1) == []

    def test_inner_products_without_pairs(self):
        assert inner_products_mc(self.SPEC, (), 10**7, seed=1) == []

    def test_empty_inputs_are_still_validated(self):
        batch = oracle.reproducing_residuals_batch
        with pytest.raises(ValueError, match="at least 10\\^3"):
            batch(self.SPEC, (), (self.Z,), 999, seed=1)
        with pytest.raises(DomainError, match="evaluation point"):
            batch(self.SPEC, (), (Point2C(0.9, 0.5),), 10**7, seed=1)
        with pytest.raises(ValueError, match="not square-integrable"):
            batch(DomainSpec.classical(), (Monomial(0, -2),), (), 10**7, seed=1)
        with pytest.raises(ValueError, match="at least 10\\^3"):
            inner_products_mc(self.SPEC, (), 999, seed=1)


# repr((estimate, residual, excluded)) of every report of
# reproducing_residuals_batch(spec, _GOLDEN_FS, _GOLDEN_ZS, 2_500_001,
# seed=36), row by row.  n spans 19 full chunks of 131,072 samples and a
# partial one, and a chunk spans 32 evaluation blocks.  The third case
# raises the near-singular threshold to 0.25, so that samples are excluded
# inside blocks.  Like GOLDEN_STREAMS these depend on numpy's PCG64 stream
# and the platform libm (recorded with numpy 2.4 on x86-64 glibc).
_GOLDEN_FS = (Monomial(0, 0), Monomial(1, 0), Monomial(0, 1))
_GOLDEN_ZS = (Point2C(0.05, 0.6), Point2C(0.1 + 0.05j, 0.7j))
GOLDEN_REPRODUCING = {
    ("fat:2", None): (
        "((0.9990462616952392-0.0003204606617613477j), 0.0010061370630805914, 0)",
        "((0.9979809072253625+0.0005349187089258947j), 0.0020887493046683196, 0)",
        "((0.04990350319160262-0.00023112106164819353j), 0.00025045674111165336, 0)",
        "((0.09893129495031806+0.049537816451465336j), 0.0011643642538964256, 0)",
        "((0.5995310281974349-0.0008090255041212347j), 0.0009351239585850565, 0)",
        "((-0.0005113785330925441+0.6979804195470412j), 0.0020833178370285132, 0)",
    ),
    ("thin:3", None): (
        "((0.9954558027048936-0.0006577685967124548j), 0.0045915562267789985, 0)",
        "((0.9973052204954213-0.00013179230641785438j), 0.0026980003317880856, 0)",
        "((0.05102220209562962+0.00034424567507373413j), 0.0010786112409559563, 0)",
        "((0.09800626991801151+0.049522057770427126j), 0.0020502166750455807, 0)",
        "((0.597307151966723-0.00015101057325251615j), 0.002697078924235933, 0)",
        "((0.0008597153051718023+0.6967176121149026j), 0.003393107813521508, 0)",
    ),
    ("fat:2", 0.25): (
        "((0.9955590812411305-0.0002975870142051338j), 0.004450878278935842, 17397)",
        "((0.9955581452391405+0.00036214723040986144j), 0.004456593355138354, 11034)",
        "((0.050173011532248374-0.0002172558693573232j), 0.0002777284700226742, 17397)",
        "((0.0992203410575721+0.04966565443416168j), 0.000848324833954271, 11034)",
        "((0.6032202255327151-0.0007790463874914842j), 0.003313120244635597, 17397)",
        "((-0.0004951862743988984+0.7007875340170204j), 0.0009302791378492084, 11034)",
    ),
}


@pytest.mark.parametrize("key", list(GOLDEN_REPRODUCING), ids=str)
def test_reproducing_batch_golden(key, monkeypatch):
    text, threshold = key
    if threshold is not None:
        monkeypatch.setattr(kernels, "NEAR_SINGULAR_THRESHOLD", threshold)
    reports = oracle.reproducing_residuals_batch(
        DomainSpec.parse(text), _GOLDEN_FS, _GOLDEN_ZS, 2_500_001, seed=36
    )
    got = tuple(repr((r.estimate, r.residual, r.excluded)) for row in reports for r in row)
    assert got == GOLDEN_REPRODUCING[key]


# The same for seven points (criterion 7's three and four more) on fat:3 and
# thin:3 with criterion 7's functions, reproducing_residuals_batch(spec,
# _GOLDEN_FS, _GOLDEN_ZS7, 2_500_001, seed=41): seven points do not split
# evenly into groups of four, n crosses chunks and ends in a short block, and
# the third case raises the threshold to 0.25 so that samples are excluded at
# every point.
_GOLDEN_ZS7 = (
    Point2C(0.1, 0.5), Point2C(0.2, 0.6), Point2C(0.15, 0.75), Point2C(0.05, 0.6),
    Point2C(0.1 + 0.05j, 0.7j), Point2C(-0.1 + 0.1j, 0.6 - 0.4j), Point2C(0.3j, -0.8),
)
GOLDEN_REPRODUCING_SEVEN = {
    ('fat:3', None): (
        "((1.0000550796840812-0.00040735512048276805j), 0.00041106199749188775, 0)",
        "((0.9998728837980427-0.0006522609778397553j), 0.0006645321000617762, 0)",
        "((0.9995788819385171-0.0012234432151387697j), 0.0012938909236779694, 0)",
        "((1.0000024943795818-0.0007983140571058324j), 0.0007983179540147347, 0)",
        "((1.0008889990414085-0.0003801633428015793j), 0.0009668730334616246, 0)",
        "((0.9987727356845562-0.0001995306259386291j), 0.0012433785307175392, 0)",
        "((0.9986441971769621-0.0004393560860347643j), 0.0014252140419226211, 0)",
        "((0.09999348249764552-9.784977011112361e-05j), 9.806658629594745e-05, 0)",
        "((0.1998226967934412-0.00010478584886998867j), 0.00020595266732781602, 0)",
        "((0.14978205979805007+0.00012646992848043125j), 0.00025197732921003257, 0)",
        "((0.04995040358260353-5.1134395119081226e-06j), 4.9859320916021985e-05, 0)",
        "((0.10002444419187694+0.05013031389091748j), 0.00013258668365476476, 0)",
        "((-0.09956940324178738+0.1000368673979322j), 0.0004321721569160964, 0)",
        "((0.00013710468532943327+0.2993342260576711j), 0.0006797445380607321, 0)",
        "((0.4994270162812564+0.00043392637577917005j), 0.0007187506115072743, 0)",
        "((0.5993206688947246+0.00021488380106341265j), 0.0007125067007082553, 0)",
        "((0.7491308706761765-0.00040882342813254965j), 0.0009604802845035534, 0)",
        "((0.5994227141014427+9.141795101980607e-05j), 0.0005844794696495293, 0)",
        "((5.364625043153867e-05+0.7008419064590102j), 0.0008436138962277634, 0)",
        "((0.5985130542019393-0.3990075523966522j), 0.001787724825514547, 0)",
        "((-0.7988317682089879+0.0006333573344682556j), 0.0013288743472037125, 0)",
    ),
    ('thin:3', None): (
        "((1.0001100272133516+0.008388287192071917j), 0.00838900876172839, 0)",
        "((0.9969590698500084+0.011475286307447121j), 0.011871371109312162, 0)",
        "((0.9994906024293492+0.0010452067204606151j), 0.0011627308258926477, 0)",
        "((1.0002842465086799+0.0023538617873916337j), 0.002370962123661875, 0)",
        "((1.0001484007412245+0.0001286961465331279j), 0.00019643186637724176, 0)",
        "((0.9974146447899843+5.241924364644254e-05j), 0.0025858865673226467, 0)",
        "((0.9987950902297114-0.0008829646937308911j), 0.0014937985824442046, 0)",
        "((0.09593461364609276-0.002368940528108235j), 0.004705235959253153, 0)",
        "((0.19059346175889452+0.003260205798449154j), 0.009955496146833739, 0)",
        "((0.14937299426081654-0.0005509186635733578j), 0.0008346541624184473, 0)",
        "((0.04937465456821831-0.0010615804013994095j), 0.0012320754269465662, 0)",
        "((0.10057052340586488+0.050135241260529484j), 0.0005863336551736199, 0)",
        "((-0.09950560756743858+0.09976427430322804j), 0.0005477138682675784, 0)",
        "((-4.751224007296652e-06+0.30064318454691213j), 0.0006432020953916035, 0)",
        "((0.4908052218841369+0.0003410544975557624j), 0.009201101171613005, 0)",
        "((0.5872393241599754+0.012319232650385923j), 0.017736920279138715, 0)",
        "((0.7489446227811777+0.0001789632802749259j), 0.001070443333248375, 0)",
        "((0.599387954343543+0.0006960277356858628j), 0.0009268519269181437, 0)",
        "((-0.0002812531257488434+0.7006260924846575j), 0.0006863636937426839, 0)",
        "((0.5984459046266974-0.398999184871798j), 0.0018484705434922198, 0)",
        "((-0.7997165489529781+0.0002229929387500497j), 0.000360652667798596, 0)",
    ),
    ('fat:3', 0.25): (
        "((0.9957675835406522-0.0005154314592009159j), 0.004263686043142968, 28242)",
        "((0.9972405118178382-0.0007390601521592495j), 0.0028567437644983285, 17401)",
        "((0.9980725530621596-0.001289899281944692j), 0.002319243811191878, 9513)",
        "((0.9973465052287855-0.0008599972891270101j), 0.00278937803787301, 17391)",
        "((0.9991460036026232-0.0002796780070132932j), 0.0008986265266168799, 11493)",
        "((0.9971727283626752-0.00029758638606298043j), 0.002842889826987867, 10604)",
        "((0.9976306272452744-0.00041179941005813704j), 0.002404892098402793, 8084)",
        "((0.10050815262241762-1.7131028859661588e-06j), 0.0005081555100472663, 28242)",
        "((0.200524194186331-4.5462645640676575e-05j), 0.0005261619495287094, 17401)",
        "((0.15006136230299527+0.0001666376604326656j), 0.00017757658095412398, 9513)",
        "((0.05010683268722723+5.537123989316841e-05j), 0.00012032953613929315, 17391)",
        "((0.10032549008348907+0.0502956302449136j), 0.00043970562443228705, 11493)",
        "((-0.09989202093082132+0.10028465065601123j), 0.0003044428934107645, 10604)",
        "((0.00016346809142070293+0.29987289545975715j), 0.00020706854194462007, 8084)",
        "((0.504561319032542+0.00047564042355223554j), 0.004586051147681045, 28242)",
        "((0.6032441716208836+0.00022145468421600227j), 0.003251721341521748, 17401)",
        "((0.7518792014254684-0.0004051934654284928j), 0.0019223890714182552, 9513)",
        "((0.6033470370177225+9.790277489195527e-05j), 0.003348468568067581, 17391)",
        "((6.347521426349971e-05+0.703897159503029j), 0.0038976763968902547, 11493)",
        "((0.60095582208703-0.40061463438358674j), 0.001136385184495776, 10604)",
        "((-0.801321968555128+0.0006438368685924955j), 0.0014704172108983959, 8084)",
    ),
}


@pytest.mark.parametrize("key", list(GOLDEN_REPRODUCING_SEVEN), ids=str)
def test_reproducing_batch_golden_seven_points(key, monkeypatch):
    text, threshold = key
    if threshold is not None:
        monkeypatch.setattr(kernels, "NEAR_SINGULAR_THRESHOLD", threshold)
    reports = oracle.reproducing_residuals_batch(
        DomainSpec.parse(text), _GOLDEN_FS, _GOLDEN_ZS7, 2_500_001, seed=41
    )
    got = tuple(repr((r.estimate, r.residual, r.excluded)) for row in reports for r in row)
    assert got == GOLDEN_REPRODUCING_SEVEN[key]


# Nine points: their first m run as one tile of m rows (m <= 4), or as full
# tiles and a last one of 2 (one point padded), 2, 3 or 4 rows.
_TILED_ZS = (*_GOLDEN_ZS7, Point2C(0.02 - 0.01j, -0.5 + 0.2j), Point2C(-0.03j, 0.4 + 0.4j))


@pytest.mark.parametrize("m", range(2, len(_TILED_ZS) + 1))
def test_reproducing_batch_reports_do_not_depend_on_the_tiling(m):
    # Each point's reports in a batch of m points are those of its one-point
    # batch, whose one row is padded to two, bit for bit.
    spec, zs, n = DomainSpec.thin(3), _TILED_ZS[:m], 10_001
    reports = oracle.reproducing_residuals_batch(spec, _GOLDEN_FS, zs, n, seed=45)
    for j, z in enumerate(zs):
        alone = oracle.reproducing_residuals_batch(spec, _GOLDEN_FS, (z,), n, seed=45)
        assert [row[j] for row in reports] == [row[0] for row in alone]

# The same functions and points under domain.BOUNDARY_MARGIN = 0.02,
# reproducing_residuals_batch(spec, _GOLDEN_FS, _GOLDEN_ZS, 2_500_001,
# seed=44): about a tenth (fat:2) or a quarter (thin:3) of the draws fall in
# the widened margin band, so the sampler's blocks keep fewer than 16,384
# points and the chunks' 4096-sample evaluation blocks straddle them.
GOLDEN_REPRODUCING_MARGIN = {
    "fat:2": (
        "((1.0001406997492102+0.00022067977153768345j), 0.00026171736853660695, 0)",
        "((0.9995627353508146-0.0005021190013527324j), 0.0006658257016266836, 0)",
        "((0.04750752688075409+0.00040717362519706587j), 0.002525512346281359, 0)",
        "((0.09606926684555833+0.04787484661024398j), 0.004468438212778432, 0)",
        "((0.5793983544632543-4.251630182014814e-05j), 0.02060168940785281, 0)",
        "((0.0005432184915751868+0.6747708389672418j), 0.025235008475259786, 0)",
    ),
    "thin:3": (
        "((0.9990489718781039-0.00179195070437166j), 0.0020286798208527766, 0)",
        "((1.0013030576850301+0.0006582122497797795j), 0.0014598639307402135, 0)",
        "((0.0393535500197855-0.0004214919865664654j), 0.010654790128198168, 0)",
        "((0.07739225436335073+0.03915390887603238j), 0.025074845073117472, 0)",
        "((0.5776180641621758-0.0002635097666887049j), 0.0223834869769127, 0)",
        "((-0.0006042188780289245+0.6752562586151513j), 0.02475111751361624, 0)",
    ),
}


@pytest.mark.parametrize("text", list(GOLDEN_REPRODUCING_MARGIN))
def test_reproducing_batch_golden_under_a_wide_margin(text, monkeypatch):
    monkeypatch.setattr(domain, "BOUNDARY_MARGIN", 0.02)
    reports = oracle.reproducing_residuals_batch(
        DomainSpec.parse(text), _GOLDEN_FS, _GOLDEN_ZS, 2_500_001, seed=44
    )
    got = tuple(repr((r.estimate, r.residual, r.excluded)) for row in reports for r in row)
    assert got == GOLDEN_REPRODUCING_MARGIN[text]


def test_reproducing_batch_memory_does_not_grow_with_points(monkeypatch):
    # On 10^5-sample chunks, 24 points may not cost a chunk-length array more
    # than 3 do: each block makes its own function values and evaluates the
    # kernel a few points at a time.  A chunk array is 1.6 MB of complex128.
    # The two are compared with every block on the caller: on two threads
    # the peak moves by about a chunk array with how the helper's blocks
    # overlap the caller's, whatever the number of points.
    monkeypatch.setattr(oracle, "_CHUNK", 100_000)
    chunk_array = 16 * 100_000
    rng = np.random.default_rng(24)
    r2 = rng.uniform(0.5, 0.9, 24)
    r1 = rng.uniform(0.0, 0.4, 24) * r2 ** (1 / 3)
    phases = np.exp(2j * np.pi * rng.random((2, 24)))
    zs = [Point2C(complex(a), complex(b)) for a, b in zip(r1 * phases[0], r2 * phases[1])]
    fs = (Monomial(0, 0), Monomial(1, 0), Monomial(0, 1))

    def peak(points):
        return _traced_peak(oracle.reproducing_residuals_batch, DomainSpec.fat(3), fs, points,
                            250_000, seed=6003)

    assert peak(zs) <= 9 * chunk_array
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _Synchronous)
    few, many = peak(zs[:3]), peak(zs)
    assert many - few < chunk_array


def test_reproducing_batch_holds_two_chunks():
    # Criterion 7's functions (_GOLDEN_FS) and points (the first three of
    # _GOLDEN_ZS7) on fat:2 over 3·10^6 samples, against about two chunks of
    # _CHUNK samples (4 MiB each, one drawn ahead) and the block temporaries
    # of two threads, not a chunk-length array per point or thread; two
    # 10^6-sample chunks alone were 64 MiB.
    tracemalloc.start()
    try:
        oracle.reproducing_residuals_batch(DomainSpec.fat(2), _GOLDEN_FS, _GOLDEN_ZS7[:3],
                                           3_000_000, seed=6002)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2**20


def test_reproducing_batch_memory_does_not_grow_with_the_samples():
    # The integrator holds chunks, not the stream: 10^6 samples may not cost
    # a 2.5·10^5-point array (4 MB of complex128) more than 2.5·10^5 samples.
    peaks = []
    for n in (1_000_000, 250_000):
        tracemalloc.start()
        try:
            oracle.reproducing_residuals_batch(DomainSpec.fat(2), _GOLDEN_FS, _GOLDEN_ZS7[:3],
                                               n, seed=6004)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[0] - peaks[1]) < 16 * 250_000


def test_reproducing_batch_on_the_widest_table_holds_two_chunks():
    # fat:8 has the most terms (29 in the numerator, 4 in q), so each block's
    # table of sample powers is 33 rows, 2.1 MiB: the batch stays within
    # test_reproducing_batch_holds_two_chunks's bound.
    tracemalloc.start()
    try:
        oracle.reproducing_residuals_batch(DomainSpec.fat(8), _GOLDEN_FS, _GOLDEN_ZS7[:3],
                                           3_000_000, seed=6005)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2**20


def test_reproducing_batch_reads_kernel_factors_on_both_threads(monkeypatch):
    # A mutant formula (the fat top 1 - s for 1 - t) moves the estimates of
    # the next call, and the helper's blocks use it too: a batch that the
    # helper shares equals one with every block on the caller.
    run = TestHandOff._run
    library = run("reproducing", 200_001, seed=66)
    formula = kernels.kernel_factors

    def mutant(spec, s, t, thin_variant="1-t"):
        num, const, top, curve = formula(spec, s, t, thin_variant)
        return num, const, 1.0 - s, curve

    monkeypatch.setattr(kernels, "kernel_factors", mutant)
    helper_started = threading.Event()

    def on_call(is_caller):
        if is_caller:
            assert helper_started.wait(timeout=30.0)
        else:
            helper_started.set()

    with monkeypatch.context() as m:
        TestHandOff._patch_blocks(m, on_call)
        shared = run("reproducing", 200_001, seed=66)
    assert helper_started.is_set()
    with monkeypatch.context() as m:
        m.setattr(concurrent.futures, "ThreadPoolExecutor", _Synchronous)
        alone = run("reproducing", 200_001, seed=66)
    assert shared == alone
    assert all(a != b for a, b in zip(shared, library))


def test_zero_denominators_are_flagged_and_excluded(monkeypatch):
    # A formula whose curve vanishes identically has den == 0 at every sample:
    # each is flagged and excluded, and nothing is left to average.
    formula = kernels.kernel_factors

    def vanishing(spec, s, t, thin_variant="1-t"):
        num, const, top, curve = formula(spec, s, t, thin_variant)
        return num, const, top, 0.0 * curve

    monkeypatch.setattr(kernels, "kernel_factors", vanishing)
    with pytest.raises(SingularEvaluation, match="^all 2000 samples are near-singular"):
        reproducing_check(DomainSpec.fat(2), Monomial(0, 0), Point2C(0.1, 0.5), 2_000, seed=1)


@pytest.mark.parametrize("integrate", INTEGRATORS)
def test_stream_draws_chunks_of_its_constant(monkeypatch, integrate):
    # Each draw returns one chunk of _CHUNK samples, the last one shorter.
    drawn = []

    def recording(rng, spec, n):
        z1, z2 = _fill_uniform(rng, spec, n)
        drawn.append(len(z1))
        return z1, z2

    monkeypatch.setattr(domain, "_fill_uniform", recording)
    spec, one = DomainSpec.fat(2), Monomial(0, 0)
    if integrate == "reproducing":
        oracle.reproducing_residuals_batch(spec, (one,), (Point2C(0.1, 0.5),), 1_500_000, seed=49)
    else:
        inner_products_mc(spec, ((one, one),), 1_500_000, seed=49)
    chunk = oracle._CHUNK
    assert drawn == [chunk] * 11 + [1_500_000 - 11 * chunk]


# Prints one inner-product pin and one reproducing pin, line by line.
_PINS_SCRIPT = """
from hartogs_bergman import DomainSpec, Point2C, oracle
from hartogs_bergman.oracle import Monomial, inner_product_mc, parse_function
est = inner_product_mc(DomainSpec.classical(), parse_function("z1"), parse_function("z2"),
                       1_500_000, seed=11)
print(repr((complex(est.value), est.std_error)))
fs = (Monomial(0, 0), Monomial(1, 0), Monomial(0, 1))
zs = (Point2C(0.05, 0.6), Point2C(0.1 + 0.05j, 0.7j))
for row in oracle.reproducing_residuals_batch(DomainSpec.fat(2), fs, zs, 2_500_001, seed=36):
    for r in row:
        print(repr((r.estimate, r.residual, r.excluded)))
"""


def test_pins_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS reads its thread count at start-up: one interpreter per count.
    root = Path(__file__).resolve().parents[1]
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _PINS_SCRIPT], capture_output=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    want = (GOLDEN_INNER_PRODUCTS[("classical", "z1", "z2", 1_500_000)],
            *GOLDEN_REPRODUCING[("fat:2", None)])
    assert tuple(outs[0].decode().splitlines()) == want

class TestHandOff:
    """The stream's helper thread shares the evaluation of each chunk's blocks in both
    integrators."""

    SPEC = DomainSpec.fat(2)
    FS = (Monomial(0, 0), Monomial(1, 0), Monomial(0, 1))
    ZS = (
        Point2C(0.05, 0.6),
        Point2C(0.1 + 0.05j, 0.7j),
        Point2C(-0.2 + 0.1j, 0.5 - 0.3j),
        Point2C(0.3j, -0.8),
        Point2C(0.15 - 0.25j, 0.45 + 0.45j),
        Point2C(0.0, 0.2 + 0.1j),
    )
    PAIRS = tuple((parse_function(f), parse_function(g)) for f, g in (
        ("one", "one"), ("z1", "z2"), ("z2inv", "z2inv"), ("z1", "z1"), ("z2", "z1"),
        ("z1^2*z2^1", "z1^1*z2^-1")))

    @classmethod
    def _run(cls, integrate, n, seed, items=None):
        # The reprs of one batch's results, item by item: the reproducing
        # integrator's reports per point of ZS, or the inner products per
        # pair of PAIRS; items picks some of them.
        if integrate == "reproducing":
            zs = cls.ZS if items is None else items
            reports = oracle.reproducing_residuals_batch(cls.SPEC, cls.FS, zs, n, seed)
            return [repr(row[j]) for j in range(len(zs)) for row in reports]
        pairs = cls.PAIRS if items is None else items
        return [repr(est) for est in inner_products_mc(cls.SPEC, pairs, n, seed)]

    @classmethod
    def _run_alone(cls, integrate, n, seed):
        # _run's results from one-item batches.
        items = cls.ZS if integrate == "reproducing" else cls.PAIRS
        return [r for item in items for r in cls._run(integrate, n, seed, (item,))]

    @staticmethod
    def _patch_blocks(monkeypatch, on_call):
        # Wraps the block function an integrator hands to oracle._block_sums;
        # on_call(is_caller) runs before each block.
        caller = threading.get_ident()
        engine = oracle._block_sums

        def patched(spec, n, seed, block):
            def hooked(v1, v2):
                on_call(threading.get_ident() == caller)
                return block(v1, v2)

            return engine(spec, n, seed, hooked)

        monkeypatch.setattr(oracle, "_block_sums", patched)

    @pytest.mark.parametrize("integrate", INTEGRATORS)
    def test_split_batch_equals_one_item_batches(self, monkeypatch, integrate):
        # The caller's first block waits until the helper has taken one, so
        # the helper evaluates at least one block of the batch.
        helper_started = threading.Event()
        threads = set()

        def on_call(is_caller):
            threads.add(threading.get_ident())
            if is_caller:
                assert helper_started.wait(timeout=30.0)
            else:
                helper_started.set()

        n = 2_000_001  # full chunks and a partial one
        with monkeypatch.context() as m:
            self._patch_blocks(m, on_call)
            batch = self._run(integrate, n, seed=37)
        assert len(threads) == 2
        assert batch == self._run_alone(integrate, n, seed=37)

    def _check_concurrent_batches(self, integrate, n, seed):
        # Three callers, each with its own helper: six threads on the
        # machine's cores, switching every microsecond.  A block claimed
        # twice or lost, or a buffer shared between threads, changes bits
        # against one-item batches run alone.
        want = self._run_alone(integrate, n, seed)
        results = {}

        def run(key):
            results[key] = self._run(integrate, n, seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=run, args=(key,)) for key in range(3)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert sorted(results) == [0, 1, 2]
        for batch in results.values():
            assert batch == want

    @pytest.mark.usefixtures("small_chunks")
    @pytest.mark.parametrize("integrate", INTEGRATORS)
    def test_concurrent_batches_under_short_switch_interval(self, integrate):
        self._check_concurrent_batches(integrate, 30_001, 40)

    @pytest.mark.parametrize("integrate", INTEGRATORS)
    def test_concurrent_batches_on_one_block_chunks(self, monkeypatch, integrate):
        # Chunks of one evaluation block: the helper hands off after every
        # block, the most hand-offs a stream can have.
        monkeypatch.setattr(oracle, "_CHUNK", oracle._EVAL_BLOCK)
        self._check_concurrent_batches(integrate, 30_001, 40)

    @pytest.mark.usefixtures("small_chunks")
    @pytest.mark.parametrize("integrate", INTEGRATORS)
    def test_at_most_one_thread_besides_the_caller(self, monkeypatch, integrate):
        before = threading.active_count()
        threads = set()
        counts = []

        def on_call(is_caller):
            threads.add(threading.get_ident())
            counts.append(threading.active_count())

        self._patch_blocks(monkeypatch, on_call)
        self._run(integrate, 30_001, seed=38)
        assert counts and max(counts) <= before + 1
        assert len(threads) <= 2
        assert threading.active_count() == before

    @pytest.mark.usefixtures("small_chunks")
    @pytest.mark.parametrize("integrate", INTEGRATORS)
    def test_helper_error_reaches_caller_and_helper_is_joined(self, monkeypatch, integrate):
        before = threading.active_count()
        helper_failed = threading.Event()
        helpers = []

        def on_call(is_caller):
            if is_caller:
                assert helper_failed.wait(timeout=30.0)
                return
            helpers.append(threading.current_thread())
            helper_failed.set()
            raise RuntimeError("helper evaluation failed")

        self._patch_blocks(monkeypatch, on_call)
        with pytest.raises(RuntimeError, match="helper evaluation failed"):
            self._run(integrate, 30_001, seed=39)
        assert len(helpers) == 1
        helpers[0].join(timeout=30.0)
        assert not helpers[0].is_alive()
        assert threading.active_count() == before


class TestDrawAhead:
    """Both integrators draw their stream one chunk ahead on one helper thread."""

    SPEC = DomainSpec.thin(3)

    def test_caller_tasks_run_after_the_next_draw(self, monkeypatch):
        drawn = []

        def counting(rng, spec, n):
            out = _fill_uniform(rng, spec, n)
            drawn.append(n)
            return out

        monkeypatch.setattr(domain, "_fill_uniform", counting)
        before = threading.active_count()
        seen = []
        got = []
        with ThreadPoolExecutor(max_workers=1, thread_name_prefix="caller") as helper:
            chunks = sample_chunks(self.SPEC, 25_001, 45, 10_000)
            for z1, z2 in oracle._drawn_ahead(helper, chunks):
                # Runs on the helper once the draw of the next chunk is done.
                seen.append(helper.submit(len, drawn))
                got.append((z1, z2))
        assert [f.result() for f in seen] == [2, 3, 3]
        assert threading.active_count() == before
        rng = np.random.default_rng(45)
        for (z1, z2), m in zip(got, [10_000, 10_000, 5_001], strict=True):
            e1, e2 = _fill_uniform(rng, self.SPEC, m)
            assert z1.tobytes() == e1.tobytes()
            assert z2.tobytes() == e2.tobytes()

    @pytest.mark.usefixtures("small_chunks")
    @pytest.mark.parametrize("integrate", INTEGRATORS)
    def test_caller_error_drains_claims_and_joins_helper(self, monkeypatch, integrate):
        # The helper's second draw waits until the caller has failed, so
        # every block the caller left unclaimed is still there to drain.
        caller = threading.get_ident()
        caller_failed = threading.Event()
        helpers = []
        helper_blocks = []

        def gated(rng, spec, n):
            if threading.get_ident() != caller and helpers:
                assert caller_failed.wait(timeout=30.0)
            helpers.append(threading.current_thread())
            return _fill_uniform(rng, spec, n)

        def on_call(is_caller):
            if not is_caller:
                helper_blocks.append(1)
                return
            caller_failed.set()
            raise RuntimeError("caller evaluation failed")

        monkeypatch.setattr(domain, "_fill_uniform", gated)
        TestHandOff._patch_blocks(monkeypatch, on_call)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="caller evaluation failed"):
            TestHandOff._run(integrate, 30_001, seed=46)
        assert helper_blocks == []
        helpers[0].join(timeout=30.0)
        assert not helpers[0].is_alive()
        assert threading.active_count() == before

    @pytest.mark.usefixtures("small_chunks")
    @pytest.mark.parametrize("integrate", INTEGRATORS)
    def test_helper_draw_error_reaches_caller(self, monkeypatch, integrate):
        calls = []

        def failing(rng, spec, n):
            calls.append(threading.current_thread())
            if len(calls) == 2:
                raise RuntimeError("second chunk failed")
            return _fill_uniform(rng, spec, n)

        monkeypatch.setattr(domain, "_fill_uniform", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="second chunk failed"):
            TestHandOff._run(integrate, 30_001, seed=47)
        assert len(calls) == 2
        assert calls[1] is not threading.current_thread()
        calls[1].join(timeout=30.0)
        assert threading.active_count() == before

    @pytest.mark.usefixtures("small_chunks")
    @pytest.mark.parametrize("integrate", INTEGRATORS)
    def test_every_chunk_is_drawn_on_one_helper(self, monkeypatch, integrate):
        threads = []

        def recording(rng, spec, n):
            threads.append(threading.current_thread())
            return _fill_uniform(rng, spec, n)

        monkeypatch.setattr(domain, "_fill_uniform", recording)
        before = threading.active_count()
        TestHandOff._run(integrate, 30_001, seed=48)
        assert len(threads) == 4 and len(set(threads)) == 1
        assert threads[0] is not threading.current_thread()
        threads[0].join(timeout=30.0)
        assert threading.active_count() == before
