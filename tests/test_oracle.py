import hashlib
import math
import re
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

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
from hartogs_bergman.domain import _fill_uniform, sample_chunks, sample_uniform_arrays, volume
from hartogs_bergman.kernels import kernel_num_den, pair_invariants
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
# inner_products_mc.  n = 1_500_000 spans two default chunks.  Like
# GOLDEN_STREAMS in test_domain.py these depend on numpy's PCG64 stream and
# the platform libm (recorded with numpy 2.4 on x86-64 glibc).
GOLDEN_INNER_PRODUCTS = {
    ("fat:2", "one", "one", 20_000): "((6.579736267392905+0j), 0.0)",
    ("fat:2", "z1", "z2", 20_000): "((0.01524811757417326+0.028887027786924896j), 0.02319009100598043)",
    ("fat:2", "z1", "z2", 1_500_000): "((0.00038941514351114714+0.0021660507591764215j), 0.002685400422816992)",
    ("fat:2", "z2inv", "z2inv", 20_000): "((19.26340322844888+4.3963569359061055e-18j), 0.6358481905066826)",
    ("fat:2", "z1^2*z2^1", "z1^1*z2^-1", 20_000): "((-0.012384374271308042-0.008182871171121368j), 0.01638769940243421)",
    ("thin:3", "one", "one", 20_000): "((2.4674011002723395+0j), 0.0)",
    ("thin:3", "z1", "z2", 20_000): "((0.0057180440903149745+0.010832635420096836j), 0.008696284127242661)",
    ("thin:3", "z1", "z2", 1_500_000): "((0.00014603067881667963+0.0008122690346911583j), 0.001007025158556372)",
    ("thin:3", "z2inv", "z2inv", 20_000): "((3.2874470202989023-7.227330181052327e-19j), 0.008017860137985002)",
    ("thin:3", "z1^2*z2^1", "z1^1*z2^-1", 20_000): "((-0.003524002026004078-0.003817980638744372j), 0.004831611434367236)",
    ("classical", "one", "one", 20_000): "((4.934802200544679+0j), 0.0)",
    ("classical", "z1", "z2", 20_000): "((0.011436088180629946+0.021665270840193682j), 0.017392568254485326)",
    ("classical", "z1", "z2", 1_500_000): "((0.00029206135763335916+0.0016245380693823165j), 0.002014050317112744)",
    ("classical", "z2inv", "z2inv", 20_000): "((9.802240530559168-1.8265847668947383e-18j), 0.10289215334615659)",
    ("classical", "z1^2*z2^1", "z1^1*z2^-1", 20_000): "((-0.008228041134924065-0.007125401650517648j), 0.010999846979080264)",
}

# sha256 of the stdout of
# `inner-product --spec classical --f z2inv --g z2inv --n 1000000 --seed 5`.
GOLDEN_INNER_PRODUCT_REPORT = "e10d00a6313a13d11efdbdf5687f8a23add0619d4e85258eab53122b84da879d"


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

    @pytest.mark.parametrize("text", ["fat:2", "thin:3", "classical"])
    def test_batch_matches_single_calls(self, text):
        spec = DomainSpec.parse(text)
        one, z1, z2, z2inv = (parse_function(t) for t in ("one", "z1", "z2", "z2inv"))
        pairs = [(one, one), (z1, z2), (z2inv, z2inv), (z1, z1), (z2, z1), (z2inv, one)]
        # chunk < n: the shared stream spans several chunks.
        batch = inner_products_mc(spec, pairs, 25_000, seed=12, chunk=10_000)
        assert len(batch) == len(pairs)
        for (f, g), est in zip(pairs, batch):
            single = inner_product_mc(spec, f, g, 25_000, seed=12, chunk=10_000)
            assert repr(est) == repr(single)

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

    def test_unknown_thin_variant_raises(self):
        with pytest.raises(ValueError, match="unknown thin variant"):
            reproducing_check(
                DomainSpec.thin(2), Monomial(0, 0), Point2C(0.05, 0.6), 10_000, seed=1,
                thin_variant="1-x",
            )

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


# repr((estimate, residual, excluded)) of every report of
# reproducing_residuals_batch(spec, _GOLDEN_FS, _GOLDEN_ZS, 2_500_001,
# seed=36), row by row.  n spans two full default chunks and a partial one,
# and a chunk spans many evaluation blocks.  The third case raises the
# near-singular threshold to 0.25, so that samples are excluded inside
# blocks.  Like
# GOLDEN_STREAMS these depend on numpy's PCG64 stream and the platform libm
# (recorded with numpy 2.4 on x86-64 glibc).
_GOLDEN_FS = (Monomial(0, 0), Monomial(1, 0), Monomial(0, 1))
_GOLDEN_ZS = (Point2C(0.05, 0.6), Point2C(0.1 + 0.05j, 0.7j))
GOLDEN_REPRODUCING = {
    ("fat:2", None): (
        "((0.9993658982672855+0.0005658822750252613j), 0.0008498869081350145, 0)",
        "((0.9990508827071046-0.0004668059994034561j), 0.0010577010337293343, 0)",
        "((0.050327190602908564+0.0005837521946421383j), 0.0006691937801423299, 0)",
        "((0.09861266698377938+0.04949033083977001j), 0.0014779903757417934, 0)",
        "((0.5998296082090967-0.00046628488572887736j), 0.0004964422998359619, 0)",
        "((-9.312276411170178e-05+0.6987749858296193j), 0.001228548561038295, 0)",
    ),
    ("thin:3", None): (
        "((0.9990129129829481-0.0012418296925923145j), 0.0015863422596136864, 0)",
        "((0.9977086047454038-0.0001441932924542369j), 0.0022959276814339797, 0)",
        "((0.04924750628864647+2.7357195031269034e-05j), 0.0007529908377574, 0)",
        "((0.09895345133192922+0.049262247965940476j), 0.001280446085705958, 0)",
        "((0.5998032783747691-0.0005832484400999322j), 0.0006155307796629525, 0)",
        "((0.0008844780609589359+0.6971707910141035j), 0.002964241037128203, 0)",
    ),
    ("fat:2", 0.25): (
        "((0.9956868384963495+0.0003278500981621821j), 0.004325603754788144, 17374)",
        "((0.9964817050591861-0.0005133800047656062j), 0.00355555316650586, 11058)",
        "((0.0505292767793994+0.0005767102964638004j), 0.0007827698737552178, 17374)",
        "((0.09886858676052429+0.049653644541773914j), 0.0011832404750953777, 11058)",
        "((0.6034975886857653-0.0004547598026992692j), 0.0035270289328193385, 17374)",
        "((-8.064855597213686e-05+0.7015938526627244j), 0.0015958917569980577, 11058)",
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


def test_reproducing_batch_memory_stays_bounded():
    # Criterion 7's functions and points on fat:2 over three chunks: two
    # chunks of samples (one drawn ahead), the chunk's function values and
    # the block temporaries, not a chunk-length array per point or thread.
    fs = (Monomial(0, 0), Monomial(1, 0), Monomial(0, 1))
    zs = (Point2C(0.1, 0.5), Point2C(0.2, 0.6), Point2C(0.15, 0.75))
    tracemalloc.start()
    try:
        oracle.reproducing_residuals_batch(DomainSpec.fat(2), fs, zs, 3_000_000, seed=6002)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 160 * 2**20


class TestHandOff:
    """The stream's helper thread shares the evaluation of each chunk's points."""

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

    @staticmethod
    def _patch_kernel(monkeypatch, on_call):
        # Wraps oracle.kernel_num_den; on_call(is_caller) runs before each call.
        caller = threading.get_ident()

        def patched(*args, **kwargs):
            on_call(threading.get_ident() == caller)
            return kernel_num_den(*args, **kwargs)

        monkeypatch.setattr(oracle, "kernel_num_den", patched)

    def test_split_batch_equals_one_point_batches(self, monkeypatch):
        # The caller's first kernel call waits until the helper has made
        # one, so the helper evaluates at least one point of the batch.
        helper_started = threading.Event()
        threads = set()

        def on_call(is_caller):
            threads.add(threading.get_ident())
            if is_caller:
                assert helper_started.wait(timeout=30.0)
            else:
                helper_started.set()

        n = 2_000_001  # two full default chunks and a partial one
        with monkeypatch.context() as m:
            self._patch_kernel(m, on_call)
            batch = oracle.reproducing_residuals_batch(self.SPEC, self.FS, self.ZS, n, seed=37)
        assert len(threads) == 2
        for j, z in enumerate(self.ZS):
            single = oracle.reproducing_residuals_batch(self.SPEC, self.FS, (z,), n, seed=37)
            for i in range(len(self.FS)):
                got, want = batch[i][j], single[i][0]
                assert repr((got.estimate, got.residual, got.excluded)) == repr(
                    (want.estimate, want.residual, want.excluded)
                )

    def test_concurrent_batches_under_short_switch_interval(self):
        # Three callers, each with its own helper: six threads on the
        # machine's cores, switching every microsecond.  A point claimed
        # twice or lost, or a buffer shared between threads, changes bits.
        n, chunk = 30_001, 10_000
        want = [
            oracle.reproducing_residuals_batch(self.SPEC, self.FS, (z,), n, seed=40, chunk=chunk)
            for z in self.ZS
        ]
        results = {}

        def run(key):
            results[key] = oracle.reproducing_residuals_batch(
                self.SPEC, self.FS, self.ZS, n, seed=40, chunk=chunk
            )

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
            for j in range(len(self.ZS)):
                for i in range(len(self.FS)):
                    assert repr(batch[i][j]) == repr(want[j][i][0])

    def test_at_most_one_thread_besides_the_caller(self, monkeypatch):
        before = threading.active_count()
        threads = set()
        counts = []

        def on_call(is_caller):
            threads.add(threading.get_ident())
            counts.append(threading.active_count())

        self._patch_kernel(monkeypatch, on_call)
        oracle.reproducing_residuals_batch(
            self.SPEC, self.FS, self.ZS, 30_001, seed=38, chunk=10_000
        )
        assert counts and max(counts) <= before + 1
        assert len(threads) <= 2
        assert threading.active_count() == before

    def test_helper_error_reaches_caller_and_helper_is_joined(self, monkeypatch):
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

        self._patch_kernel(monkeypatch, on_call)
        with pytest.raises(RuntimeError, match="helper evaluation failed"):
            oracle.reproducing_residuals_batch(
                self.SPEC, self.FS, self.ZS, 30_001, seed=39, chunk=10_000
            )
        assert len(helpers) == 1
        helpers[0].join(timeout=30.0)
        assert not helpers[0].is_alive()
        assert threading.active_count() == before


class TestDrawAhead:
    """The reproducing integrator draws ahead on one helper thread; inner products draw inline."""

    SPEC = DomainSpec.thin(3)  # acceptance 1/4: each chunk takes several rounds

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

    def test_caller_error_drains_claims_and_joins_helper(self, monkeypatch):
        # The helper's second draw waits until the caller has failed, so
        # every point the caller left unclaimed is still there to drain.
        caller = threading.get_ident()
        caller_failed = threading.Event()
        helpers = []
        helper_kernel_calls = []

        def gated(rng, spec, n):
            if threading.get_ident() != caller and helpers:
                assert caller_failed.wait(timeout=30.0)
            helpers.append(threading.current_thread())
            return _fill_uniform(rng, spec, n)

        def failing(*args, **kwargs):
            if threading.get_ident() != caller:
                helper_kernel_calls.append(1)
                return kernel_num_den(*args, **kwargs)
            caller_failed.set()
            raise RuntimeError("caller evaluation failed")

        monkeypatch.setattr(domain, "_fill_uniform", gated)
        monkeypatch.setattr(oracle, "kernel_num_den", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="caller evaluation failed"):
            oracle.reproducing_residuals_batch(
                TestHandOff.SPEC, TestHandOff.FS, TestHandOff.ZS, 30_001, seed=46, chunk=10_000
            )
        assert helper_kernel_calls == []
        helpers[0].join(timeout=30.0)
        assert not helpers[0].is_alive()
        assert threading.active_count() == before

    @pytest.mark.parametrize("integrate", ["reproducing", "inner_products"])
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
            if integrate == "reproducing":
                oracle.reproducing_residuals_batch(
                    self.SPEC, (Monomial(0, 0),), (Point2C(0.01, 0.5),), 30_001, seed=47,
                    chunk=10_000,
                )
            else:
                one = Monomial(0, 0)
                inner_products_mc(self.SPEC, ((one, one),), 30_001, seed=47, chunk=10_000)
        assert len(calls) == 2
        if integrate == "reproducing":
            assert calls[1] is not threading.current_thread()
            calls[1].join(timeout=30.0)
        assert threading.active_count() == before

    def test_inner_products_draw_every_chunk_on_the_caller(self, monkeypatch):
        threads = []
        counts = []

        def recording(rng, spec, n):
            threads.append(threading.current_thread())
            counts.append(threading.active_count())
            return _fill_uniform(rng, spec, n)

        monkeypatch.setattr(domain, "_fill_uniform", recording)
        before = threading.active_count()
        one = Monomial(0, 0)
        inner_products_mc(self.SPEC, ((one, one),), 30_001, seed=48, chunk=10_000)
        assert threads == [threading.current_thread()] * 4
        assert counts == [before] * 4
        assert threading.active_count() == before
