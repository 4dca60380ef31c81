import cmath
import math

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hartogs_bergman import (
    DomainKind,
    DomainSpec,
    PathKind,
    Point2C,
    bergman_fat,
    boundary_paths,
    delta_rate,
    diagonal_ratio,
    lqk_witness,
    ramadanov_table,
    stable_quadratic_roots,
    thin_nonvanishing,
    zero_locus_scan,
)
from hartogs_bergman.analysis import realizable_args
from hartogs_bergman.domain import contains, sample_uniform_arrays
from hartogs_bergman.polynomials import lin_coeff, quad_coeff

FATS = [DomainSpec.fat(k) for k in range(1, 6)]
THINS = [DomainSpec.thin(k) for k in range(2, 6)]


class TestWitnesses:
    def test_k3_spec_pair(self):
        w = lqk_witness(3)
        r = 1.0 / math.sqrt(2.0)
        assert w.z == Point2C(0.0, r * 1j)
        assert w.w == Point2C(0.0, -r * 1j)
        assert w.numerator_abs <= 1e-12

    def test_k2_spec_pair(self):
        w = lqk_witness(2)
        assert w.z.z1 == pytest.approx(1j / math.sqrt(2.0))
        assert w.z.z2 == pytest.approx((math.sqrt(7.0) + 1j) / 4.0)
        assert contains(DomainSpec.fat(2), w.z) and contains(DomainSpec.fat(2), w.w)
        assert w.numerator_abs <= 1e-12

    def test_k10_pattern(self):
        w = lqk_witness(10)
        assert w.z.z2 == pytest.approx(1j / 3.0)
        assert w.numerator_abs <= 1e-12

    def test_all_k_up_to_50(self):
        assert max(lqk_witness(k).numerator_abs for k in range(2, 51)) <= 1e-12

    def test_rejects_k1(self):
        with pytest.raises(ValueError):
            lqk_witness(1)


class TestThinNonvanishing:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_no_zero_hits(self, k):
        rep = thin_nonvanishing(k, 10_000, seed=61 + k)
        assert rep.zero_hits == 0
        assert rep.min_abs_value > 0.0
        assert rep.min_abs_numerator > 0.0

    def test_numerator_magnitude_identity(self):
        # |numerator| = (|z2| |w2|)^k exactly.
        spec = DomainSpec.thin(2)
        z1, z2 = sample_uniform_arrays(spec, 20, seed=65)
        from hartogs_bergman import bergman_thin

        for i in range(10):
            z, w = Point2C(z1[i], z2[i]), Point2C(z1[10 + i], z2[10 + i])
            kv = bergman_thin(2, z, w)
            assert abs(kv.numerator) == pytest.approx((abs(z.z2) * abs(w.z2)) ** 2, rel=1e-14)


class TestQuadraticRoots:
    @given(
        st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3),
        st.complex_numbers(max_magnitude=1e3),
        st.complex_numbers(max_magnitude=1e3),
    )
    def test_roots_satisfy_equation(self, a, b, c):
        for r in stable_quadratic_roots(a, b, c):
            scale = max(abs(a * r * r), abs(b * r), abs(c), 1.0)
            assert abs(a * r * r + b * r + c) <= 1e-9 * scale

    def test_degenerate_cases(self):
        assert stable_quadratic_roots(0, 0, 3) == ()
        assert stable_quadratic_roots(0, 2, -4) == (2.0 + 0j,)
        roots = stable_quadratic_roots(1, 0, -4)
        assert sorted(r.real for r in roots) == pytest.approx([-2.0, 2.0])
        assert set(stable_quadratic_roots(1, -3, 0)) == {0j, 3 + 0j}

    def test_cancellation_prone_coefficients(self):
        # Classic catastrophic case: tiny a against large b.
        roots = stable_quadratic_roots(1e-12, 1e6, -1e-6)
        products = [abs(1e-12 * r * r + 1e6 * r - 1e-6) for r in roots]
        assert min(products) <= 1e-18


class TestZeroScan:
    def test_k3_axis_roots_match_witness(self):
        scan = zero_locus_scan(3, s_points=3)  # grid contains s = 0
        row = next(r for r in scan.rows if r.s == 0.0)
        values = sorted(r.real for r in row.roots)
        assert values == pytest.approx([-0.5, 0.0], abs=1e-15)
        flags = {round(r.real, 6): ok for r, ok in zip(row.roots, row.realizable)}
        assert flags[-0.5] is True  # the witness zero: t = -1/2 is reachable
        assert flags[0.0] is False  # t = 0 degenerates to the removed axis

    def test_k2_half_magnitude_roots(self):
        scan = zero_locus_scan(2, s_points=3)  # grid contains s = -1/2
        row = next(r for r in scan.rows if r.s == -0.5)
        for root, ok in zip(row.roots, row.realizable):
            assert abs(root) == pytest.approx(0.5, rel=1e-12)
            assert ok  # |s|^2 = 0.25 < |t| = 0.5 < 1
        assert max(row.residuals) <= 1e-10

    def test_k2_near_one_root_report(self):
        scan = zero_locus_scan(2, s_points=19)  # grid step 0.1 includes 0.9
        row = next(r for r in scan.rows if abs(r.s - 0.9) < 1e-12)
        assert len(row.roots) == 2
        assert all(isinstance(ok, bool) for ok in row.realizable)

    def test_residuals_small_across_grid(self):
        for k in (2, 3, 5):
            scan = zero_locus_scan(k, s_points=41)
            worst = max(max(r.residuals, default=0.0) for r in scan.rows)
            assert worst <= 1e-10

    def test_circle_cells_detect_witness_zero(self):
        # k = 3, s = 0: the zero at t = -1/2 lies on the circle |t| = 1/2.
        scan = zero_locus_scan(3, s_points=3, t_abs=0.5, t_points=1024, tol=1e-4)
        hits = [c for c in scan.cells if c.s == 0.0]
        assert hits
        best = min(hits, key=lambda c: abs(c.t + 0.5))
        assert cmath.phase(best.t) == pytest.approx(math.pi, abs=0.02)
        assert best.realizable

    def test_realizability_predicate(self):
        assert realizable_args(3, 0.0, -0.5)
        assert not realizable_args(3, 0.0, 0.0)
        assert not realizable_args(2, 0.9, 0.5)  # 0.81 > 0.5
        assert realizable_args(2, -0.5, 0.5 * 1j)

    def test_rejects_k1(self):
        with pytest.raises(ValueError):
            zero_locus_scan(1)


def _mp_diagonal_ratio(spec, p):
    # B(z,z) (1-r2)^2 (r2 - r1^k)^2 (thin: (r2^k - r1)^2) straight from the
    # closed form, at the exact moduli of the point's doubles.
    with mpmath.workdps(60):
        r1, r2 = (mpmath.sqrt(mpmath.mpf(z.real) ** 2 + mpmath.mpf(z.imag) ** 2) for z in (p.z1, p.z2))
        s, t = r1 * r1, r2 * r2
        if spec.kind is DomainKind.THIN:
            k = spec.k
            kernel = t**k / (mpmath.pi**2 * (1 - t) ** 2 * (t**k - s) ** 2)
            return kernel * (1 - r2) ** 2 * (r2**k - r1) ** 2
        k = spec.k or 1
        quad, lin = (sum(c * s**i for i, c in enumerate(f(k).coeffs)) for f in (quad_coeff, lin_coeff))
        kernel = (quad * t * t + lin * t + s**k * quad) / (k * mpmath.pi**2 * (1 - t) ** 2 * (t - s**k) ** 2)
        return kernel * (1 - r2) ** 2 * (r2 - r1**k) ** 2


class TestDiagonalRatios:
    @pytest.mark.parametrize("spec", FATS + THINS)
    @pytest.mark.parametrize("kind", list(PathKind))
    def test_bounded_on_tails(self, spec, kind):
        rep = diagonal_ratio(spec, boundary_paths(spec, kind))
        assert all(r > 0.0 and math.isfinite(r) for r in rep.ratios)
        assert rep.tail_quotient(10) <= 10.0
        assert rep.min_ratio <= rep.max_ratio

    @pytest.mark.parametrize("spec", [DomainSpec.fat(k) for k in range(1, 9)]
                             + [DomainSpec.thin(k) for k in range(2, 7)], ids=str)
    @pytest.mark.parametrize("kind", list(PathKind), ids=lambda kind: kind.value)
    def test_matches_the_uncancelled_quotient_in_60_digits(self, spec, kind):
        # 45 halving steps, the deepest every path resolves.  The bound of 16 eps
        # was fixed before the first run.
        path = boundary_paths(spec, kind, 45)
        wants = [_mp_diagonal_ratio(spec, p) for p in path.samples]
        worst = max(abs(got - want) / want for got, want in zip(diagonal_ratio(spec, path).ratios, wants))
        assert worst <= 16 * 2.0**-52

    def test_fat2_origin_limit_value(self):
        # At (0, eps): ratio = 1/(2 pi^2 (1 + eps)^2) -> 1/(2 pi^2).
        rep = diagonal_ratio(DomainSpec.fat(2), boundary_paths(DomainSpec.fat(2), PathKind.ORIGIN))
        assert rep.ratios[-1] == pytest.approx(1.0 / (2.0 * math.pi**2), rel=1e-4)


class TestDeltaRate:
    @pytest.mark.parametrize(
        "spec",
        [DomainSpec.fat(1), DomainSpec.fat(2), DomainSpec.thin(2), DomainSpec.thin(3)],
    )
    def test_bounded_tail(self, spec):
        rep = delta_rate(spec, boundary_paths(spec, PathKind.ORIGIN))
        assert rep.tail_quotient <= 10.0
        assert all(v > 0.0 for v in rep.values)

    def test_requires_origin_path(self):
        with pytest.raises(ValueError):
            delta_rate(DomainSpec.fat(2), boundary_paths(DomainSpec.fat(2), PathKind.TOP_FACE))


class TestRamadanov:
    def test_convergence_on_fixed_points(self):
        table = ramadanov_table([Point2C(0.5, 0.6)], 25)
        errors = [row[0] for row in table.errors]
        assert errors[-1] < errors[0] / 10.0
        tail = errors[-10:]
        assert all(b < a for a, b in zip(tail, tail[1:]))

    def test_axis_point_row(self):
        # At (0, 0.5): s = 0, t = 0.25, so
        # B_k(p,p) = ((k-1) t^2 + t) / (k pi^2 (1-t)^2 t^2).
        table = ramadanov_table([Point2C(0.0, 0.5)], 5)
        t = 0.25
        for k in (1, 3, 5):
            want = abs(
                ((k - 1) * t * t + t) / (k * math.pi**2 * (1 - t) ** 2 * t * t)
                - 1.0 / (math.pi**2 * (1 - t) ** 2)
            )
            assert table.errors[k - 1][0] == pytest.approx(want, rel=1e-12)

    def test_start_index_for_wide_points(self):
        # |z1| > |z2| keeps the point out of the classical triangle: k0 = 2.
        table = ramadanov_table([Point2C(0.7, 0.5)], 10)
        assert table.k_start == (2,)
        assert math.isnan(table.errors[0][0])
        assert not math.isnan(table.errors[1][0])

    def test_far_kernels_bounded_away_from_zero(self):
        # The k = 5 witness pair stops being a zero as the exponent grows:
        # values approach the nonvanishing bidisc kernel.
        z, w = Point2C(0.0, 0.5j), Point2C(0.0, -0.5j)
        assert abs(bergman_fat(5, z, w).value) <= 1e-14
        values = [abs(bergman_fat(k, z, w).value) for k in range(30, 51)]
        assert min(values) >= 0.03

    def test_rejects_outside_points(self):
        with pytest.raises(ValueError):
            ramadanov_table([Point2C(0.5, 0.0)], 10)
