import cmath
import math

import numpy as np
import pytest

from hartogs_bergman import (
    DomainError,
    DomainSpec,
    Point2C,
    SingularEvaluation,
    apply,
    bell_residual,
    biholo_residual,
    branch_inverses,
    power_map,
    shear,
    shear_inv,
    shear_iter,
    shear_iter_inv,
)
from hartogs_bergman.domain import contains, sample_uniform_arrays
from hartogs_bergman.transforms import covering_residuals, invariance_residuals


def pairs_of(spec, n, seed):
    z1, z2 = sample_uniform_arrays(spec, 2 * n, seed)
    return [(Point2C(z1[i], z2[i]), Point2C(z1[n + i], z2[n + i])) for i in range(n)]


def fd_jacobian(f, p, h=1e-6):
    """Finite-difference det of the holomorphic Jacobian, the U_j oracle."""
    rows = []
    for e1, e2 in ((h, 0.0), (0.0, h)):
        up = f(Point2C(p.z1 + e1, p.z2 + e2))
        dn = f(Point2C(p.z1 - e1, p.z2 - e2))
        rows.append(((up.z1 - dn.z1) / (2 * h), (up.z2 - dn.z2) / (2 * h)))
    return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]


class TestApply:
    def test_power_map_example(self):
        q = apply(power_map(2), Point2C(0.3, 0.5))
        assert (q.z1, q.z2) == (0.3, 0.25)
        assert contains(DomainSpec.fat(2), q)

    def test_shear_example(self):
        q = apply(shear(), Point2C(0.3, 0.5))
        assert q.z1 == pytest.approx(0.6)
        assert contains(DomainSpec.punctured_bidisc(), q)

    def test_source_membership_enforced(self):
        with pytest.raises(DomainError):
            apply(power_map(2), Point2C(0.6, 0.5))  # outside the classical triangle
        with pytest.raises(DomainError):
            apply(shear_iter(2), Point2C(0.3, 0.5))  # outside thin:2

    def test_iterated_shear_round_trip(self):
        spec = DomainSpec.thin(2)
        z1, z2 = sample_uniform_arrays(spec, 100, seed=41)
        fwd, back = shear_iter(2), shear_iter_inv(2)
        for a, b in zip(z1, z2):
            p = Point2C(a, b)
            q = back.image(fwd.image(p))
            assert abs(q.z1 - p.z1) <= 1e-14 and abs(q.z2 - p.z2) <= 1e-14

    @pytest.mark.parametrize(
        "m,spec",
        [
            (power_map(3), DomainSpec.classical()),
            (shear(), DomainSpec.classical()),
            (shear_inv(), DomainSpec.punctured_bidisc()),
            (shear_iter(2), DomainSpec.thin(2)),
            (shear_iter_inv(2), DomainSpec.punctured_bidisc()),
        ],
    )
    def test_jacobians_match_finite_differences(self, m, spec):
        z1, z2 = sample_uniform_arrays(spec, 5, seed=43)
        for a, b in zip(z1, z2):
            p = Point2C(a, b)
            assert m.jacobian(p) == pytest.approx(fd_jacobian(m.image, p), rel=1e-5)


class TestBranchInverses:
    def test_k2_real_roots(self):
        branches = branch_inverses(2, Point2C(0.3, 0.25))
        roots = sorted(b.preimage.z2.real for b in branches)
        assert roots == pytest.approx([-0.5, 0.5])
        assert [b.j for b in branches] == [1, 2]
        for b in branches:
            assert contains(DomainSpec.classical(), b.preimage)

    def test_k3_rotated_roots(self):
        branches = branch_inverses(3, Point2C(0.0, 0.125))
        zeta = cmath.exp(2j * math.pi / 3)
        got = sorted((b.preimage.z2 for b in branches), key=lambda z: cmath.phase(z))
        want = sorted((0.5 * zeta**j for j in range(1, 4)), key=lambda z: cmath.phase(z))
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-15)

    def test_round_trip_and_distinctness(self):
        w = Point2C(0.2 - 0.1j, 0.3 + 0.2j)
        for k in (1, 2, 5, 8):
            branches = branch_inverses(k, w)
            assert len(branches) == k
            seconds = [b.preimage.z2 for b in branches]
            for i, a in enumerate(seconds):
                assert abs(a**k - w.z2) <= 1e-14  # k-th powers recover w2
                for b in seconds[i + 1 :]:
                    assert abs(a - b) > 1e-8

    def test_jacobians_match_finite_differences(self):
        # Differentiation fixes the branch Jacobian normalization.
        w = Point2C(0.1, 0.4 + 0.1j)
        for k in (2, 3, 4):
            for branch in branch_inverses(k, w):
                zeta_j = cmath.exp(2j * math.pi * branch.j / k)

                def sector_root(q, _zeta=zeta_j, _k=k):
                    base = abs(q.z2) ** (1.0 / _k) * cmath.exp(
                        1j * (cmath.phase(q.z2) % (2 * math.pi)) / _k
                    )
                    return Point2C(q.z1, _zeta * base)

                assert branch.jacobian == pytest.approx(fd_jacobian(sector_root, w, h=1e-7), rel=1e-4)

    def test_loop_continuity_of_preimage_set(self):
        # The set of preimage second coordinates varies continuously along a
        # w2 loop and returns to itself after a full turn.
        k = 3
        thetas = [2.0 * math.pi * i / 400 for i in range(401)]
        prev = None
        for th in thetas:
            w = Point2C(0.05, 0.3 * cmath.exp(1j * th))
            current = sorted(
                (b.preimage.z2 for b in branch_inverses(k, w)), key=lambda z: cmath.phase(z)
            )
            if prev is not None:
                hausdorff = max(min(abs(a - b) for b in current) for a in prev)
                assert hausdorff < 0.02
            prev = current
        start = sorted(
            (b.preimage.z2 for b in branch_inverses(k, Point2C(0.05, 0.3))),
            key=lambda z: cmath.phase(z),
        )
        assert all(abs(a - b) < 1e-12 for a, b in zip(prev, start))

    def test_requires_fat_membership(self):
        with pytest.raises(DomainError):
            branch_inverses(2, Point2C(0.6, 0.25))


class TestBellIdentity:
    def test_spec_pair(self):
        assert bell_residual(2, Point2C(0.1, 0.4), Point2C(0.2, 0.3)) <= 1e-10

    def test_degenerate_order_one(self):
        assert bell_residual(1, Point2C(0.1, 0.4), Point2C(0.2, 0.3)) <= 1e-14

    def test_k5_random_pairs(self):
        zs = pairs_of(DomainSpec.classical(), 100, seed=44)
        ws = pairs_of(DomainSpec.fat(5), 100, seed=45)
        worst = max(
            bell_residual(5, z, w) for (z, _), (w, _) in zip(zs, ws)
        )
        assert worst <= 1e-9

    def test_singular_pair_raises(self):
        # Both arguments corner-adjacent: the target-kernel denominator
        # factors (1-t)^2 and (t-s^k)^2 collapse together.  Margins are
        # chosen so the branch preimages stay (barely) inside.
        corner = Point2C(1.0 - 8e-14, 1.0 - 5e-14)
        with pytest.raises(SingularEvaluation):
            bell_residual(2, corner, corner)


class TestBiholoInvariance:
    def test_shear_reproduces_classical_kernel(self):
        worst = max(
            biholo_residual(shear(), DomainSpec.classical(), DomainSpec.punctured_bidisc(), z, w)
            for z, w in pairs_of(DomainSpec.classical(), 200, seed=46)
        )
        assert worst <= 1e-13

    def test_shear_inverse_direction(self):
        worst = max(
            biholo_residual(shear_inv(), DomainSpec.punctured_bidisc(), DomainSpec.classical(), z, w)
            for z, w in pairs_of(DomainSpec.punctured_bidisc(), 100, seed=47)
        )
        assert worst <= 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_thin_chain_step(self, k):
        src, dst = DomainSpec.thin(k + 1), DomainSpec.thin(k)
        worst = max(
            biholo_residual(shear(), src, dst, z, w) for z, w in pairs_of(src, 100, seed=48 + k)
        )
        assert worst <= 1e-12

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_iterated_shear_decides_thin_variant(self, k):
        src = DomainSpec.thin(k)
        dst = DomainSpec.punctured_bidisc()
        pairs = pairs_of(src, 50, seed=52 + k)
        good = max(
            biholo_residual(shear_iter(k), src, dst, z, w, thin_variant="1-t") for z, w in pairs
        )
        bad = min(
            biholo_residual(shear_iter(k), src, dst, z, w, thin_variant="1-s") for z, w in pairs
        )
        assert good <= 1e-12
        assert bad > 1e-3

    def test_iterated_shear_inverse_direction(self):
        src, dst = DomainSpec.punctured_bidisc(), DomainSpec.thin(3)
        worst = max(
            biholo_residual(shear_iter_inv(3), src, dst, z, w)
            for z, w in pairs_of(src, 50, seed=57)
        )
        assert worst <= 1e-12

    def test_rejects_branched_maps(self):
        with pytest.raises(ValueError):
            biholo_residual(
                power_map(2),
                DomainSpec.classical(),
                DomainSpec.fat(2),
                Point2C(0.1, 0.4),
                Point2C(0.1, 0.4),
            )

    def test_unknown_thin_variant_raises(self):
        # Neither domain is thin, yet the variant is still validated.
        z, w = Point2C(0.1, 0.4), Point2C(0.2, 0.5)
        with pytest.raises(ValueError, match="unknown thin variant"):
            biholo_residual(
                shear(), DomainSpec.classical(), DomainSpec.punctured_bidisc(), z, w,
                thin_variant="1-x",
            )

    def test_singular_pair_raises(self):
        corner = Point2C(1.0 - 2.6e-14, 1.0 - 1.2e-14)
        with pytest.raises(SingularEvaluation):
            biholo_residual(
                shear(), DomainSpec.classical(), DomainSpec.punctured_bidisc(), corner, corner
            )



def columns(pairs):
    """(z, w) point pairs as the four arrays z1, z2, w1, w2."""
    return [np.array([getattr(pair[i], c) for pair in pairs])
            for i, c in ((0, "z1"), (0, "z2"), (1, "z1"), (1, "z2"))]


# The eight maps of the biholo-check workload, each with its default domains.
BIHOLO_MAPS = [shear(), shear_inv(), *(f(k) for f in (shear_iter, shear_iter_inv) for k in (2, 3, 4))]
CORNER = (1.0 - 2.6e-14, 1.0 - 1.2e-14)  # a classical point next to the corner (1, 1)


def first_raised(calls):
    """The exception the first failing call raises, as the one-pair loop meets it."""
    try:
        for call in calls:
            call()
    except (DomainError, SingularEvaluation) as exc:
        return type(exc), str(exc)
    return None


class TestArrayPath:
    """The array rules against their one-pair wrappers, bit for bit, and the fault each reports."""

    @pytest.mark.parametrize("k", range(2, 9))
    def test_covering_residuals_match_the_wrapper(self, k):
        zs = pairs_of(DomainSpec.classical(), 60, seed=60 + k)
        ws = pairs_of(DomainSpec.fat(k), 60, seed=70 + k)
        z1, z2, _, _ = columns(zs)
        w1, w2, _, _ = columns(ws)
        got = covering_residuals(k, z1, z2, w1, w2)
        want = [bell_residual(k, z, w) for (z, _), (w, _) in zip(zs, ws)]
        assert got.shape == (60,)
        assert got.tolist() == want

    @pytest.mark.parametrize("m", BIHOLO_MAPS, ids=lambda m: f"{m.kind.value}-{m.k}")
    def test_invariance_residuals_match_the_wrapper(self, m):
        src, dst = m.default_source, m.default_target
        pairs = pairs_of(src, 60, seed=80)
        got = invariance_residuals(m, src, dst, *columns(pairs))
        want = [biholo_residual(m, src, dst, z, w) for z, w in pairs]
        assert got.tolist() == want

    def test_branch_roots_keep_the_seam_rule(self):
        # Just below the positive real axis the base root's argument is near 2pi/k,
        # unless it lies within 1e-15 of the seam, where it resolves to 0.
        for below, base_arg in ((1e-16, 0.0), (1e-6, 2.0 * math.pi / 3)):
            w = Point2C(0.0, 0.4 * cmath.exp(-1j * below))
            last = branch_inverses(3, w)[-1]  # j = k: the base root itself
            assert abs(last.preimage.z2 - 0.4 ** (1 / 3) * cmath.exp(1j * base_arg)) <= 1e-6

    def bell_faults(self, points):
        z1, z2, w1, w2 = columns(points)
        loop = [lambda z=z, w=w: bell_residual(2, z, w) for z, w in points]
        return first_raised([lambda: covering_residuals(2, z1, z2, w1, w2)]), first_raised(loop)

    def test_singular_pair_before_an_outside_pair_is_singular(self):
        corner = Point2C(1.0 - 8e-14, 1.0 - 5e-14)
        ok = (Point2C(0.1, 0.4), Point2C(0.2, 0.3))
        outside = (Point2C(0.6, 0.5), Point2C(0.2, 0.3))
        array, loop = self.bell_faults([ok, (corner, corner), outside])
        assert array == loop
        assert array[0] is SingularEvaluation

    def test_outside_pair_before_a_singular_pair_is_a_domain_error(self):
        corner = Point2C(1.0 - 8e-14, 1.0 - 5e-14)
        outside = (Point2C(0.6, 0.5), Point2C(0.2, 0.3))
        array, loop = self.bell_faults([outside, (corner, corner)])
        assert array == loop
        assert array == (DomainError, "z ((0.6+0j), (0.5+0j)) is not inside classical")

    def test_membership_fault_wins_within_one_pair(self):
        # At the corner the source kernel is near-singular, and the shear's image of
        # the corner lies outside the classical triangle (a wrong target).
        z = Point2C(*CORNER)
        src, dst = DomainSpec.classical(), DomainSpec.classical()
        array = first_raised([lambda: invariance_residuals(shear(), src, dst, *columns([(z, z)]))])
        loop = first_raised([lambda: biholo_residual(shear(), src, dst, z, z)])
        assert array == loop
        assert array[0] is DomainError and array[1].startswith("F(z) (")
        # The same pair with the right target is only near-singular.
        with pytest.raises(SingularEvaluation):
            invariance_residuals(shear(), src, DomainSpec.punctured_bidisc(), *columns([(z, z)]))

    def test_a_shear_needs_nonzero_z2(self):
        # The full bidisc holds z2 = 0, where no shear is defined.
        bidisc = DomainSpec.bidisc()
        pairs = [(Point2C(0.1, 0.5), Point2C(0.2, 0.3)), (Point2C(0.1, 0.5), Point2C(0.2, 0.0))]
        array = first_raised([lambda: invariance_residuals(shear_inv(), bidisc, bidisc, *columns(pairs))])
        assert array == (DomainError, "map needs z2 != 0")
        assert array == first_raised([lambda p=p: biholo_residual(shear_inv(), bidisc, bidisc, *p)
                                      for p in pairs])
