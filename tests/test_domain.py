import hashlib
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import dblquad
from scipy.stats import kstest

from hartogs_bergman import (
    DomainError,
    DomainKind,
    DomainSpec,
    PathKind,
    Point2C,
    boundary_distance,
    boundary_paths,
    contains,
    sample_chunks,
    sample_uniform,
    sampling_acceptance,
)
from hartogs_bergman import domain
from hartogs_bergman.domain import (
    BOUNDARY_MARGIN,
    _fill_uniform,
    inside_mask,
    require_inside,
    sample_uniform_arrays,
    volume,
)

TRIANGLES = [
    DomainSpec.classical(),
    DomainSpec.fat(2),
    DomainSpec.fat(3),
    DomainSpec.thin(2),
    DomainSpec.thin(3),
]

EVERY_KIND = TRIANGLES + [DomainSpec.bidisc(), DomainSpec.punctured_bidisc()]


def brute_force_distance(spec, p, n=400_001):
    """Independent oracle: dense scan of the boundary in the modulus plane."""
    r1, r2 = abs(p.z1), abs(p.z2)
    g = float(spec.gamma)
    u = np.linspace(0.0, 1.0, n)
    curve = np.sqrt((u - r1) ** 2 + (u**g - r2) ** 2)
    return min(1.0 - r2, float(curve.min()))


class TestMembership:
    def test_fat2_examples(self):
        assert contains(DomainSpec.fat(2), Point2C(0.5, 0.6))  # 0.25 < 0.6 < 1
        assert not contains(DomainSpec.fat(2), Point2C(0.8, 0.6))  # 0.64 > 0.6

    def test_thin2_example(self):
        assert contains(DomainSpec.thin(2), Point2C(0.2, 0.5))  # 0.2^(1/2) < 0.5

    def test_require_inside(self):
        require_inside(DomainSpec.fat(2), Point2C(0.5, 0.6))
        with pytest.raises(DomainError) as exc:
            require_inside(DomainSpec.fat(2), Point2C(0.8, 0.6))
        assert str(exc.value) == "point ((0.8+0j), (0.6+0j)) is not inside fat:2"
        with pytest.raises(DomainError, match=r"^w \(.*\) is not inside bidisc$"):
            require_inside(DomainSpec.bidisc(), Point2C(0.2, 1.0), name="w")

    def test_boundary_margin_strictness(self):
        spec = DomainSpec.classical()
        assert not contains(spec, Point2C(0.0, 1.0))
        assert not contains(spec, Point2C(0.0, 1.0 - 1e-15))
        assert not contains(spec, Point2C(0.5, 0.5))
        assert contains(spec, Point2C(0.0, 0.5))

    def test_bidisc_kinds(self):
        assert contains(DomainSpec.bidisc(), Point2C(0.0, 0.0))
        assert not contains(DomainSpec.punctured_bidisc(), Point2C(0.0, 0.0))
        assert contains(DomainSpec.punctured_bidisc(), Point2C(0.9, 1e-3))
        assert not contains(DomainSpec.bidisc(), Point2C(1.0, 0.0))

    @given(
        st.sampled_from(TRIANGLES),
        st.floats(0.0, 2.0 * math.pi),
        st.floats(0.0, 2.0 * math.pi),
        st.floats(0.0, 1.2),
        st.floats(0.0, 1.2),
    )
    def test_reinhardt_rotation_invariance(self, spec, th1, th2, r1, r2):
        p = Point2C(r1, r2)
        q = Point2C(r1 * complex(math.cos(th1), math.sin(th1)),
                    r2 * complex(math.cos(th2), math.sin(th2)))
        assert contains(spec, p) == contains(spec, q)


def _rotated(r1, r2, rng, rotate):
    """Complex points with moduli about (r1, r2): exact on the real axis,
    within a couple of ulps after a random rotation."""
    if not rotate:
        return r1.astype(complex), r2.astype(complex)
    th1, th2 = rng.uniform(0.0, 2.0 * math.pi, (2, r1.size))
    return r1 * np.exp(1j * th1), r2 * np.exp(1j * th2)


def _ulp_jitter(x, rng, ulps=4):
    return x + rng.integers(-ulps, ulps + 1, x.size) * np.spacing(x)


def _near_margin_moduli(spec, rng, n=2000):
    """Modulus pairs within a few ulps of each face's margin band."""
    m = BOUNDARY_MARGIN
    faces = {"top": (rng.uniform(0.0, 0.3, n), _ulp_jitter(np.full(n, 1.0 - m), rng))}
    if spec.is_triangle:
        r2 = rng.uniform(0.05, 0.95, n)
        r1 = (r2 - m) ** (1.0 / float(spec.gamma))  # r2 - r1^gamma = margin
        faces["curve"] = (_ulp_jitter(r1, rng), r2)
    else:
        faces["side"] = (_ulp_jitter(np.full(n, 1.0 - m), rng), rng.uniform(0.1, 0.9, n))
    if spec.kind is DomainKind.PUNCTURED_BIDISC:
        faces["puncture"] = (rng.uniform(0.0, 0.9, n), _ulp_jitter(np.full(n, m), rng))
    return faces


class TestMembershipPredicate:
    """contains and inside_mask share one predicate and must agree exactly."""

    def test_covers_every_kind(self):
        assert {spec.kind for spec in EVERY_KIND} == set(DomainKind)

    @staticmethod
    def assert_agree(spec, z1, z2):
        scalar = [contains(spec, Point2C(a, b)) for a, b in zip(z1.tolist(), z2.tolist())]
        assert scalar == inside_mask(spec, z1, z2).tolist()
        return np.array(scalar)

    @pytest.mark.parametrize("spec", EVERY_KIND, ids=str)
    def test_agree_on_random_points(self, spec):
        rng = np.random.default_rng(31)
        r1, r2 = rng.uniform(0.0, 1.1, (2, 4000))
        verdicts = self.assert_agree(spec, *_rotated(r1, r2, rng, rotate=True))
        assert 0 < verdicts.sum() < verdicts.size

    @pytest.mark.parametrize("rotate", [False, True], ids=["real-axis", "rotated"])
    @pytest.mark.parametrize("spec", EVERY_KIND, ids=str)
    def test_agree_within_ulps_of_margin(self, spec, rotate):
        rng = np.random.default_rng(32)
        for face, (r1, r2) in _near_margin_moduli(spec, rng).items():
            verdicts = self.assert_agree(spec, *_rotated(r1, r2, rng, rotate))
            # The jitter straddles the margin, so both verdicts occur.
            assert 0 < verdicts.sum() < verdicts.size, face

    def test_integer_power_matches_repeated_products(self):
        x = np.random.default_rng(33).random(10_000)
        # k = 2 and 3 are the same products as x*x and x*x*x, bit for bit.
        assert np.array_equal(domain.ipow(x, 2), x * x)
        assert np.array_equal(domain.ipow(x, 3), x * x * x)
        x = 1.0 - x * 1e-3
        for k in (4, 5, 8, 13, 1000):
            # Floats and arrays round alike, each within k roundings of x**k.
            y = domain.ipow(x, k)
            assert y[:50].tolist() == [domain.ipow(v, k) for v in x[:50].tolist()]
            assert np.allclose(y, x**k, rtol=k * 2.3e-16, atol=0.0)


class TestSpecParsing:
    def test_round_trip(self):
        for text in ["fat:2", "thin:3", "classical", "bidisc", "punctured-bidisc"]:
            assert str(DomainSpec.parse(text)) == text

    def test_gamma_one_aliases_canonicalize(self):
        assert DomainSpec.fat(1) == DomainSpec.classical() == DomainSpec.thin(1)
        assert str(DomainSpec.parse("fat:1")) == "classical"

    def test_gamma_values(self):
        from fractions import Fraction

        assert DomainSpec.fat(3).gamma == Fraction(3)
        assert DomainSpec.thin(4).gamma == Fraction(1, 4)
        assert DomainSpec.bidisc().gamma is None

    @pytest.mark.parametrize("bad", ["fat", "fat:0", "fat:x", "triangle", "bidisc:2"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            DomainSpec.parse(bad)


class TestBoundaryDistance:
    def test_classical_axis_point(self):
        # Nearest boundary point sits on the diagonal face: 0.5 / sqrt(2).
        d = boundary_distance(DomainSpec.fat(1), Point2C(0.0, 0.5))
        assert d == pytest.approx(0.35355339059327373, abs=1e-12)
        assert d == pytest.approx(brute_force_distance(DomainSpec.fat(1), Point2C(0.0, 0.5)), abs=1e-6)

    def test_fat2_top_face_dominates(self):
        d = boundary_distance(DomainSpec.fat(2), Point2C(0.0, 0.9))
        assert d == pytest.approx(0.1, abs=1e-12)

    def test_fat2_near_origin(self):
        eps = 1e-3
        d = boundary_distance(DomainSpec.fat(2), Point2C(0.0, eps))
        assert abs(d - eps) <= 0.01 * eps
        assert d == pytest.approx(brute_force_distance(DomainSpec.fat(2), Point2C(0.0, eps)), rel=1e-4)

    @pytest.mark.parametrize("spec", TRIANGLES)
    def test_matches_brute_force_on_random_interior(self, spec):
        z1, z2 = sample_uniform_arrays(spec, 8, seed=42)
        for a, b in zip(z1, z2):
            p = Point2C(a, b)
            d = boundary_distance(spec, p)
            assert d == pytest.approx(brute_force_distance(spec, p), abs=2e-6)

    @pytest.mark.parametrize("spec", TRIANGLES)
    def test_coordinate_slack_upper_bounds(self, spec):
        g = float(spec.gamma)
        z1, z2 = sample_uniform_arrays(spec, 50, seed=7)
        for a, b in zip(z1, z2):
            p = Point2C(a, b)
            d = boundary_distance(spec, p)
            assert 0.0 < d <= min(1.0 - abs(b), abs(b) - abs(a) ** g) + 1e-15

    def test_rejects_outside_points(self):
        with pytest.raises(DomainError):
            boundary_distance(DomainSpec.fat(2), Point2C(0.9, 0.6))
        with pytest.raises(DomainError):
            boundary_distance(DomainSpec.bidisc(), Point2C(0.1, 0.1))


# sha256 of z1.tobytes() + z2.tobytes() for sample_uniform_arrays(spec, n,
# seed=20240).  The sampled stream for a fixed (spec, n, seed) is a contract:
# Monte Carlo verdicts and report bytes depend on it.  The inputs are
# numpy's PCG64 Generator.random stream and numpy's real pow and sqrt
# (recorded with numpy 2.4 on x86-64 glibc), so a numpy upgrade may change
# these; a sampler refactor must not.
GOLDEN_STREAMS = {
    ("fat:2", 1): "b0c096e93fe09a97f87f0da917a1b5331813e7c79bb247139cfc9892e1337c73",
    ("fat:2", 1000): "5e5b5bce2aadf204e52ec16bb95e989c433a1bf171a4e6e63d3ea4a23a9bac41",
    ("fat:2", 200_000): "ae19a6086dabacbc5a46d3225ea52202cc0ebd3d259664c495ab5b6797daee2b",
    ("fat:3", 1): "e254b1f2187df4955d47bceaa1350497a7628b26ef4c5b663f06eef0004f802c",
    ("fat:3", 1000): "735fe9c64feb2b2577b640834ba33276f28a1f3c2192d49c4cb74f759204e351",
    ("fat:3", 200_000): "7d4b73c16829d957c44eadcfb9e18057cb69b229b48e219097248d743d39824f",
    ("thin:3", 1): "4456d8ffe46f76e9132a1580c139057587d1aef48fd29dee8bc5a250e28cc9f7",
    ("thin:3", 1000): "8612c1541be3d632cc548f9a37b96ae3279093041494ce5f79c34d96caacfa40",
    ("thin:3", 200_000): "87059a6e10d884383607fe1ba2c15e5ffc2d5746c3bd59059422d09602f69897",
    ("classical", 1): "00ff3c68d7a02d0e72d341334b1e75bd8b2a5d068ce3e977293ccc9b16362a30",
    ("classical", 1000): "192015e04c3db37847ae5c1a6864378da56546e74f3431ad67579c25b6dfb5f7",
    ("classical", 200_000): "dc9cb8368221bbc16e7b79ed975814383e34dcdf75577ffcefca85d4ed67e2a8",
    ("bidisc", 1): "7fd27bb4bc650a1c0a09d057402404f0b07b43eaf2f6fce5b2e35d95ada9ebd3",
    ("bidisc", 1000): "2e6001485bad3f5e902f6f40d621aaa2cd43ae142f61542204292418d90fcd99",
    ("bidisc", 200_000): "21bd3bcb4cd3218392cce99243d19fad83619bdcee3bbce1c52fa154f477e732",
    ("punctured-bidisc", 1): "7fd27bb4bc650a1c0a09d057402404f0b07b43eaf2f6fce5b2e35d95ada9ebd3",
    ("punctured-bidisc", 1000): "2e6001485bad3f5e902f6f40d621aaa2cd43ae142f61542204292418d90fcd99",
    ("punctured-bidisc", 200_000): "21bd3bcb4cd3218392cce99243d19fad83619bdcee3bbce1c52fa154f477e732",
}


class TestSampling:
    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            sample_uniform(DomainSpec.fat(1), 0, seed=1)

    def test_reproducible_and_inside(self):
        spec = DomainSpec.thin(2)
        pts1 = sample_uniform(spec, 256, seed=5)
        pts2 = sample_uniform(spec, 256, seed=5)
        assert pts1 == pts2
        assert all(contains(spec, p) for p in pts1)

    @pytest.mark.parametrize("text, n", sorted(GOLDEN_STREAMS), ids=str)
    def test_golden_stream(self, text, n):
        # n = 1 and 1000 fill from one block; 200_000 takes 13 blocks of
        # 16384 points, and more where the margin band drops a point.
        spec = DomainSpec.parse(text)
        z1, z2 = sample_uniform_arrays(spec, n, seed=20240)
        assert z1.shape == z2.shape == (n,)
        assert inside_mask(spec, z1, z2).all()
        digest = hashlib.sha256(z1.tobytes() + z2.tobytes()).hexdigest()
        assert digest == GOLDEN_STREAMS[(text, n)]

    def test_acceptance_ratio_classical(self):
        # vol(H_1) = pi^2 / 2, so half of bidisc proposals land inside.
        acc = sampling_acceptance(DomainSpec.fat(1), 1_000_000, seed=11)
        assert acc == pytest.approx(0.5, abs=0.005 * 0.5)

    def test_acceptance_ratio_fat2(self):
        acc = sampling_acceptance(DomainSpec.fat(2), 1_000_000, seed=12)
        assert acc == pytest.approx(2.0 / 3.0, abs=0.005 * 2.0 / 3.0)

    @pytest.mark.parametrize("spec", [DomainSpec.fat(2), DomainSpec.thin(2)])
    def test_acceptance_matches_quadrature(self, spec):
        # Oracle: 2D quadrature of the modulus region for the volume.
        g = float(spec.gamma)
        vol, _ = dblquad(
            lambda r1, r2: 4.0 * math.pi**2 * r1 * r2,
            0.0,
            1.0,
            lambda r2: 0.0,
            lambda r2: r2 ** (1.0 / g),
        )
        assert volume(spec) == pytest.approx(vol, rel=1e-9)
        acc = sampling_acceptance(spec, 500_000, seed=13)
        assert acc == pytest.approx(vol / math.pi**2, abs=0.01)


# Every spec the battery samples, plus a steep fat and thin triangle and both bidiscs.
SAMPLED_SPECS = (
    [DomainSpec.classical()]
    + [DomainSpec.fat(k) for k in range(2, 9)]
    + [DomainSpec.thin(k) for k in (2, 3, 4, 5, 20)]
    + [DomainSpec.bidisc(), DomainSpec.punctured_bidisc()]
)


class TestExactSampler:
    """The sampler's law, checked on its output: uniform on the domain.

    On H(gamma), r2^c and (r1 / r2^(1/gamma))^2 are independent Uniform(0, 1)
    with c = 2 + 2/gamma, and both phases are uniform; the bidiscs are the
    limit 1/gamma = 0, c = 2.  Seed, sample size and tolerances are fixed.
    """

    N = 200_000

    @pytest.fixture(scope="class", params=SAMPLED_SPECS, ids=str)
    def drawn(self, request):
        spec = request.param
        z1, z2 = sample_uniform_arrays(spec, self.N, seed=2016)
        inv_gamma = 1.0 / float(spec.gamma) if spec.is_triangle else 0.0
        return spec, z1, z2, inv_gamma, 2.0 + 2.0 * inv_gamma

    def test_every_point_is_inside(self, drawn):
        spec, z1, z2, _, _ = drawn
        assert inside_mask(spec, z1, z2).all()

    def test_second_moments(self, drawn):
        _, z1, z2, inv_gamma, c = drawn
        for x, mean in ((np.abs(z2) ** 2, c / (c + 2.0)),
                        (np.abs(z1) ** 2, c / (2.0 * (c + 2.0 * inv_gamma)))):
            assert abs(x.mean() - mean) <= 5.0 * x.std() / math.sqrt(self.N)

    def test_moduli_transform_to_uniforms(self, drawn):
        _, z1, z2, inv_gamma, c = drawn
        r1, r2 = np.abs(z1), np.abs(z2)
        assert kstest(r2**c, "uniform").pvalue > 1e-3
        assert kstest((r1 / r2**inv_gamma) ** 2, "uniform").pvalue > 1e-3

    def test_phases_are_uniform(self, drawn):
        # The 4th harmonic catches angles drawn from the square, not the disc.
        _, z1, z2, _, _ = drawn
        for z in (z1, z2):
            phase = z / np.abs(z)
            for m in (1, 2, 4):
                assert abs((phase**m).mean()) <= 5.0 / math.sqrt(self.N)

    def test_draw_memory_is_its_output_and_a_few_blocks(self):
        # 10^6 points are 30.5 MiB of complex128; the blocks add at most 4 MiB.
        rng = np.random.default_rng(3)
        tracemalloc.start()
        try:
            z1, z2 = _fill_uniform(rng, DomainSpec.thin(3), 1_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= z1.nbytes + z2.nbytes + 4 * 2**20

    @pytest.mark.parametrize("k", [10**14, 2 * 10**14])
    def test_keep_share_bound_holds_where_it_binds(self, k):
        spec = DomainSpec.thin(k)
        u, v = np.random.default_rng(7).random((2, 10**6))
        kept = np.count_nonzero(domain._inside_moduli(spec, *domain._moduli(spec, u, v)))
        assert 0 < kept <= domain._keep_share_bound(spec) * 10**6 < 10**6

    @pytest.mark.parametrize("spec", [DomainSpec.classical(), DomainSpec.fat(8), DomainSpec.thin(4),
                                      DomainSpec.thin(10**12), DomainSpec.bidisc()], ids=str)
    def test_keep_share_bound_is_one_where_blocks_keep_points(self, spec):
        assert domain._keep_share_bound(spec) == 1.0

    def test_stream_too_thin_to_expect_a_chunk_fails_before_drawing(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew")

        monkeypatch.setattr(domain, "_fill_uniform", no_draw)
        with pytest.raises(ValueError, match=r"^rejection sampling on thin:\d+ keeps at most .* "
                                             r"fewer than 5$"):
            next(sample_chunks(DomainSpec.thin(10**15), 5, 1, 5))

    def test_unsampleable_domain_is_a_value_error(self, monkeypatch):
        # thin:10^17: r2 rounds to 1, so every block lands in the top margin band.
        monkeypatch.setattr(domain, "_EMPTY_BLOCKS", 3)
        with pytest.raises(ValueError, match=r"^rejection sampling on thin:\d+ accepted 0 of 5 points$"):
            _fill_uniform(np.random.default_rng(1), DomainSpec.thin(10**17), 5)


def _helper_threads():
    return [t for t in threading.enumerate() if t.name.startswith("sample_chunks")]


class TestSampleChunks:
    SPEC = DomainSpec.thin(3)  # acceptance 1/4: each chunk takes several rounds

    def _sequential(self, n, seed, chunk):
        rng = np.random.default_rng(seed)
        return [_fill_uniform(rng, self.SPEC, min(chunk, n - lo)) for lo in range(0, n, chunk)]

    def _check_stream(self, n, seed, chunk):
        before = threading.active_count()
        helpers = []
        got = []
        for z1, z2 in sample_chunks(self.SPEC, n, seed, chunk):
            helpers.append(len(_helper_threads()))
            got.append((z1, z2))
        expected = self._sequential(n, seed, chunk)
        assert len(got) == len(expected)
        for (z1, z2), (e1, e2) in zip(got, expected):
            assert z1.tobytes() == e1.tobytes()
            assert z2.tobytes() == e2.tobytes()
        assert threading.active_count() == before
        return helpers

    def test_single_chunk_starts_no_thread(self):
        assert self._check_stream(5_000, seed=40, chunk=20_000) == [0]

    def test_exact_multiple_of_chunk(self):
        helpers = self._check_stream(30_000, seed=41, chunk=10_000)
        assert helpers == [0, 0, 0]

    def test_partial_last_chunk(self):
        self._check_stream(25_001, seed=42, chunk=10_000)

    def test_short_switch_interval(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            self._check_stream(25_001, seed=42, chunk=10_000)
        finally:
            sys.setswitchinterval(interval)

    def test_sampler_error_reaches_caller(self, monkeypatch):
        calls = []

        def failing(rng, spec, n):
            calls.append(n)
            if len(calls) == 2:
                raise RuntimeError("second chunk failed")
            return _fill_uniform(rng, spec, n)

        monkeypatch.setattr(domain, "_fill_uniform", failing)
        before = threading.active_count()
        stream = sample_chunks(self.SPEC, 30_000, seed=43, chunk=10_000)
        next(stream)
        with pytest.raises(RuntimeError, match="second chunk failed"):
            next(stream)
        assert len(calls) == 2
        assert threading.active_count() == before

    @pytest.mark.parametrize("n, chunk", [(0, 10), (10, 0)])
    def test_rejects_empty_stream_or_chunk(self, n, chunk):
        with pytest.raises(ValueError):
            next(sample_chunks(self.SPEC, n, seed=1, chunk=chunk))


class TestBoundaryPaths:
    @pytest.mark.parametrize("spec", TRIANGLES)
    @pytest.mark.parametrize("kind", list(PathKind))
    def test_paths_inside_and_decreasing(self, spec, kind):
        path = boundary_paths(spec, kind)
        assert len(path.samples) >= 20
        assert all(contains(spec, p) for p in path.samples)
        d = [abs(p.z1 - path.target.z1) ** 2 + abs(p.z2 - path.target.z2) ** 2
             for p in path.samples]
        assert all(b < a for a, b in zip(d, d[1:]))

    def test_origin_and_top_face_shapes(self):
        path = boundary_paths(DomainSpec.fat(2), PathKind.ORIGIN)
        assert [p.z2 for p in path.samples] == [2.0**-m for m in range(1, 21)]
        top = boundary_paths(DomainSpec.fat(2), PathKind.TOP_FACE)
        assert [p.z2 for p in top.samples] == [1.0 - 2.0**-m for m in range(1, 21)]

    def test_unresolvable_step_is_a_value_error(self):
        with pytest.raises(ValueError, match="step 47 of the origin path.*resolves 46 steps"):
            boundary_paths(DomainSpec.fat(2), PathKind.ORIGIN, 47)
        assert len(boundary_paths(DomainSpec.fat(2), PathKind.ORIGIN, 46).samples) == 46

    @pytest.mark.parametrize("kind", list(PathKind))
    def test_oversized_steps_fail_before_building_the_path(self, kind):
        # Every kind leaves the domain within ~50 halvings; the points past
        # that step must never be built.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="double precision resolves"):
                boundary_paths(DomainSpec.fat(2), kind, 200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_smooth_levi_flat_z1_increases(self):
        path = boundary_paths(DomainSpec.fat(2), PathKind.SMOOTH_LEVI_FLAT)
        mags = [abs(p.z1) for p in path.samples]
        assert all(b > a for a, b in zip(mags, mags[1:]))
        assert all(p.z2 == 0.5 for p in path.samples)

    def test_origin_distance_rate_fat(self):
        # For k >= 2 the curve bends away quadratically, so delta -> |z2|.
        for k in (2, 3):
            path = boundary_paths(DomainSpec.fat(k), PathKind.ORIGIN)
            p = path.samples[-1]
            assert boundary_distance(DomainSpec.fat(k), p) / abs(p.z2) == pytest.approx(1.0, rel=1e-2)

    def test_origin_distance_rate_classical(self):
        # gamma = 1: the nearest face is the diagonal, ratio 1/sqrt(2).
        path = boundary_paths(DomainSpec.classical(), PathKind.ORIGIN)
        p = path.samples[-1]
        ratio = boundary_distance(DomainSpec.classical(), p) / abs(p.z2)
        assert ratio == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-6)

    def test_origin_distance_rate_thin(self):
        # delta ~ |z2|^k - |z1| near the origin singularity.
        for k in (2, 3):
            spec = DomainSpec.thin(k)
            path = boundary_paths(spec, PathKind.ORIGIN)
            p = path.samples[-1]
            slack = abs(p.z2) ** k - abs(p.z1)
            assert boundary_distance(spec, p) / slack == pytest.approx(1.0, rel=1e-2)

    def test_requires_triangle_and_enough_steps(self):
        with pytest.raises(DomainError):
            boundary_paths(DomainSpec.bidisc(), PathKind.ORIGIN)
        with pytest.raises(ValueError):
            boundary_paths(DomainSpec.fat(2), PathKind.ORIGIN, steps=5)
