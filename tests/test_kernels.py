import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hartogs_bergman import (
    DomainError,
    DomainKind,
    DomainSpec,
    KernelArgs,
    Point2C,
    bergman_fat,
    bergman_reference,
    bergman_thin,
    diagonal,
    kernel,
)
from hartogs_bergman import cli, kernels
from hartogs_bergman.domain import sample_uniform_arrays
from hartogs_bergman.kernels import kernel_num_den, near_singular, pair_invariants

PI_SQ = math.pi**2


def pairs_of(spec, n, seed):
    z1, z2 = sample_uniform_arrays(spec, 2 * n, seed)
    return [
        (Point2C(z1[i], z2[i]), Point2C(z1[n + i], z2[n + i]))
        for i in range(n)
    ]


class TestHandValues:
    def test_classical_diagonal_at_axis_point(self):
        # s = 0, t = 1/2: value = 1/(pi^2 * t * (1-t)^2) = 8/pi^2.
        z = Point2C(0.0, 1.0 / math.sqrt(2.0))
        assert diagonal(DomainSpec.classical(), z) == pytest.approx(8.0 / PI_SQ, rel=1e-13)

    def test_fat2_diagonal_axis_formula(self):
        # At (0, r): s = 0, t = r^2, numerator t^2 + t (quad and lin
        # coefficients are both 1 at s = 0), so value = (1+t)/(2 pi^2 (1-t)^2 t).
        for r in (0.3, 0.5, 0.8):
            t = r * r
            got = diagonal(DomainSpec.fat(2), Point2C(0.0, r))
            want = (1.0 + t) / (2.0 * PI_SQ * (1.0 - t) ** 2 * t)
            assert got == pytest.approx(want, rel=1e-13)

    def test_thin2_diagonal_axis_value(self):
        # Resolved closed form at s = 0, t = 1/2: 16/pi^2.
        z = Point2C(0.0, 1.0 / math.sqrt(2.0))
        assert diagonal(DomainSpec.thin(2), z) == pytest.approx(16.0 / PI_SQ, rel=1e-13)

    def test_bidisc_center(self):
        kv = bergman_reference(DomainSpec.bidisc(), Point2C(0, 0), Point2C(0, 0))
        assert kv.value == pytest.approx(1.0 / PI_SQ, rel=1e-15)

    def test_fat3_zero_numerator_pair(self):
        # s = 0, t = -1/2: numerator 2 t^2 + t = 0.
        r = 1.0 / math.sqrt(2.0)
        kv = bergman_fat(3, Point2C(0, r * 1j), Point2C(0, -r * 1j))
        assert abs(kv.numerator) <= 1e-15
        assert abs(kv.value) <= 1e-14


class TestCoincidences:
    def test_gamma_one_kernels_identical(self):
        for z, w in pairs_of(DomainSpec.classical(), 50, seed=3):
            a = bergman_fat(1, z, w).value
            b = bergman_thin(1, z, w).value
            c = bergman_reference(DomainSpec.classical(), z, w).value
            d = bergman_thin(1, z, w, variant="1-s").value
            assert a == b == c == d  # same arithmetic path, bit identical

    def test_punctured_equals_bidisc(self):
        for z, w in pairs_of(DomainSpec.punctured_bidisc(), 50, seed=4):
            a = bergman_reference(DomainSpec.punctured_bidisc(), z, w).value
            b = bergman_reference(DomainSpec.bidisc(), z, w).value
            assert a == b

    def test_classical_matches_quotient_form(self):
        # t / (pi^2 (1-t)^2 (t-s)^2), written out independently.
        for z, w in pairs_of(DomainSpec.classical(), 50, seed=5):
            args = KernelArgs.from_points(z, w)
            s, t = args.s, args.t
            want = t / (PI_SQ * (1.0 - t) ** 2 * (t - s) ** 2)
            assert bergman_fat(1, z, w).value == pytest.approx(want, rel=1e-13)


class TestSymmetries:
    @pytest.mark.parametrize(
        "spec",
        [DomainSpec.classical(), DomainSpec.fat(2), DomainSpec.fat(5), DomainSpec.thin(3)],
    )
    def test_hermitian_symmetry(self, spec):
        for z, w in pairs_of(spec, 40, seed=6):
            a = kernel(spec, z, w).value
            b = kernel(spec, w, z).value
            assert a == pytest.approx(b.conjugate(), rel=1e-13)

    @given(st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 2.0 * math.pi))
    def test_rotation_covariance(self, th1, th2):
        spec = DomainSpec.fat(2)
        z, w = Point2C(0.2 + 0.1j, 0.6), Point2C(0.1, 0.5 - 0.3j)
        rot1 = complex(math.cos(th1), math.sin(th1))
        rot2 = complex(math.cos(th2), math.sin(th2))
        zr = Point2C(z.z1 * rot1, z.z2 * rot2)
        wr = Point2C(w.z1 * rot1, w.z2 * rot2)
        base = kernel(spec, z, w).value
        rotated = kernel(spec, zr, wr).value
        assert rotated == pytest.approx(base, rel=1e-12)


class TestDiagonal:
    @pytest.mark.parametrize(
        "spec",
        [DomainSpec.classical(), DomainSpec.fat(2), DomainSpec.thin(2), DomainSpec.bidisc()],
    )
    def test_positive_on_random_points(self, spec):
        z1, z2 = sample_uniform_arrays(spec, 100_000, seed=8)
        s = z1 * np.conj(z1)
        t = z2 * np.conj(z2)
        num, den = kernel_num_den(spec, s, t)
        values = (num / den).real
        assert np.all(values > 0.0)
        # And the scalar entry point agrees on a handful of them (numpy and
        # scalar complex pow round slightly differently, amplified by the
        # conditioning of t - s^k near the boundary).
        for i in range(0, 100_000, 20_000):
            p = Point2C(z1[i], z2[i])
            assert diagonal(spec, p) == pytest.approx(values[i], rel=1e-9)

    def test_rejects_outside(self):
        with pytest.raises(DomainError):
            diagonal(DomainSpec.fat(2), Point2C(0.9, 0.5))


class TestValueStructure:
    def test_value_equals_quotient(self):
        kv = bergman_fat(2, Point2C(0.1, 0.5), Point2C(0.2, 0.4))
        assert kv.value == kv.numerator / kv.denominator
        assert not kv.near_singular

    def test_near_singular_flag_fires_near_corner(self):
        # Both inequalities within ~1e-14 of equality: the two squared
        # denominator factors each drop to ~1e-28.
        r1 = 1.0 - 2.6e-14
        r2 = 1.0 - 1.2e-14
        p = Point2C(r1, r2)
        assert DomainSpec.classical().is_triangle
        kv = bergman_fat(1, p, p)
        assert kv.near_singular
        assert abs(kv.denominator) < 1e-30

    def test_membership_errors(self):
        with pytest.raises(DomainError):
            bergman_fat(2, Point2C(0.8, 0.6), Point2C(0.1, 0.5))
        with pytest.raises(DomainError):
            bergman_thin(2, Point2C(0.3, 0.5), Point2C(0.3, 0.5))  # 0.3^(1/2) > 0.5
        with pytest.raises(ValueError):
            bergman_fat(0, Point2C(0, 0.5), Point2C(0, 0.5))

    @pytest.mark.parametrize(
        "spec",
        [DomainSpec.classical(), DomainSpec.fat(3), DomainSpec.thin(2), DomainSpec.bidisc()],
        ids=str,
    )
    def test_unknown_thin_variant_raises(self, spec):
        with pytest.raises(ValueError, match="unknown thin variant '1-x'"):
            kernel_num_den(spec, 0.01 + 0.0j, 0.25 + 0.0j, "1-x")
        with pytest.raises(ValueError, match="unknown thin variant"):
            kernel_num_den(spec, np.full(3, 0.01j), np.full(3, 0.25 + 0.0j), "1-x")

    def test_thin_variants_differ_off_axis(self):
        z, w = Point2C(0.05, 0.6), Point2C(0.04, 0.5)
        a = bergman_thin(2, z, w, variant="1-t").value
        b = bergman_thin(2, z, w, variant="1-s").value
        assert abs(a - b) / abs(a) > 1e-2
        assert bergman_thin(2, z, w).value == a  # default is the resolved form


# Every scalar entry point, pinned bit for bit: the sha256 of the reprs of
# (value, numerator, denominator, near_singular) over seeded pairs of each
# domain, in the order _scalar_results lists them.  The pairs come from the
# sampler, whose streams GOLDEN_STREAMS in test_domain.py pins;
# the hashes also depend on the platform libm (recorded with numpy 2.4 on
# x86-64 glibc, Python 3.11).  The two bidiscs draw the same pairs and share
# one kernel, hence one hash.
_GOLDEN_PAIRS = 300
_CORNER = Point2C(1.0 - 2.6e-14, 1.0 - 1.2e-14)
GOLDEN_SCALAR = {
    "fat:1": "086d9e1f0e648870ae04de0d122001e6067771dd987c2f6030552dcc72d0e7cf",
    "fat:2": "bc5f74a40844e8bf0891f89ff60a84db2e922e5e51d493da77ca48dddbb03f9d",
    "fat:3": "a21cd9d454e2bb7eb289f4dd425cb23d943a842f9c51b159f75f874ae06c7839",
    "fat:4": "014e8f55fa8a84194bcf0b5d7b662a762ad6a38db238d84f532c84b3ca502c45",
    "fat:5": "ad71c08afe1cc786a68f89df8a9799c5ae38de38755c4bcf56c91360f52ff85f",
    "fat:6": "6da758266b3b263e7f6fbdbdc4c36ea5d22433635ce6b35a739ed3a049a8c54e",
    "fat:7": "bb7af5c41e33d4a1913c51da7d6beb93571e37816a459e48ec700f819069b2e9",
    "fat:8": "61bd867f675f0bf234c18d3911fe7a67a3d1978d30cc80ee1003d635e008bff9",
    "thin:2": "66044f2256bfb6be5e1c98b833f7b508cc02b8212af7bb9c22b16ed86281edc2",
    "thin:3": "1b3b60f6fc6b71700190bb519d04ed4ccba4c6ef4f93f6136d26148625378147",
    "thin:4": "f7a4d1b0354abb75af4cc48ba2c1f177dbc4922f9a9c53c6e11a26463303d8dd",
    "thin:5": "27fb7dafec4dc53de849b3590fc190d3c5f0b3bc677447855ff865494e0043cc",
    "bidisc": "5b65e1e1a658cd6ea91af28d9e2bc33723f3a8f409e2c5ea125cf6227a4ac75f",
    "punctured-bidisc": "5b65e1e1a658cd6ea91af28d9e2bc33723f3a8f409e2c5ea125cf6227a4ac75f",
    "corner": "05e3c5f22a329c5fcc4bc7f40d1fb25c3d23e90a6b2163a771347df782f8037f",
}


def _scalar_results(text):
    if text == "corner":
        spec, pairs = DomainSpec.classical(), [(_CORNER, _CORNER)]
    else:
        spec = DomainSpec.parse(text)  # fat:1 is the classical triangle
        pairs = pairs_of(spec, _GOLDEN_PAIRS, seed=17)
    for z, w in pairs:
        if spec.kind is DomainKind.THIN:
            for v in ("1-t", "1-s"):
                yield kernel(spec, z, w, thin_variant=v)
                yield bergman_thin(spec.k, z, w, variant=v)
            continue
        yield kernel(spec, z, w)
        if spec.kind is DomainKind.FAT:
            yield bergman_fat(spec.k, z, w)
            continue
        if spec.kind is DomainKind.CLASSICAL:
            yield bergman_fat(1, z, w)
        yield bergman_reference(spec, z, w)


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("text", list(GOLDEN_SCALAR))
def test_scalar_entry_points_golden(text):
    lines = [
        repr((kv.value, kv.numerator, kv.denominator, kv.near_singular))
        for kv in _scalar_results(text)
    ]
    assert _digest(lines) == GOLDEN_SCALAR[text]


# The array path of kernel_num_den, pinned bit for bit: the sha256 of the
# numerator and denominator bytes on seeded pair arrays of each domain, one
# hash per thin variant.  Same sampler and platform caveats as GOLDEN_SCALAR.
GOLDEN_ARRAY = {
    ("fat:1", "1-t"):
        "e0ff71fa3e2972ffe08f55acae28cd29ff793737a504529ef8ff1b8e7ba2d245",
    ("fat:2", "1-t"):
        "b977b1e483a9d6a44c10128443a20ae56bda3ceb96798e05d0cb31c8b4db6808",
    ("fat:3", "1-t"):
        "d7503b014ca2bf9628eb2c9790d9862a65b04048392408356fd4651ab3fae596",
    ("fat:4", "1-t"):
        "25cdf4104e58cbc4f917c4eba29b385a5df0cfbe58d1ca162b6111f127ad32d6",
    ("fat:5", "1-t"):
        "5ae0bc78a11accebda0d0390e58e2592888ddd90b6fcf0af9228d88df1f4f454",
    ("fat:6", "1-t"):
        "c9b406f3ef8c2aca021d9c836d2f56ac7722be0d5be2e3a02ad3cc020ae0f32e",
    ("fat:7", "1-t"):
        "efe9d750816312d54b3c898a3b2698592ef891f53da9038bec2b677e64dd7840",
    ("fat:8", "1-t"):
        "22311c16ff54fb06abdfb728a8e22a8c99d6da1c056c3ea8213c9e0dd3c64e4e",
    ("thin:2", "1-t"):
        "96a814fc5c9bc2ee70822b0f73c04bc2ea6356e685d86467d17f5a13f1d3cbe2",
    ("thin:2", "1-s"):
        "c08905969871d52450d991e83169be494df7c2a81c333613b34a776b38c765a4",
    ("thin:3", "1-t"):
        "94da7dd5a656f70dc7ec91e491f28fad93368e63e337d69e8208539515fba9e8",
    ("thin:3", "1-s"):
        "5cdf724758cbe1228effc71e407dba2f21784c803fbfc6176715e3875a16ba4f",
    ("thin:4", "1-t"):
        "192de13be4611a877baf438d8f7a65168adbed155c03f6fec55f0a0244e25b08",
    ("thin:4", "1-s"):
        "680b116dcebd78e045eb2508962c3f50e0b661192b14e7110a974bb950a2c94a",
    ("thin:5", "1-t"):
        "73000cb923c528b29f4ea48b0aaf40e18db350fd5290be23403fab71ca1b87e9",
    ("thin:5", "1-s"):
        "d143b677625781230a27e07764baec82b0859f746df430990384a63ceb599d6b",
    ("bidisc", "1-t"):
        "2f84f94d7bcac5c4bc58c2131ecc691322c3b78880b09966fbb710490cdd346c",
    ("punctured-bidisc", "1-t"):
        "2f84f94d7bcac5c4bc58c2131ecc691322c3b78880b09966fbb710490cdd346c",
}


@pytest.mark.parametrize("key", list(GOLDEN_ARRAY), ids=str)
def test_array_num_den_golden(key):
    text, variant = key
    spec = DomainSpec.parse(text)
    z1, z2 = sample_uniform_arrays(spec, 2 * _GOLDEN_PAIRS, seed=19)
    s, t = pair_invariants(z1[:_GOLDEN_PAIRS], z2[:_GOLDEN_PAIRS],
                           z1[_GOLDEN_PAIRS:], z2[_GOLDEN_PAIRS:])
    num, den = kernel_num_den(spec, s, t, variant)
    digest = hashlib.sha256(num.tobytes() + den.tobytes()).hexdigest()
    assert digest == GOLDEN_ARRAY[key]


# The same on one (points, samples) block as the reproducing integrator
# evaluates: 24 points by 4096 samples, past numpy's 256 KiB threshold for
# reusing temporaries in place.  Recorded before the kernel forms were factored.
GOLDEN_BLOCK = {
    ("fat:1", "1-t"):
        "d3ccab36defc2e9eb83747fe65a4f289db184a18704750a3947cedded6840b30",
    ("fat:2", "1-t"):
        "45645f79cd0a52b35bba979a337e235b81cd091f1bbc31718987139e5d83148c",
    ("fat:3", "1-t"):
        "dc580fced5b5a1d966b01709a2e370688bd4a41b4d6ccd0c8511848bc11ae275",
    ("fat:8", "1-t"):
        "a4f71f91cb52eadf48bde3acb60910bc6b71166b629aceef916327a64d90cf0d",
    ("thin:3", "1-t"):
        "3a5d5dcf06731939b2c41f15cb94974b1aebaf8a3ec4b771da6d6fbe4a8af3af",
    ("thin:3", "1-s"):
        "61d5ace81a0376b75c10638d9d0c63f8b2c3035ac17df45963dc861d3f73c084",
    ("thin:4", "1-t"):
        "1c98d508e14d8076d6669f84b994a01a10f0344e9e940320e06d64d5c36c8ea0",
    ("bidisc", "1-t"):
        "cf9f6d7ef4d7aba58d3d1504a4c72e7759cd0fbb91cbdcf85fbad989dba49a1c",
}


@pytest.mark.parametrize("key", list(GOLDEN_BLOCK), ids=str)
def test_block_num_den_golden(key):
    text, variant = key
    spec = DomainSpec.parse(text)
    z1, z2 = sample_uniform_arrays(spec, 24 + 4096, seed=23)
    s = z1[:24, None] * np.conj(z1[24:])
    t = z2[:24, None] * np.conj(z2[24:])
    num, den = kernel_num_den(spec, s, t, variant)
    assert hashlib.sha256(num.tobytes() + den.tobytes()).hexdigest() == GOLDEN_BLOCK[key]


# sha256 of the stdout of `eval --spec SPEC --thin-variant V` at one
# off-axis pair with nonzero imaginary parts.
_EVAL_POINTS = ["--z", "0.05,0.02", "0.6,-0.1", "--w", "0.04,-0.01", "0.5,0.2"]
GOLDEN_EVAL = {
    ("fat:4", "1-t"):
        "1c43d927fb61c9153fd65fb5a6cd3b166179088b9cafb97ee86b1961106e42f6",
    ("thin:3", "1-t"):
        "3fe001eb4049f059193c699160f986df4b752644b41d6b40daa12dbc23ffaecf",
    ("thin:3", "1-s"):
        "20545104388f3cc9075dea51c0ac618ef8f6de8810f242b721d62b7a6a321859",
    ("bidisc", "1-t"):
        "b1be9d44c1633a75a32f2a0e4715a969ccfbb53a0e1081879eb3a4fa1d4f3a77",
}


@pytest.mark.parametrize("key", list(GOLDEN_EVAL), ids=str)
def test_eval_report_golden(key, capsys):
    spec, variant = key
    code = cli.main(["eval", "--spec", spec, "--thin-variant", variant, *_EVAL_POINTS])
    out = capsys.readouterr().out
    assert code == 0
    assert _digest([out]) == GOLDEN_EVAL[key]


class TestNearSingular:
    def test_scalar_gives_a_python_bool(self):
        assert near_singular(1e-31 + 0j) is True
        assert near_singular(1e-29) is False

    def test_array_gives_a_mask(self):
        den = np.array([1e-31, 1e-30, 1.0 + 0j])
        assert near_singular(den).tolist() == [True, False, False]

    def test_threshold_is_read_at_each_call(self, monkeypatch):
        monkeypatch.setattr(kernels, "NEAR_SINGULAR_THRESHOLD", 0.25)
        assert near_singular(0.2) is True
        assert near_singular(np.array([0.2, 0.3])).tolist() == [True, False]
        z = Point2C(0.05, 0.3)
        kv = kernel(DomainSpec.fat(2), z, z)
        assert 1e-30 < abs(kv.denominator) < 0.25
        assert kv.near_singular is True
