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
from hartogs_bergman.kernels import (kernel_num_den, kernel_values, near_singular, pair_invariants,
                                     point_kernels)

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
        # And the scalar entry point agrees on a handful of them (its s and t
        # are pair_invariants', which round unlike the plain products on a
        # batch this large, amplified by the conditioning of t - s^k near the
        # boundary).
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
    "fat:1": "74ed170239c85970c527779223f2db51e4abb9baa47fa8f3a562be9d30083f34",
    "fat:2": "aae10e7fb7d565109ef62ddcce431f4b244372b7d13ddad7784a9884b7f3fa74",
    "fat:3": "9064c7a1f362553c1dbc21b483fcd5a1469bf33d81262fa088a34da638534857",
    "fat:4": "f2862a49d3dda8a28d76708f044b7ed5e2f4936f86579ded2c32c6affe7f4789",
    "fat:5": "23ca7ec5e98bfcf0b96da0c9fd8be942ad79f6139c8c944d440b961a8d5294c2",
    "fat:6": "b2b280c800073899f74da072ff37b065a036c927143326f696d0a0f799860540",
    "fat:7": "45e4038a001bab06674ae89780608ccabdff08fce7572e27006688459f7ef7b4",
    "fat:8": "1473f1d1fb09587a7a02bc324a8e870104853ecaeee4ff5567fda73aa1b5cf16",
    "thin:2": "338e22fcb90028abadae4db048e66484b634a67dc8168e3c13ead2c6352137e6",
    "thin:3": "79abd5b762ac7a8ac01fb0e9d74e03bd0307b4c674f831ec6be8a408332fd8dd",
    "thin:4": "371746902162bc141905e578f05949f6a1958706675bf982225c53db46093da7",
    "thin:5": "31f1e33c62b5ba46ef7654416cdecc6ebc194591440a75981f9ccb0be08d4589",
    "bidisc": "cb7c718d11a83deab64cb0bec149ef595db41e3301433f366cf5476a7da47e37",
    "punctured-bidisc": "cb7c718d11a83deab64cb0bec149ef595db41e3301433f366cf5476a7da47e37",
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
        "c904030893899416ab71bbafd5369b459f7bfe1048f25f791f86ab1c0e4a44b8",
    ("fat:2", "1-t"):
        "87d7372d20a651e2f6b02ddc3e9414a6984d32420178d66b9aea90ff75b6f7c5",
    ("fat:3", "1-t"):
        "2a77384f87f73608efcd8a3aa48dc6fac218783596474a3f25c735987d463d7a",
    ("fat:4", "1-t"):
        "91cb5bd887fedd6fef296d37c7a7bbfd0cd0a3d5fa621a43b5e3f5312d72a2b1",
    ("fat:5", "1-t"):
        "40f012e9deb77e984cda1913d4d9eef8c78771f4c7f9b608ac9b08dafc9b8690",
    ("fat:6", "1-t"):
        "08f37624cf2bd7fa7acdc936245ed41c431ca7bd47d333500ada12d0e508e415",
    ("fat:7", "1-t"):
        "95f1988c1051fef694886611b81aee1f87daca7303a393b6d569f566b2fb7bf4",
    ("fat:8", "1-t"):
        "ffa7b88da042a9349b901d85235f7c9a12dee191f347fb724b2b223be112e191",
    ("thin:2", "1-t"):
        "c6c71f4121cabbfaf6157057a7ee000482a7fd347c2659a2bb950ba8162dd9c8",
    ("thin:2", "1-s"):
        "11291b4d5007e6b4a8c65dde8fdc79696198982ed078680574632170c36f4d5f",
    ("thin:3", "1-t"):
        "5d6377bfbb245655a1a36e1660c0c63e0ee3539c7f491db50b7859740be331c5",
    ("thin:3", "1-s"):
        "3e0cb33484d26b47ec71a2032573279127b2af926d6003c392a7d6651f31bbbd",
    ("thin:4", "1-t"):
        "d8db3865b9957e97f26a65334273cf0f347928abb2223d1eca3bc5a4d294188e",
    ("thin:4", "1-s"):
        "e897fa89d69be946fef14adad74f4e6af90adeb7b455470a048981fafe21e532",
    ("thin:5", "1-t"):
        "ea90c2b34cacf58724137d304c02ff508f17a7df4fcaaa5f003f648bacd46534",
    ("thin:5", "1-s"):
        "0c8b85fb0ca8a60521fa56bed2859c11c9682eb79c75c92ebb2c21bd5e41ed3c",
    ("bidisc", "1-t"):
        "5c79239318d65f1573b84bcc329642079a35f147661de5debad059debffd2186",
    ("punctured-bidisc", "1-t"):
        "5c79239318d65f1573b84bcc329642079a35f147661de5debad059debffd2186",
}


def _golden_invariants(spec):
    z1, z2 = sample_uniform_arrays(spec, 2 * _GOLDEN_PAIRS, seed=19)
    return pair_invariants(z1[:_GOLDEN_PAIRS], z2[:_GOLDEN_PAIRS],
                           z1[_GOLDEN_PAIRS:], z2[_GOLDEN_PAIRS:])


@pytest.mark.parametrize("key", list(GOLDEN_ARRAY), ids=str)
def test_array_num_den_golden(key):
    text, variant = key
    spec = DomainSpec.parse(text)
    num, den = kernel_num_den(spec, *_golden_invariants(spec), variant)
    digest = hashlib.sha256(num.tobytes() + den.tobytes()).hexdigest()
    assert digest == GOLDEN_ARRAY[key]


class TestKernelValues:
    """kernel_values is num / den with the near-singular mask, NaN where den == 0."""

    @pytest.mark.parametrize("key", list(GOLDEN_ARRAY), ids=str)
    def test_quotient_of_the_pinned_arrays(self, key):
        text, variant = key
        spec = DomainSpec.parse(text)
        s, t = _golden_invariants(spec)
        num, den = kernel_num_den(spec, s, t, variant)
        values, flagged = kernel_values(spec, s, t, variant)
        assert values.tobytes() == (num / den).tobytes()
        assert flagged.tolist() == near_singular(den).tolist()

    def test_flag_follows_a_raised_threshold(self, monkeypatch):
        # Half the pinned fat:3 pairs flagged: the flagged quotients are still
        # num / den, and the mask is near_singular's.
        spec = DomainSpec.fat(3)
        s, t = _golden_invariants(spec)
        num, den = kernel_num_den(spec, s, t)
        monkeypatch.setattr(kernels, "NEAR_SINGULAR_THRESHOLD", float(np.median(np.abs(den))))
        values, flagged = kernel_values(spec, s, t)
        assert 0 < np.count_nonzero(flagged) < len(den)
        assert flagged.tolist() == near_singular(den).tolist()
        assert values.tobytes() == (num / den).tobytes()

    @pytest.mark.parametrize("text", ["fat:2", "classical", "thin:3", "bidisc"])
    def test_nan_exactly_where_the_denominator_is_zero(self, text):
        # t = 1 zeroes the factor 1 - t of every default kernel.
        spec = DomainSpec.parse(text)
        s = np.array([0.1, 0.2 + 0.1j, -0.3, 0.1j])
        t = np.array([1.0, 0.5j, 1.0 + 0.0j, 0.6])
        num, den = kernel_num_den(spec, s, t)
        values, flagged = kernel_values(spec, s, t)
        zero = den == 0
        assert zero.tolist() == [True, False, True, False]
        assert np.isnan(values).tolist() == zero.tolist()
        assert flagged.tolist() == zero.tolist()
        assert values[~zero].tobytes() == (num[~zero] / den[~zero]).tobytes()


def test_pair_invariants_match_their_one_pair_slices():
    # 20,000 pairs pass numpy's 16,384-element threshold for reusing a bare
    # temporary as the result, which swaps a complex product's operands and
    # so its rounding; a pair's (s, t) must not depend on its batch.
    n = 20_000
    z1, z2 = sample_uniform_arrays(DomainSpec.fat(3), 2 * n, seed=23)
    zw = (z1[:n], z2[:n], z1[n:], z2[n:])
    whole = np.stack(pair_invariants(*zw))
    ones = np.hstack([np.stack(pair_invariants(*(a[i:i + 1] for a in zw))) for i in range(n)])
    assert whole.tobytes() == ones.tobytes()


# Every kind of domain.
EXPANDED = ([DomainSpec.fat(k) for k in (1, 2, 3, 5, 8)] + [DomainSpec.thin(k) for k in (2, 3, 5)]
            + [DomainSpec.classical(), DomainSpec.bidisc(), DomainSpec.punctured_bidisc()])


class TestPointKernels:
    """point_kernels expands kernel_factors into point rows times a table of sample powers."""

    @pytest.mark.parametrize("spec", EXPANDED, ids=str)
    def test_expansion_equals_the_factors(self, spec):
        # At the point z = (s, t), the samples' powers at w = (1, 1) are all 1,
        # so the row sums are num(s, t) and q(s, t) = top curve.
        rng = np.random.default_rng(61)
        s, t = (rng.uniform(0, 1, (2, 200)) ** 0.5 * np.exp(2j * np.pi * rng.random((2, 200))))
        pk = point_kernels(spec, s, t)
        num, const, top, curve = kernels.kernel_factors(spec, s, t)
        assert pk.const == const
        # Both sides round relative to the sum of the terms' moduli.
        for rows, want in ((pk.num_rows, num), (pk.q_rows, top * curve)):
            assert np.all(np.abs(rows.sum(axis=1) - want) <= 1e-14 * np.abs(rows).sum(axis=1))

    @pytest.mark.parametrize("spec", EXPANDED, ids=str)
    def test_values_match_kernel_values(self, spec):
        # 8 points by 2·10^4 samples against the factored quotient on the same pairs.
        z1, z2 = sample_uniform_arrays(spec, 8, seed=62)
        w1, w2 = sample_uniform_arrays(spec, 20_000, seed=63)
        pk = point_kernels(spec, z1, z2)
        values, flagged = pk.values(pk.powers(w1, w2), slice(0, 8))
        want, want_flagged = kernel_values(spec, *pair_invariants(z1[:, None], z2[:, None], w1, w2))
        assert values.shape == want.shape
        assert np.all(np.abs(values - want) <= 1e-12 * np.abs(want))
        assert flagged.tolist() == want_flagged.tolist()

    @pytest.mark.parametrize("text", ["fat:2", "classical", "thin:3", "bidisc"])
    def test_nan_and_flag_exactly_where_the_denominator_is_zero(self, text):
        # t = 1 zeroes the factor 1 - t of every default kernel; the dyadic
        # points and samples keep every product and sum exact, so den is 0.
        spec = DomainSpec.parse(text)
        z1 = np.array([0.5, 0.25 + 0.5j, -0.5, 0.25j])
        z2 = np.array([1.0, 0.5j, 1.0, 0.75])
        w1, w2 = np.array([1.0, 0.5j]), np.array([1.0, 0.5])
        pk = point_kernels(spec, z1, z2)
        values, flagged = pk.values(pk.powers(w1, w2), slice(0, 4))
        zero = np.zeros((4, 2), dtype=bool)
        zero[[0, 2], 0] = True
        assert flagged.tolist() == zero.tolist()
        assert np.isnan(values).tolist() == zero.tolist()
        want, _ = kernel_values(spec, *pair_invariants(z1[:, None], z2[:, None], w1, w2))
        assert np.all(np.abs(values[~zero] - want[~zero]) <= 1e-13 * np.abs(want[~zero]))

    @pytest.mark.parametrize("terms", [4, 13, 29])
    @pytest.mark.parametrize("samples", [4096, 2049, 1441])
    def test_column_slices_give_the_whole_product(self, terms, samples):
        # Products are sliced below OpenBLAS's threading size; no slice is one
        # column wide, so every bit is the whole product's.
        rng = np.random.default_rng(terms * samples)
        a = rng.standard_normal((4, terms)) + 1j * rng.standard_normal((4, terms))
        b = rng.standard_normal((terms, samples)) + 1j * rng.standard_normal((terms, samples))
        assert kernels._product(a, b).tobytes() == (a @ b).tobytes()

    def test_a_row_does_not_depend_on_the_others(self):
        # Any product of two or more rows gives each row the same bits.
        spec = DomainSpec.fat(3)
        z1, z2 = sample_uniform_arrays(spec, 6, seed=64)
        w1, w2 = sample_uniform_arrays(spec, 4096, seed=65)
        pk = point_kernels(spec, z1, z2)
        powers = pk.powers(w1, w2)
        whole, _ = pk.values(powers, slice(0, 6))
        for rows in (slice(0, 2), slice(2, 6), slice(3, 5)):
            part, _ = pk.values(powers, rows)
            assert part.tobytes() == whole[rows].tobytes()


def _one_pair_entry_points(spec, variant):
    # Every entry point that evaluates spec's kernel with variant at one pair.
    yield lambda z, w: kernel(spec, z, w, thin_variant=variant)
    if spec.kind is DomainKind.THIN:
        yield lambda z, w: bergman_thin(spec.k, z, w, variant=variant)
    if spec.kind in (DomainKind.FAT, DomainKind.CLASSICAL):
        yield lambda z, w: bergman_fat(spec.k or 1, z, w)
    if spec.kind is not DomainKind.FAT and spec.kind is not DomainKind.THIN:
        yield lambda z, w: bergman_reference(spec, z, w)


# Every one-pair entry point is a one-element view of the array path: its
# value, numerator, denominator and flag are the pair's row of kernel_num_den
# and kernel_values, bit for bit, and diagonal is the real part of the row at (z, z).
@pytest.mark.parametrize("text,variant",
                         [(t, v) for t in GOLDEN_SCALAR if t != "corner"
                          for v in (("1-t", "1-s") if t.startswith("thin") else ("1-t",))])
def test_scalar_kernel_agrees_with_the_array_path(text, variant):
    n = 1000
    spec = DomainSpec.parse(text)
    z1, z2 = sample_uniform_arrays(spec, 2 * n, seed=29)
    s, t = pair_invariants(z1[:n], z2[:n], z1[n:], z2[n:])
    num, den = kernel_num_den(spec, s, t, variant)
    values, flagged = kernel_values(spec, s, t, variant)
    pairs = [(Point2C(z1[i], z2[i]), Point2C(z1[n + i], z2[n + i])) for i in range(n)]
    for entry in _one_pair_entry_points(spec, variant):
        got = [entry(z, w) for z, w in pairs]
        assert np.array([kv.value for kv in got]).tobytes() == values.tobytes()
        assert np.array([kv.numerator for kv in got]).tobytes() == num.tobytes()
        assert np.array([kv.denominator for kv in got]).tobytes() == den.tobytes()
        assert [kv.near_singular for kv in got] == flagged.tolist()
    if variant == "1-t":
        on_diagonal, _ = kernel_values(spec, *pair_invariants(z1[:n], z2[:n], z1[:n], z2[:n]))
        assert [diagonal(spec, z) for z, _ in pairs] == on_diagonal.real.tolist()


# The same on one 2-D (points, samples) block of 24 points by 4096 samples,
# past numpy's 256 KiB threshold for reusing temporaries in place.  The
# reproducing integrator evaluates its blocks with point_kernels instead; this
# pins kernel_num_den on large 2-D arrays.  Recorded before the kernel forms
# were factored.
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


@pytest.mark.parametrize("text,variant", [("classical", "1-t"), ("fat:3", "1-t"), ("thin:3", "1-t"),
                                          ("thin:3", "1-s"), ("bidisc", "1-t")])
def test_num_den_takes_a_real_array_with_a_complex_one(text, variant):
    # A real factor times a complex one: the values are those of the same pairs
    # with both arrays complex.
    spec = DomainSpec.parse(text)
    real, cplx = np.array([0.1, -0.2, 0.05]), np.array([0.3 + 0.1j, 0.4j, -0.5 + 0.2j])
    for s, t in ((real, cplx), (cplx * 0.1, real + 0.5)):
        num, den = kernel_num_den(spec, s, t, variant)
        want_num, want_den = kernel_num_den(spec, s + 0j, t + 0j, variant)
        assert np.array_equal(num, want_num) and np.array_equal(den, want_den)


# sha256 of the stdout of `eval --spec SPEC --thin-variant V` at one
# off-axis pair with nonzero imaginary parts.
_EVAL_POINTS = ["--z", "0.05,0.02", "0.6,-0.1", "--w", "0.04,-0.01", "0.5,0.2"]
GOLDEN_EVAL = {
    ("fat:4", "1-t"):
        "d89c155e07ab07db671491db0d25e347f63781f52de8dea73b89d9fbd345b0b4",
    ("thin:3", "1-t"):
        "71e072796fd0e7d77ccb5ad18b3f96b94b4c3988bf998ccd31b1aaebdbe26369",
    ("thin:3", "1-s"):
        "624c9119cdc24e246e5d6803b2bf649b8b427a4e3480b32777f8a39f78b607b7",
    ("bidisc", "1-t"):
        "3747dd74041fc8ea077d667bf10be7c9d9dcac141f7616c5fa577c71fa421edc",
}


@pytest.mark.parametrize("key", list(GOLDEN_EVAL), ids=str)
def test_eval_report_golden(key, capsys):
    spec, variant = key
    code = cli.main(["eval", "--spec", spec, "--thin-variant", variant, *_EVAL_POINTS])
    out = capsys.readouterr().out
    assert code == 0
    assert _digest([out]) == GOLDEN_EVAL[key]


class TestNearSingular:
    def test_array_gives_a_mask(self):
        den = np.array([1e-31, 1e-30, 1.0 + 0j])
        assert near_singular(den).tolist() == [True, False, False]

    def test_threshold_is_read_at_each_call(self, monkeypatch):
        monkeypatch.setattr(kernels, "NEAR_SINGULAR_THRESHOLD", 0.25)
        assert near_singular(np.array([0.2, 0.3])).tolist() == [True, False]
        spec, z = DomainSpec.fat(2), Point2C(0.05, 0.3)
        s, t = pair_invariants(*np.array([[z.z1], [z.z2], [z.z1], [z.z2]]))
        _, den = kernel_num_den(spec, s, t)
        assert 1e-30 < abs(den[0]) < 0.25
        assert kernel_values(spec, s, t)[1].tolist() == [True]
        kv = kernel(spec, z, z)
        assert kv.near_singular is True
        assert kv.value == kernel_values(spec, s, t)[0][0]
