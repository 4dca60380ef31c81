"""Closed-form Bergman kernels of the Hartogs triangles and bidiscs.

All kernels are rational in the pair invariants s = z1 * conj(w1) and
t = z2 * conj(w2):

    bidisc / punctured bidisc:  1 / (pi^2 (1-s)^2 (1-t)^2)
    classical triangle:         t / (pi^2 (1-t)^2 (t-s)^2)
    fat, exponent k:            (quad(s) t^2 + lin(s) t + s^k quad(s))
                                    / (k pi^2 (1-t)^2 (t-s^k)^2)
    thin, exponent 1/k:         t^k / (pi^2 (1-t)^2 (t^k-s)^2)

For the thin triangle there are two candidate middle denominator factors
in circulation, (1-t)^2 and (1-s)^2.  They are both implemented behind
``ThinVariant``; the default "1-t" is the variant confirmed independently
by the orthonormal-series oracle and by pulling the bidisc kernel back
through the shear biholomorphism (see the oracle and transforms modules,
and the resolution acceptance test).  The "1-s" form is retained solely so
the resolution test can demonstrate its failure.

``kernel_factors`` is the only place these forms are written, for scalars
and arrays alike; ``fat_quadratic`` gives the fat numerator's coefficients
in t.  ``kernel_num_den`` multiplies the factors out, ``kernel`` is the one
scalar entry point over it, and ``bergman_fat``, ``bergman_thin``,
``bergman_reference`` and ``diagonal`` wrap ``kernel``.  Since fat(1) and
thin(1) are the classical triangle, every gamma = 1 entry point returns
the classical kernel, whichever thin variant is asked for.

Numerator and denominator are returned separately: the numerator's zeros
are what the Lu Qi-Keng analysis scans for, and a flag on the denominator
(``near_singular``, the one such test) replaces silent infinities near
t = s^k or t = 1.  Every entry point takes the quotient and its flag from
``_quotient``.  ``kernel_values`` takes arrays of pairs (s, t) through the
factored form; the transformation rules and the series comparison read
it.  ``point_kernels`` runs ``kernel_factors`` on polynomials in (s, t)
and evaluates the expanded terms at fixed points against blocks of
samples as two matrix products; the reproducing integrator reads it.
``kernel`` is a one-element view of ``kernel_values``: it evaluates the
pair as one-element arrays, and its value, numerator, denominator and flag
are the pair's row of a batch, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .domain import DomainKind, DomainSpec, Point2C, ipow, require_inside
from .polynomials import lin_coeff, quad_coeff

__all__ = [
    "PI_SQ",
    "NEAR_SINGULAR_THRESHOLD",
    "near_singular",
    "ThinVariant",
    "THIN_VARIANT_DEFAULT",
    "THIN_VARIANT_ALTERNATE",
    "SingularEvaluation",
    "KernelArgs",
    "pair_invariants",
    "KernelValue",
    "bergman_fat",
    "bergman_thin",
    "bergman_reference",
    "kernel",
    "diagonal",
    "kernel_factors",
    "kernel_num_den",
    "kernel_values",
    "PointKernels",
    "point_kernels",
    "fat_quadratic",
]

PI_SQ = math.pi**2

# |denominator| below this flags the evaluation instead of trusting the quotient.
NEAR_SINGULAR_THRESHOLD = 1e-30


def near_singular(den):
    """The one near-singular test, |den| < NEAR_SINGULAR_THRESHOLD (read at
    each call), as a boolean mask over an array of denominators."""
    return np.abs(den) < NEAR_SINGULAR_THRESHOLD


ThinVariant = Literal["1-t", "1-s"]
THIN_VARIANT_DEFAULT: ThinVariant = "1-t"
THIN_VARIANT_ALTERNATE: ThinVariant = "1-s"


class SingularEvaluation(ArithmeticError):
    """A kernel evaluation needed by an identity check was near-singular."""


@dataclass(frozen=True)
class KernelArgs:
    """The reduced kernel variables s = z1*conj(w1), t = z2*conj(w2)."""

    s: complex
    t: complex

    @staticmethod
    def from_points(z: Point2C, w: Point2C) -> "KernelArgs":
        return KernelArgs(z.z1 * w.z1.conjugate(), z.z2 * w.z2.conjugate())


def pair_invariants(z1, z2, w1, w2):
    """(s, t) = (z1 conj(w1), z2 conj(w2)) on arrays of pairs."""
    # Bound first: numpy may reuse a bare conj temporary for the product with
    # the operands swapped, and a large call would round unlike its slices.
    c1, c2 = np.conj(w1), np.conj(w2)
    return z1 * c1, z2 * c2


@dataclass(frozen=True)
class KernelValue:
    value: complex
    numerator: complex
    denominator: complex
    near_singular: bool


def _fat_quadratic(k: int, s, sk):
    a = quad_coeff(k)(s)
    return a, lin_coeff(k)(s), sk * a


def fat_quadratic(k: int, s):
    """(quad(s), lin(s), s^k quad(s)): the fat numerator's coefficients in t,
    so the numerator is (a t + b) t + c.  Accepts arrays."""
    return _fat_quadratic(k, s, ipow(s, k))


def _fat_numerator(k: int, s, t, sk):
    # quad_coeff(1) is zero: the classical numerator is lin_coeff(1)(s) t.
    if k == 1:
        return lin_coeff(1)(s) * t
    a, b, c = _fat_quadratic(k, s, sk)
    return (a * t + b) * t + c


def kernel_factors(spec: DomainSpec, s, t, thin_variant: ThinVariant = THIN_VARIANT_DEFAULT):
    """(num, const, top, curve) with kernel = num / (const top^2 curve^2).

    The only place the closed forms are written, for scalars and arrays
    alike.  top is 1 - t (1 - s for the thin "1-s" variant and the bidiscs),
    curve is t - s^k (thin: t^k - s; bidiscs: 1 - t).  s^k and t^k are taken
    by ``ipow``.
    """
    if thin_variant not in ("1-t", "1-s"):
        raise ValueError(f"unknown thin variant {thin_variant!r}")
    if spec.kind in (DomainKind.FAT, DomainKind.CLASSICAL):
        k = spec.k if spec.kind is DomainKind.FAT else 1
        sk = ipow(s, k)
        return _fat_numerator(k, s, t, sk), k * PI_SQ, 1.0 - t, t - sk
    if spec.kind is DomainKind.THIN:
        tk = ipow(t, spec.k)
        return tk, PI_SQ, (1.0 - t) if thin_variant == "1-t" else (1.0 - s), tk - s
    # Bidisc and punctured bidisc share one kernel.
    return 1.0 + 0.0 * t, PI_SQ, 1.0 - s, 1.0 - t


def kernel_num_den(spec: DomainSpec, s, t, thin_variant: ThinVariant = THIN_VARIANT_DEFAULT):
    """(num, top^2 const curve^2) from ``kernel_factors``; scalar or array args."""
    num, const, top, curve = kernel_factors(spec, s, t, thin_variant)
    return num, top**2 * const * curve**2


def _quotient(num, den, out=None):
    # Every den == 0 is flagged; only a call with a flagged element pays for
    # the den == 0 test, and its untrusted quotients raise no warning.
    flagged = near_singular(den)
    if not flagged.any():
        return np.divide(num, den, out=out), flagged
    with np.errstate(all="ignore"):
        return np.where(den != 0, num / den, np.nan), flagged


def kernel_values(spec: DomainSpec, s, t, thin_variant: ThinVariant = THIN_VARIANT_DEFAULT):
    """(num / den, near_singular(den)) on arrays of (s, t), the quotient NaN where den == 0."""
    return _quotient(*kernel_num_den(spec, s, t, thin_variant))


class _Expansion:
    """A polynomial in (s, t) as {(a, b): coefficient of s^a t^b}, with the
    arithmetic ``kernel_factors`` uses, so that run on s and t it writes out
    a kernel's terms.  Zero coefficients are dropped."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {m: c for m, c in terms.items() if c != 0}

    @staticmethod
    def of(x) -> "_Expansion":
        return x if isinstance(x, _Expansion) else _Expansion({(0, 0): x})

    def __add__(self, other):
        terms = dict(self.terms)
        for m, c in _Expansion.of(other).terms.items():
            terms[m] = terms.get(m, 0) + c
        return _Expansion(terms)

    __radd__ = __add__

    def __neg__(self):
        return _Expansion({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + -_Expansion.of(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        terms = {}
        for (a2, b2), c2 in _Expansion.of(other).terms.items():
            for (a, b), c in self.terms.items():
                terms[a + a2, b + b2] = terms.get((a + a2, b + b2), 0) + c * c2
        return _Expansion(terms)

    __rmul__ = __mul__


def _monomial(x, y, a: int, b: int):
    """x^a y^b by ``ipow``, for exponents >= 0."""
    if a and b:
        return ipow(x, a) * ipow(y, b)
    return ipow(x, a) if a else ipow(y, b) if b else 1.0


# OpenBLAS (0.3.31) runs a complex product of 2^16 or more multiply-adds on
# its thread pool when it has more than one thread, and the pool then spins
# between calls on the cores that the stream's helper thread needs: with the
# thread count left at its default of 2, the reproducing grid took twice as
# long.  Products are therefore taken in column slices below that size.  The
# slices are a power of two wide, at least 64 columns, with the last one
# taking the rest; none is one column wide, which numpy would hand to gemv.
# So they give the bits of the whole product.
_THREADED_PRODUCT = 2**16


def _product(a, b):
    """a @ b on complex arrays, in column slices of fewer than _THREADED_PRODUCT
    multiply-adds where 64 columns allow it; one term is a broadcast product,
    several times faster than gemm's."""
    n = b.shape[1]
    if b.shape[0] == 1:
        return a * b
    if a.size * n < _THREADED_PRODUCT:
        return a @ b
    width = 64
    while 2 * width * a.size < _THREADED_PRODUCT:
        width *= 2
    out = np.empty((a.shape[0], n), dtype=np.complex128)
    cuts = [*range(0, n - 1, width), n]
    for lo, hi in zip(cuts, cuts[1:]):
        np.matmul(a, b[:, lo:hi], out=out[:, lo:hi])
    return out


@dataclass(frozen=True, eq=False)
class PointKernels:
    """B(z_j, w) at fixed points z_j, on blocks of samples w, as two matrix products.

    ``kernel_factors`` run on polynomials in (s, t) writes the kernel as
    num / (const q^2), where num and q = top * curve are sums of terms
    c s^a t^b.  With s = z1 conj(w1) and t = z2 conj(w2), each term splits
    into c z1^a z2^b, a point's coefficient, times conj(w1)^a conj(w2)^b, a
    sample's power.  So num and q for points x samples are the point rows
    (``num_rows``, ``q_rows``) times the samples' table of powers.
    """

    exponents: tuple[tuple[int, int], ...]  # (a, b) of num's terms, then of q's
    num_rows: np.ndarray  # (points, num's terms)
    q_rows: np.ndarray  # (points, q's terms)
    const: float

    def powers(self, w1, w2) -> np.ndarray:
        """The table conj(w1)^a conj(w2)^b of samples w, one row per term of ``exponents``."""
        c1, c2 = np.conj(w1), np.conj(w2)
        p1 = {a: ipow(c1, a) for a in {a for a, _ in self.exponents if a}}
        p2 = {b: ipow(c2, b) for b in {b for _, b in self.exponents if b}}
        table = np.empty((len(self.exponents), len(c1)), dtype=np.complex128)
        for row, (a, b) in zip(table, self.exponents):
            if a and b:
                np.multiply(p1[a], p2[b], out=row)
            else:
                row[...] = p1[a] if a else p2[b] if b else 1.0
        return table

    def values(self, powers: np.ndarray, points) -> tuple[np.ndarray, np.ndarray]:
        """(B(z_j, w), near_singular(den)) for the points ``points`` selects (a
        slice) and the samples of ``powers``, as ``kernel_values`` returns them.

        A row's bits do not depend on the other rows of the product as long as
        there are at least two: numpy hands a one-row product to gemv, which
        rounds unlike gemm.
        """
        split = self.num_rows.shape[1]
        num = _product(self.num_rows[points], powers[:split])
        q = _product(self.q_rows[points], powers[split:])
        q *= q
        q *= self.const
        return _quotient(num, q, out=num)


def point_kernels(spec: DomainSpec, z1, z2) -> PointKernels:
    """The kernel at the points (z1[j], z2[j]), expanded from ``kernel_factors`` at this call.

    The points' coefficients are Python complex products, so a point's row
    does not depend on the other points.  Membership is the caller's to check.
    """
    s, t = _Expansion({(1, 0): 1.0}), _Expansion({(0, 1): 1.0})
    num, const, top, curve = kernel_factors(spec, s, t)
    num, q = _Expansion.of(num).terms, (_Expansion.of(top) * curve).terms
    points = [(complex(x), complex(y)) for x, y in zip(z1, z2)]

    def rows(terms):
        return np.array([[c * _monomial(x, y, a, b) for (a, b), c in terms.items()]
                         for x, y in points], dtype=np.complex128).reshape(len(points), len(terms))

    return PointKernels((*num, *q), rows(num), rows(q), const)


def kernel(spec: DomainSpec, z: Point2C, w: Point2C, *,
           thin_variant: ThinVariant = THIN_VARIANT_DEFAULT) -> KernelValue:
    """The kernel at one pair, both points checked, as the one-element row of
    ``kernel_values``; every scalar entry point lands here."""
    require_inside(spec, z, name="z")
    require_inside(spec, w, name="w")
    s, t = pair_invariants(*np.array([[z.z1], [z.z2], [w.z1], [w.z2]]))
    num, den = kernel_num_den(spec, s, t, thin_variant)
    value, flagged = _quotient(num, den)
    return KernelValue(complex(value[0]), complex(num[0]), complex(den[0]), bool(flagged[0]))


def bergman_fat(k: int, z: Point2C, w: Point2C) -> KernelValue:
    """Kernel of the fat triangle of exponent k (k = 1 gives the classical one)."""
    return kernel(DomainSpec.fat(k), z, w)


def bergman_thin(k: int, z: Point2C, w: Point2C, *,
                 variant: ThinVariant = THIN_VARIANT_DEFAULT) -> KernelValue:
    """Kernel of the thin triangle of exponent 1/k (k = 1: classical)."""
    return kernel(DomainSpec.thin(k), z, w, thin_variant=variant)


def bergman_reference(spec: DomainSpec, z: Point2C, w: Point2C) -> KernelValue:
    """Kernel of a reference domain: bidisc, punctured bidisc, or classical."""
    if spec.kind not in (DomainKind.CLASSICAL, DomainKind.BIDISC, DomainKind.PUNCTURED_BIDISC):
        raise ValueError(f"bergman_reference does not handle {spec}")
    return kernel(spec, z, w)


def diagonal(spec: DomainSpec, z: Point2C) -> float:
    """B(z, z): the real part of ``kernel`` at (z, z), which must be positive.

    The imaginary part is rounding: z1 conj(z1) keeps the rounding error of
    its cross products there, and the kernel's conditioning near the boundary
    amplifies it (past 1e-12 of |B| at up to 25 of 10^5 uniform points).
    """
    v = kernel(spec, z, z).value.real
    if not v > 0.0:
        raise ArithmeticError(f"diagonal value {v} is not positive")
    return v
