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

Numerator and denominator are returned separately: the numerator's zeros
are what the Lu Qi-Keng analysis scans for, and a near-singular flag on
the denominator replaces silent infinities near t = s^k or t = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

from .domain import DomainError, DomainKind, DomainSpec, Point2C, contains
from .polynomials import lin_coeff, quad_coeff

__all__ = [
    "PI_SQ",
    "NEAR_SINGULAR_THRESHOLD",
    "ThinVariant",
    "THIN_VARIANT_DEFAULT",
    "THIN_VARIANT_ALTERNATE",
    "SingularEvaluation",
    "KernelArgs",
    "KernelValue",
    "bergman_fat",
    "bergman_thin",
    "bergman_reference",
    "kernel",
    "diagonal",
    "kernel_num_den",
    "fat_numerator",
]

PI_SQ = math.pi**2

# |denominator| below this flags the evaluation instead of trusting the quotient.
NEAR_SINGULAR_THRESHOLD = 1e-30

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


@dataclass(frozen=True)
class KernelValue:
    value: complex
    numerator: complex
    denominator: complex
    near_singular: bool


@lru_cache(maxsize=None)
def _fat_float_coeffs(k: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    # Exactness of the double conversion is checked inside float_coeffs.
    return quad_coeff(k).float_coeffs(), lin_coeff(k).float_coeffs()


def _horner(coeffs: tuple[float, ...], x):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _fat_numerator(k: int, s, t, sk):
    # sk is s**k, which the fat denominator needs too.
    c2f, c1f = _fat_float_coeffs(k)
    c2v = _horner(c2f, s)
    c1v = _horner(c1f, s)
    return (c2v * t + c1v) * t + sk * c2v


def fat_numerator(k: int, s, t):
    """Numerator quad(s) t^2 + lin(s) t + s^k quad(s); accepts arrays."""
    return _fat_numerator(k, s, t, s**k)


def kernel_num_den(spec: DomainSpec, s, t, thin_variant: ThinVariant = THIN_VARIANT_DEFAULT):
    """(numerator, denominator) of the domain's kernel; scalar or array args."""
    if spec.kind in (DomainKind.FAT, DomainKind.CLASSICAL):
        k = spec.k if spec.kind is DomainKind.FAT else 1
        sk = s**k
        num = _fat_numerator(k, s, t, sk)
        den = (k * PI_SQ) * (1.0 - t) ** 2 * (t - sk) ** 2
        return num, den
    if spec.kind is DomainKind.THIN:
        k = spec.k
        tk = t**k
        mid = (1.0 - t) if thin_variant == "1-t" else (1.0 - s)
        return tk, PI_SQ * mid**2 * (tk - s) ** 2
    # Bidisc and punctured bidisc share one kernel.
    one = 1.0 + 0.0 * t
    return one, PI_SQ * (1.0 - s) ** 2 * (1.0 - t) ** 2


def _make_value(num: complex, den: complex) -> KernelValue:
    near = abs(den) < NEAR_SINGULAR_THRESHOLD
    value = num / den if den != 0 else complex("nan")
    return KernelValue(value, num, den, near)


def _check_pair(spec: DomainSpec, z: Point2C, w: Point2C) -> None:
    for label, q in (("z", z), ("w", w)):
        if not contains(spec, q):
            raise DomainError(f"{label} = ({q.z1}, {q.z2}) is not inside {spec}")


def bergman_fat(k: int, z: Point2C, w: Point2C, *, check: bool = True) -> KernelValue:
    """Kernel of the fat triangle of exponent k (k = 1 gives the classical one)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if check:
        _check_pair(DomainSpec.fat(k), z, w)
    args = KernelArgs.from_points(z, w)
    c2f, c1f = _fat_float_coeffs(k)
    s, t = args.s, args.t
    c2v = _horner(c2f, s)
    c1v = _horner(c1f, s)
    num = (c2v * t + c1v) * t + s**k * c2v
    den = (k * PI_SQ) * (1.0 - t) ** 2 * (t - s**k) ** 2
    return _make_value(num, den)


def bergman_thin(
    k: int,
    z: Point2C,
    w: Point2C,
    *,
    variant: ThinVariant = THIN_VARIANT_DEFAULT,
    check: bool = True,
) -> KernelValue:
    """Kernel of the thin triangle of exponent 1/k (k = 1: classical)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if variant not in ("1-t", "1-s"):
        raise ValueError(f"unknown thin variant {variant!r}")
    if check:
        _check_pair(DomainSpec.thin(k), z, w)
    args = KernelArgs.from_points(z, w)
    s, t = args.s, args.t
    tk = t**k
    mid = (1.0 - t) if variant == "1-t" else (1.0 - s)
    num = tk
    den = PI_SQ * mid**2 * (tk - s) ** 2
    return _make_value(num, den)


def bergman_reference(spec: DomainSpec, z: Point2C, w: Point2C, *, check: bool = True) -> KernelValue:
    """Kernel of a reference domain: bidisc, punctured bidisc, or classical."""
    if spec.kind is DomainKind.CLASSICAL:
        if check:
            _check_pair(spec, z, w)
        return bergman_fat(1, z, w, check=False)
    if spec.kind not in (DomainKind.BIDISC, DomainKind.PUNCTURED_BIDISC):
        raise ValueError(f"bergman_reference does not handle {spec}")
    if check:
        _check_pair(spec, z, w)
    args = KernelArgs.from_points(z, w)
    num = complex(1.0)
    den = PI_SQ * (1.0 - args.s) ** 2 * (1.0 - args.t) ** 2
    return _make_value(num, den)


def kernel(
    spec: DomainSpec,
    z: Point2C,
    w: Point2C,
    *,
    thin_variant: ThinVariant = THIN_VARIANT_DEFAULT,
    check: bool = True,
) -> KernelValue:
    """Dispatch to the closed form matching the domain spec."""
    if spec.kind is DomainKind.FAT:
        return bergman_fat(spec.k, z, w, check=check)
    if spec.kind is DomainKind.THIN:
        return bergman_thin(spec.k, z, w, variant=thin_variant, check=check)
    return bergman_reference(spec, z, w, check=check)


def diagonal(spec: DomainSpec, z: Point2C) -> float:
    """B(z, z), real and strictly positive on the diagonal."""
    kv = kernel(spec, z, z)
    v = kv.value
    if not (abs(v.imag) <= 1e-12 * abs(v)):
        raise ArithmeticError(f"diagonal value {v} is not numerically real")
    if not v.real > 0.0:
        raise ArithmeticError(f"diagonal value {v.real} is not positive")
    return v.real
