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

``kernel_num_den`` is the only place these forms are written, for scalars
and arrays alike.  ``kernel`` is the one scalar entry point over it, and
``bergman_fat``, ``bergman_thin`` and ``bergman_reference`` wrap ``kernel``.
Since fat(1) and thin(1) are the classical triangle, every gamma = 1 entry
point returns the classical kernel, whichever thin variant is asked for.

Numerator and denominator are returned separately: the numerator's zeros
are what the Lu Qi-Keng analysis scans for, and a flag on the denominator
(``near_singular``, the one such test, which the reproducing integrator
shares) replaces silent infinities near t = s^k or t = 1.
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
    "kernel_num_den",
    "fat_numerator",
]

PI_SQ = math.pi**2

# |denominator| below this flags the evaluation instead of trusting the quotient.
NEAR_SINGULAR_THRESHOLD = 1e-30


def near_singular(den):
    """The one near-singular test, |den| < NEAR_SINGULAR_THRESHOLD (read at
    each call): a bool for a scalar denominator, a boolean mask for an array."""
    if isinstance(den, np.ndarray):
        return np.abs(den) < NEAR_SINGULAR_THRESHOLD
    return bool(abs(den) < NEAR_SINGULAR_THRESHOLD)


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
    """(s, t) on arrays of pairs, rounded as ``kernel``'s Python complex products
    round them (numpy's complex multiply can differ in the last bit)."""
    parts = [(a.real * b.real + a.imag * b.imag, a.imag * b.real - a.real * b.imag)
             for a, b in ((z1, w1), (z2, w2))]
    return tuple(np.stack(p, axis=-1).view(np.complex128)[..., 0] for p in parts)


@dataclass(frozen=True)
class KernelValue:
    value: complex
    numerator: complex
    denominator: complex
    near_singular: bool


def _fat_numerator(k: int, s, t, sk):
    # sk is s**k, which the fat denominator needs too.  quad_coeff(1) is zero,
    # so the classical numerator is lin_coeff(1)(s) t.
    if k == 1:
        return lin_coeff(1)(s) * t
    c2v = quad_coeff(k)(s)
    return (c2v * t + lin_coeff(k)(s)) * t + sk * c2v


def fat_numerator(k: int, s, t):
    """Numerator quad(s) t^2 + lin(s) t + s^k quad(s); accepts arrays."""
    return _fat_numerator(k, s, t, s**k)


def kernel_num_den(spec: DomainSpec, s, t, thin_variant: ThinVariant = THIN_VARIANT_DEFAULT):
    """(numerator, denominator) of the domain's kernel; scalar or array args.

    The only place the closed forms are written; ``kernel`` evaluates them
    here too.  s^k and t^k are taken by binary powering (``ipow``): on
    complex Python scalars these are the products of Python's ``**`` for
    k <= 100, and on arrays they are faster than numpy's power.
    """
    if thin_variant not in ("1-t", "1-s"):
        raise ValueError(f"unknown thin variant {thin_variant!r}")
    if spec.kind in (DomainKind.FAT, DomainKind.CLASSICAL):
        k = spec.k if spec.kind is DomainKind.FAT else 1
        sk = ipow(s, k)
        num = _fat_numerator(k, s, t, sk)
        den = (k * PI_SQ) * (1.0 - t) ** 2 * (t - sk) ** 2
        return num, den
    if spec.kind is DomainKind.THIN:
        k = spec.k
        tk = ipow(t, k)
        mid = (1.0 - t) if thin_variant == "1-t" else (1.0 - s)
        return tk, PI_SQ * mid**2 * (tk - s) ** 2
    # Bidisc and punctured bidisc share one kernel.
    one = 1.0 + 0.0 * t
    return one, PI_SQ * (1.0 - s) ** 2 * (1.0 - t) ** 2


def kernel(
    spec: DomainSpec,
    z: Point2C,
    w: Point2C,
    *,
    thin_variant: ThinVariant = THIN_VARIANT_DEFAULT,
    check: bool = True,
) -> KernelValue:
    """The domain's kernel at one pair; every scalar entry point lands here."""
    if check:
        require_inside(spec, z, name="z")
        require_inside(spec, w, name="w")
    s = z.z1 * w.z1.conjugate()
    t = z.z2 * w.z2.conjugate()
    num, den = kernel_num_den(spec, s, t, thin_variant)
    value = num / den if den != 0 else complex("nan")
    return KernelValue(value, num, den, near_singular(den))


def bergman_fat(k: int, z: Point2C, w: Point2C, *, check: bool = True) -> KernelValue:
    """Kernel of the fat triangle of exponent k (k = 1 gives the classical one)."""
    return kernel(DomainSpec.fat(k), z, w, check=check)


def bergman_thin(
    k: int,
    z: Point2C,
    w: Point2C,
    *,
    variant: ThinVariant = THIN_VARIANT_DEFAULT,
    check: bool = True,
) -> KernelValue:
    """Kernel of the thin triangle of exponent 1/k (k = 1: classical)."""
    return kernel(DomainSpec.thin(k), z, w, thin_variant=variant, check=check)


def bergman_reference(spec: DomainSpec, z: Point2C, w: Point2C, *, check: bool = True) -> KernelValue:
    """Kernel of a reference domain: bidisc, punctured bidisc, or classical."""
    if spec.kind not in (DomainKind.CLASSICAL, DomainKind.BIDISC, DomainKind.PUNCTURED_BIDISC):
        raise ValueError(f"bergman_reference does not handle {spec}")
    return kernel(spec, z, w, check=check)


def diagonal(spec: DomainSpec, z: Point2C) -> float:
    """B(z, z), real and strictly positive on the diagonal."""
    kv = kernel(spec, z, z)
    v = kv.value
    if not (abs(v.imag) <= 1e-12 * abs(v)):
        raise ArithmeticError(f"diagonal value {v} is not numerically real")
    if not v.real > 0.0:
        raise ArithmeticError(f"diagonal value {v.real} is not positive")
    return v.real
