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
scalar entry point over it, and ``bergman_fat``, ``bergman_thin`` and
``bergman_reference`` wrap ``kernel``.  Since fat(1) and thin(1) are the
classical triangle, every gamma = 1 entry point returns the classical
kernel, whichever thin variant is asked for.

Numerator and denominator are returned separately: the numerator's zeros
are what the Lu Qi-Keng analysis scans for, and a flag on the denominator
(``near_singular``, the one such test) replaces silent infinities near
t = s^k or t = 1.  ``kernel_values`` is the one array quotient with its
flag, which the reproducing integrator, the transformation rules and the
series comparison read; ``kernel`` is its scalar counterpart.
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
    "fat_quadratic",
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
    """(num, const * top^2 * curve^2) from ``kernel_factors``; scalar or array args."""
    num, const, top, curve = kernel_factors(spec, s, t, thin_variant)
    # The factors are this call's own: squared and multiplied in place, top becomes den.
    top **= 2
    curve **= 2
    top *= const
    if np.iscomplexobj(top) or not np.iscomplexobj(curve):
        top *= curve
    else:  # a real top array cannot hold the complex product (s and t of mixed dtypes)
        top = top * curve
    return num, top


def kernel_values(spec: DomainSpec, s, t, thin_variant: ThinVariant = THIN_VARIANT_DEFAULT):
    """(num / den, near_singular(den)) on arrays of (s, t), the quotient NaN where den == 0.

    Every den == 0 is flagged; only a call with a flagged pair pays for the
    den == 0 test, and its untrusted quotients raise no floating-point warning.
    """
    num, den = kernel_num_den(spec, s, t, thin_variant)
    flagged = near_singular(den)
    if not flagged.any():
        return num / den, flagged
    with np.errstate(all="ignore"):
        return np.where(den != 0, num / den, np.nan), flagged


def kernel(spec: DomainSpec, z: Point2C, w: Point2C, *,
           thin_variant: ThinVariant = THIN_VARIANT_DEFAULT) -> KernelValue:
    """The kernel at one pair, both points checked; every scalar entry point lands here."""
    require_inside(spec, z, name="z")
    require_inside(spec, w, name="w")
    s = z.z1 * w.z1.conjugate()
    t = z.z2 * w.z2.conjugate()
    num, den = kernel_num_den(spec, s, t, thin_variant)
    value = num / den if den != 0 else complex("nan")
    return KernelValue(value, num, den, near_singular(den))


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
    """B(z, z), real and strictly positive on the diagonal."""
    kv = kernel(spec, z, z)
    v = kv.value
    if not (abs(v.imag) <= 1e-12 * abs(v)):
        raise ArithmeticError(f"diagonal value {v} is not numerically real")
    if not v.real > 0.0:
        raise ArithmeticError(f"diagonal value {v.real} is not positive")
    return v.real
