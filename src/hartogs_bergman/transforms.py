"""Proper maps between the triangles and the kernels' transformation laws.

Maps implemented, with holomorphic Jacobian determinants:

    power map      (z1, z2) -> (z1, z2^k)        det = k z2^(k-1)
    shear          (z1, z2) -> (z1/z2, z2)       det = 1/z2
    shear inverse  (z1, z2) -> (z1 z2, z2)       det = z2
    iterated shear (z1, z2) -> (z1 z2^-k, z2)    det = z2^-k
    its inverse    (z1, z2) -> (z1 z2^k, z2)     det = z2^k

The power map is a branched covering of order k from the classical
triangle onto the fat one; its k branch inverses pick the k-th root of w2
in rotated sectors, the base root having argument in [0, 2pi/k).  The
branch Jacobians are obtained by differentiating the branch map itself,
root_j / (k w2); the transformation identities below are the ground truth
that fixes this normalization.

``bell_residual`` checks the branched-covering transformation rule

    u(z) B_fat(phi(z), w) = sum_j B_classical(z, Phi_j(w)) conj(U_j(w)),

and ``biholo_residual`` checks the plain biholomorphic rule
B_src(z, w) = det F'(z) B_dst(F z, F w) conj(det F'(w)).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

from .domain import DomainError, DomainSpec, Point2C, require_inside
from .kernels import (
    THIN_VARIANT_DEFAULT,
    SingularEvaluation,
    ThinVariant,
    bergman_fat,
    kernel,
)

__all__ = [
    "MapKind",
    "ProperMap",
    "BranchInverse",
    "power_map",
    "shear",
    "shear_inv",
    "shear_iter",
    "shear_iter_inv",
    "apply",
    "branch_inverses",
    "bell_residual",
    "biholo_residual",
]


class MapKind(enum.Enum):
    POWER = "power"
    SHEAR = "shear"
    SHEAR_INV = "shear-inv"
    SHEAR_ITER = "shear-iter"
    SHEAR_ITER_INV = "shear-iter-inv"


_NEEDS_K = (MapKind.POWER, MapKind.SHEAR_ITER, MapKind.SHEAR_ITER_INV)


@dataclass(frozen=True)
class ProperMap:
    kind: MapKind
    k: int | None = None

    def __post_init__(self) -> None:
        if self.kind in _NEEDS_K:
            if self.k is None or self.k < 1:
                raise ValueError(f"{self.kind.value} needs a positive integer exponent")
        elif self.k is not None:
            raise ValueError(f"{self.kind.value} takes no exponent")

    @property
    def order(self) -> int:
        """Branched-cover order: k for the power map, 1 for the shears."""
        return self.k if self.kind is MapKind.POWER else 1

    @property
    def default_source(self) -> DomainSpec:
        return {
            MapKind.POWER: DomainSpec.classical(),
            MapKind.SHEAR: DomainSpec.classical(),
            MapKind.SHEAR_INV: DomainSpec.punctured_bidisc(),
            MapKind.SHEAR_ITER: DomainSpec.thin(self.k) if self.k else None,
            MapKind.SHEAR_ITER_INV: DomainSpec.punctured_bidisc(),
        }[self.kind]

    @property
    def default_target(self) -> DomainSpec:
        return {
            MapKind.POWER: DomainSpec.fat(self.k) if self.k else None,
            MapKind.SHEAR: DomainSpec.punctured_bidisc(),
            MapKind.SHEAR_INV: DomainSpec.classical(),
            MapKind.SHEAR_ITER: DomainSpec.punctured_bidisc(),
            MapKind.SHEAR_ITER_INV: DomainSpec.thin(self.k) if self.k else None,
        }[self.kind]

    def image(self, p: Point2C) -> Point2C:
        z1, z2 = p.z1, p.z2
        if self.kind is MapKind.POWER:
            return Point2C(z1, z2**self.k)
        if z2 == 0:
            raise DomainError("map needs z2 != 0")
        if self.kind is MapKind.SHEAR:
            return Point2C(z1 / z2, z2)
        if self.kind is MapKind.SHEAR_INV:
            return Point2C(z1 * z2, z2)
        if self.kind is MapKind.SHEAR_ITER:
            return Point2C(z1 * z2**-self.k, z2)
        return Point2C(z1 * z2**self.k, z2)

    def jacobian(self, p: Point2C) -> complex:
        z2 = p.z2
        if self.kind is MapKind.POWER:
            return self.k * z2 ** (self.k - 1)
        if z2 == 0:
            raise DomainError("map needs z2 != 0")
        if self.kind is MapKind.SHEAR:
            return 1.0 / z2
        if self.kind is MapKind.SHEAR_INV:
            return z2
        if self.kind is MapKind.SHEAR_ITER:
            return z2**-self.k
        return z2**self.k


def power_map(k: int) -> ProperMap:
    return ProperMap(MapKind.POWER, k)


def shear() -> ProperMap:
    return ProperMap(MapKind.SHEAR)


def shear_inv() -> ProperMap:
    return ProperMap(MapKind.SHEAR_INV)


def shear_iter(k: int) -> ProperMap:
    return ProperMap(MapKind.SHEAR_ITER, k)


def shear_iter_inv(k: int) -> ProperMap:
    return ProperMap(MapKind.SHEAR_ITER_INV, k)


def apply(m: ProperMap, p: Point2C, src: DomainSpec | None = None) -> Point2C:
    """Apply the map after checking membership in its source domain."""
    source = src if src is not None else m.default_source
    require_inside(source, p)
    return m.image(p)


def _arg_in_2pi(x: complex) -> float:
    # Argument in [0, 2pi) with the seam on the positive real axis; values
    # within 1e-15 of the seam resolve toward argument 0.
    a = math.atan2(x.imag, x.real)
    if a < 0.0:
        a += 2.0 * math.pi
    if 2.0 * math.pi - a < 1e-15:
        a = 0.0
    return a


@dataclass(frozen=True)
class BranchInverse:
    """One local inverse of the power map: w -> (w1, zeta^j w2^(1/k))."""

    j: int
    preimage: Point2C
    jacobian: complex


def branch_inverses(k: int, w: Point2C) -> list[BranchInverse]:
    """The k local inverses of the order-k power map at w.

    The sector-j preimage is (w1, zeta^j w2^(1/k)) with zeta =
    exp(2 pi i / k) and the base root's argument in [0, 2pi/k); its
    Jacobian is obtained by differentiating the branch map,
    root_j / (k w2).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    require_inside(DomainSpec.fat(k), w)
    base = abs(w.z2) ** (1.0 / k) * cmath.exp(1j * _arg_in_2pi(w.z2) / k)
    out = []
    for j in range(1, k + 1):
        root = base * cmath.exp(2j * math.pi * j / k)
        out.append(BranchInverse(j, Point2C(w.z1, root), root / (k * w.z2)))
    return out


def _relative_residual(lhs: complex, rhs: complex) -> float:
    # |lhs - rhs| relative to the larger side; two exact zeros agree.
    scale = max(abs(lhs), abs(rhs))
    return abs(lhs - rhs) / scale if scale > 0.0 else 0.0


def bell_residual(k: int, z: Point2C, w: Point2C) -> float:
    """Relative residual of the order-k covering transformation rule.

    z lives in the classical triangle, w in the fat triangle of exponent k.
    """
    require_inside(DomainSpec.classical(), z, name="z")
    u = k * z.z2 ** (k - 1)
    image = Point2C(z.z1, z.z2**k)
    target_value = bergman_fat(k, image, w)
    flagged = target_value.near_singular
    lhs = u * target_value.value
    rhs = 0.0j
    for branch in branch_inverses(k, w):
        kv = bergman_fat(1, z, branch.preimage)
        flagged = flagged or kv.near_singular
        rhs += kv.value * branch.jacobian.conjugate()
    if flagged:
        raise SingularEvaluation("a kernel evaluation in the covering rule was near-singular")
    return _relative_residual(lhs, rhs)


def biholo_residual(
    m: ProperMap,
    src: DomainSpec,
    dst: DomainSpec,
    z: Point2C,
    w: Point2C,
    *,
    thin_variant: ThinVariant = THIN_VARIANT_DEFAULT,
) -> float:
    """Relative residual of the biholomorphic transformation rule for m."""
    if m.order != 1:
        raise ValueError(f"{m.kind.value} has order {m.order}, not a biholomorphism")
    require_inside(src, z, name="z")
    require_inside(src, w, name="w")
    fz, fw = m.image(z), m.image(w)
    require_inside(dst, fz, name="F(z)")
    require_inside(dst, fw, name="F(w)")
    kv_src = kernel(src, z, w, thin_variant=thin_variant, check=False)
    kv_dst = kernel(dst, fz, fw, thin_variant=thin_variant, check=False)
    if kv_src.near_singular or kv_dst.near_singular:
        raise SingularEvaluation("a kernel evaluation in the invariance rule was near-singular")
    lhs = kv_src.value
    rhs = m.jacobian(z) * kv_dst.value * m.jacobian(w).conjugate()
    return _relative_residual(lhs, rhs)
