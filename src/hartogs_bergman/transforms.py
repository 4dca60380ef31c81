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

``covering_residuals`` checks the branched-covering transformation rule

    u(z) B_fat(phi(z), w) = sum_j B_classical(z, Phi_j(w)) conj(U_j(w)),

and ``invariance_residuals`` checks the plain biholomorphic rule
B_src(z, w) = det F'(z) B_dst(F z, F w) conj(det F'(w)), whose two sides
``invariance_sides`` returns.  Rules, maps and roots
run on arrays; their one-point forms (``bell_residual``, ``ProperMap.image`` ...) wrap them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .domain import DomainError, DomainSpec, Point2C, inside_mask, require_inside
from .kernels import (THIN_VARIANT_DEFAULT, SingularEvaluation, ThinVariant, kernel_values,
                      pair_invariants)

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
    "covering_residuals",
    "invariance_sides",
    "invariance_residuals",
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


def _column(p: Point2C) -> tuple[np.ndarray, np.ndarray]:  # one point, for the wrappers
    return np.array([p.z1]), np.array([p.z2])


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

    def evaluate(self, z1: np.ndarray, z2: np.ndarray):
        """(F1, F2, det F') at arrays of points; not finite where a shear meets z2 = 0."""
        if self.kind is MapKind.POWER:
            return z1, z2**self.k, self.k * z2 ** (self.k - 1)
        with np.errstate(all="ignore"):
            if self.kind is MapKind.SHEAR:
                return z1 / z2, z2, 1.0 / z2
            det = z2 if self.kind is MapKind.SHEAR_INV else z2 ** (
                -self.k if self.kind is MapKind.SHEAR_ITER else self.k)
            return z1 * det, z2, det

    def _at(self, p: Point2C) -> list[complex]:
        if self.kind is not MapKind.POWER and p.z2 == 0:
            raise DomainError("map needs z2 != 0")
        return [complex(v[0]) for v in self.evaluate(*_column(p))]

    def image(self, p: Point2C) -> Point2C:
        return Point2C(*self._at(p)[:2])

    def jacobian(self, p: Point2C) -> complex:
        return self._at(p)[2]


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


def _branch_roots(k: int, w2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(roots, Jacobians) of shape (k, n), row j - 1 for branch j.  The base root's argument
    is in [0, 2pi/k); arguments within 1e-15 of the seam at 2pi resolve toward 0."""
    arg = np.arctan2(w2.imag, w2.real)
    arg = np.where(arg < 0.0, arg + 2.0 * np.pi, arg)
    arg = np.where(2.0 * np.pi - arg < 1e-15, 0.0, arg)
    base = np.abs(w2) ** (1.0 / k) * np.exp(1j * arg / k)
    roots = base * np.exp(2j * np.pi * np.arange(1, k + 1) / k)[:, None]
    return roots, roots / (k * w2)


@dataclass(frozen=True)
class BranchInverse:
    """One local inverse of the power map: w -> (w1, zeta^j w2^(1/k))."""

    j: int
    preimage: Point2C
    jacobian: complex


def branch_inverses(k: int, w: Point2C) -> list[BranchInverse]:
    """The k local inverses of the order-k power map at w: the sector-j preimage is
    (w1, zeta^j w2^(1/k)), zeta = exp(2 pi i / k), with Jacobian root_j / (k w2)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    require_inside(DomainSpec.fat(k), w)
    roots, jacs = _branch_roots(k, _column(w)[1])
    return [BranchInverse(j, Point2C(w.z1, complex(root[0])), complex(jac[0]))
            for j, (root, jac) in enumerate(zip(roots, jacs), start=1)]


def _inside(spec: DomainSpec, name: str, z1: np.ndarray, z2: np.ndarray):
    # A membership check: its mask, and what raises the error of pair i.
    return inside_mask(spec, z1, z2), lambda i: require_inside(spec, Point2C(z1[i], z2[i]), name)


def _raise_first_fault(checks, flagged: np.ndarray, rule: str) -> None:
    """At the first pair with a fault, raise its first failed check (``checks``: (mask, raise for
    pair i) in the one-pair order), else its near-singular flag, which was read last."""
    failed = ~np.array([ok for ok, _ in checks])
    faulty = np.flatnonzero(failed.any(axis=0) | flagged)
    if faulty.size and failed[:, faulty[0]].any():
        checks[np.argmax(failed[:, faulty[0]])][1](faulty[0])  # raises, as inside_mask decides
    if faulty.size:
        raise SingularEvaluation(f"a kernel evaluation in the {rule} was near-singular")


def _relative_residuals(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    # |lhs - rhs| relative to the larger side; two exact zeros agree, and a NaN stays NaN.
    scale = np.maximum(np.abs(lhs), np.abs(rhs))
    return np.divide(np.abs(lhs - rhs), scale, out=np.zeros_like(scale), where=scale != 0.0)


def covering_residuals(k: int, z1, z2, w1, w2) -> np.ndarray:
    """Relative residuals of the order-k covering rule, z in the classical triangle, w in fat:k."""
    classical, fat = DomainSpec.classical(), DomainSpec.fat(k)
    with np.errstate(all="ignore"):  # pairs past a fault are never read
        phi1, phi2, u = power_map(k).evaluate(z1, z2)
        roots, jacs = _branch_roots(k, w2)
        b_fat, flagged_f = kernel_values(fat, *pair_invariants(phi1, phi2, w1, w2))
        b_classical, flagged_c = kernel_values(classical, *pair_invariants(z1, z2, w1, roots))
    checks = [_inside(classical, "z", z1, z2), _inside(fat, "phi(z)", phi1, phi2),
              _inside(fat, "w", w1, w2)]
    checks += [_inside(classical, f"Phi_{j}(w)", w1, root) for j, root in enumerate(roots, 1)]
    _raise_first_fault(checks, flagged_f | flagged_c.any(axis=0), "covering rule")
    # Branch terms added row by row in branch order, as on a batch: on one pair
    # .sum(axis=0) would reduce a contiguous axis pairwise.
    return _relative_residuals(u * b_fat, sum(b_classical * jacs.conjugate()))


def invariance_sides(m: ProperMap, src: DomainSpec, dst: DomainSpec, z1, z2, w1, w2, *,
                     thin_variant: ThinVariant = THIN_VARIANT_DEFAULT):
    """Both sides of the biholomorphic rule for m at the pairs (z, w): B_src(z, w) and the
    pullback det F'(z) B_dst(F z, F w) conj(det F'(w)), after every check has passed."""
    if m.order != 1:
        raise ValueError(f"{m.kind.value} has order {m.order}, not a biholomorphism")
    (fz1, fz2, jz), (fw1, fw2, jw) = m.evaluate(z1, z2), m.evaluate(w1, w2)
    with np.errstate(all="ignore"):  # pairs past a fault are never read
        b_src, flagged_s = kernel_values(src, *pair_invariants(z1, z2, w1, w2), thin_variant)
        b_dst, flagged_d = kernel_values(dst, *pair_invariants(fz1, fz2, fw1, fw2), thin_variant)

    def defined(x1, x2):  # the shears need x2 != 0, and image raises where it is 0
        return x2 != 0, lambda i: m.image(Point2C(x1[i], x2[i]))

    checks = [_inside(src, "z", z1, z2), _inside(src, "w", w1, w2), defined(z1, z2), defined(w1, w2),
              _inside(dst, "F(z)", fz1, fz2), _inside(dst, "F(w)", fw1, fw2)]
    _raise_first_fault(checks, flagged_s | flagged_d, "invariance rule")
    return b_src, jz * b_dst * jw.conjugate()


def invariance_residuals(m: ProperMap, src: DomainSpec, dst: DomainSpec, z1, z2, w1, w2, *,
                         thin_variant: ThinVariant = THIN_VARIANT_DEFAULT) -> np.ndarray:
    """Relative residuals of the biholomorphic rule for m at the pairs (z, w)."""
    return _relative_residuals(*invariance_sides(m, src, dst, z1, z2, w1, w2,
                                                 thin_variant=thin_variant))


def bell_residual(k: int, z: Point2C, w: Point2C) -> float:
    """Relative residual of the order-k covering rule, z in the classical triangle, w in fat:k."""
    return float(covering_residuals(k, *_column(z), *_column(w))[0])


def biholo_residual(m: ProperMap, src: DomainSpec, dst: DomainSpec, z: Point2C, w: Point2C, *,
                    thin_variant: ThinVariant = THIN_VARIANT_DEFAULT) -> float:
    """Relative residual of the biholomorphic transformation rule for m."""
    pair = (*_column(z), *_column(w))
    return float(invariance_residuals(m, src, dst, *pair, thin_variant=thin_variant)[0])
