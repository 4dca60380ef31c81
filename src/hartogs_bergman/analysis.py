"""Kernel zero structure and diagonal boundary asymptotics.

Witness pairs at which the fat-triangle kernel vanishes (so those domains
are not Lu Qi-Keng), nonvanishing scans for the thin triangles, a zero
locus scan of the numerator in the reduced (s, t) variables, bounded-ratio
checks of the diagonal blow-up rate along boundary paths, and convergence
tables of the fat kernels toward the punctured-bidisc kernel as the
exponent grows.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .domain import (
    BoundaryPath,
    DomainSpec,
    PathKind,
    Point2C,
    boundary_distance,
    contains,
    sample_uniform_arrays,
)
from .kernels import (
    SingularEvaluation,
    bergman_fat,
    fat_quadratic,
    kernel_factors,
    kernel_num_den,
    kernel_values,
    pair_invariants,
)

__all__ = [
    "ZeroWitness",
    "NonvanishingReport",
    "RootRecord",
    "ZeroScanCell",
    "ZeroScan",
    "AsymptoticReport",
    "DeltaRateReport",
    "RamadanovTable",
    "RAMADANOV_POINTS",
    "lqk_witness",
    "thin_nonvanishing",
    "stable_quadratic_roots",
    "realizable_args",
    "zero_locus_scan",
    "diagonal_ratio",
    "delta_rate",
    "ramadanov_table",
]


@dataclass(frozen=True)
class ZeroWitness:
    """A pair of fat-triangle points where the kernel numerator vanishes."""

    k: int
    z: Point2C
    w: Point2C
    numerator_abs: float


def lqk_witness(k: int) -> ZeroWitness:
    """The standard kernel zero of the fat triangle of exponent k >= 2.

    For k >= 3 the pair (0, +-i/sqrt(k-1)) gives t = -1/(k-1), where the
    numerator reduces to (k-1) t^2 + t = 0.  For k = 2 that t is outside
    the domain, and a pair with s = -1/2 and t a root of
    t^2 - (3/4) t + 1/4 works instead.  The numerator's modulus is
    reported, not judged: each caller compares it with its own tolerance.
    """
    if k < 2:
        raise ValueError(f"the fat triangle has kernel zeros only for k >= 2, got {k}")
    if k == 2:
        r = 1.0 / math.sqrt(2.0)
        z = Point2C(complex(0.0, r), complex(math.sqrt(7.0) / 4.0, 0.25))
        w = Point2C(complex(0.0, -r), complex(math.sqrt(7.0) / 4.0, -0.25))
    else:
        r = 1.0 / math.sqrt(k - 1.0)
        z = Point2C(0.0, complex(0.0, r))
        w = Point2C(0.0, complex(0.0, -r))
    kv = bergman_fat(k, z, w)  # membership is checked inside
    return ZeroWitness(k, z, w, abs(kv.numerator))


@dataclass(frozen=True)
class NonvanishingReport:
    k: int
    n: int
    seed: int
    zero_hits: int
    min_abs_value: float
    min_abs_numerator: float


def thin_nonvanishing(k: int, n: int, seed: int) -> NonvanishingReport:
    """Scan n random pairs of the thin triangle for kernel zeros.

    The thin numerator is t^k = (z2 conj(w2))^k, which cannot vanish
    inside the domain; the report carries the observed minima.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 1:
        raise ValueError(f"pair count must be >= 1, got {n}")
    spec = DomainSpec.thin(k)
    z1, z2 = sample_uniform_arrays(spec, 2 * n, seed)
    s, t = pair_invariants(z1[:n], z2[:n], z1[n:], z2[n:])
    del z1, z2  # the samples go before the evaluation's temporaries arrive
    num, den = kernel_num_den(spec, s, t)
    values = np.abs(num / den)
    num_abs = np.abs(num)
    hits = int(np.sum(num_abs < 1e-300))
    return NonvanishingReport(k, n, seed, hits, float(values.min()), float(num_abs.min()))


def stable_quadratic_roots(a: complex, b: complex, c: complex) -> tuple[complex, ...]:
    """Roots of a x^2 + b x + c with the cancellation-free branch choice."""
    a, b, c = complex(a), complex(b), complex(c)
    if a == 0:
        if b == 0:
            return ()
        return (-c / b,)
    sq = cmath.sqrt(b * b - 4.0 * a * c)
    if (b.conjugate() * sq).real < 0.0:
        sq = -sq
    q = -0.5 * (b + sq)
    if q == 0:
        # b == 0 and disc == 0 imply c == 0: a double root at 0 plus -b/a = 0.
        return (0.0j, -b / a)
    return (q / a, c / q)


def realizable_args(k: int, s: complex, t: complex) -> bool:
    """Whether (s, t) arises from a pair of points inside the fat triangle.

    Writing |s| = r1 rho1 and |t| = r2 rho2 with both points in-domain
    forces |s|^k < |t| < 1; conversely moduli r1 = rho1 = sqrt(|s|),
    r2 = rho2 = sqrt(|t|) with matching arguments realize any such pair.
    """
    return abs(s) < 1.0 and abs(s) ** k < abs(t) < 1.0


@dataclass(frozen=True)
class RootRecord:
    s: float
    roots: tuple[complex, ...]
    realizable: tuple[bool, ...]
    residuals: tuple[float, ...]


@dataclass(frozen=True)
class ZeroScanCell:
    s: float
    t: complex
    numerator_abs: float
    realizable: bool


@dataclass(frozen=True)
class ZeroScan:
    k: int
    tol: float
    rows: tuple[RootRecord, ...]
    cells: tuple[ZeroScanCell, ...]


def zero_locus_scan(
    k: int,
    s_points: int = 101,
    t_abs: float | None = None,
    t_points: int = 256,
    tol: float = 1e-8,
) -> ZeroScan:
    """Scan the numerator zero set over a real-s slice.

    For every real s in (-1, 1) the numerator is a quadratic in t whose
    roots are computed in closed form, flagged with realizability.  If
    t_abs is given, the circle |t| = t_abs is additionally scanned for
    cells where |numerator| dips below tol times the term scale.
    """
    if k < 2:
        raise ValueError(f"zero scan needs k >= 2, got {k}")
    if s_points < 1:
        raise ValueError("s_points must be >= 1")
    s_grid = np.linspace(-1.0, 1.0, s_points + 2)[1:-1]
    coeffs = np.broadcast_arrays(*fat_quadratic(k, s_grid))  # quad(s) is constant for k = 2
    s_list = s_grid.tolist()
    rows = []
    for s, a, b, c in zip(s_list, *(x.tolist() for x in coeffs)):
        roots = stable_quadratic_roots(a, b, c)
        realizable = tuple(realizable_args(k, s, r) for r in roots)
        residuals = tuple(
            abs(a * r * r + b * r + c)
            / max(abs(a * r * r), abs(b * r), abs(c), 1e-300)
            for r in roots
        )
        rows.append(RootRecord(s, roots, realizable, residuals))
    cells = []
    if t_abs is not None:
        if not 0.0 < t_abs < 1.0:
            raise ValueError("t_abs must lie in (0, 1)")
        theta = np.linspace(0.0, 2.0 * np.pi, t_points, endpoint=False)
        t_circle = t_abs * np.exp(1j * theta)
        a, b, c = (x[:, None] for x in coeffs)  # rows s, columns t
        num = (a * t_circle + b) * t_circle + c
        scale = np.maximum(np.abs(a * t_circle**2), np.maximum(np.abs(b * t_circle), np.abs(c)))
        small = np.abs(num) < tol * np.maximum(scale, 1e-300)
        for i, j in zip(*np.nonzero(small)):  # row-major: by s, then around the circle
            s, t_val = s_list[i], complex(t_circle[j])
            cells.append(ZeroScanCell(s, t_val, float(abs(num[i, j])), realizable_args(k, s, t_val)))
    return ZeroScan(k, tol, tuple(rows), tuple(cells))


@dataclass(frozen=True)
class AsymptoticReport:
    path: BoundaryPath
    ratios: tuple[float, ...]
    min_ratio: float
    max_ratio: float
    tail_quotient: float  # max / min of the last 10 ratios


def _path_moduli(path: BoundaryPath):
    """(|z1|, |z2|) of the path's samples, as two arrays."""
    return np.abs(np.array([(p.z1, p.z2) for p in path.samples])).T


def _positive_values(path: BoundaryPath, values: np.ndarray, name: str) -> tuple[float, ...]:
    """The values as floats, or SingularEvaluation naming the first sample
    where one is not finite and positive (an underflowed denominator reads
    inf or NaN there)."""
    bad = np.flatnonzero(~(np.isfinite(values) & (values > 0.0)))
    if bad.size:
        p = path.samples[bad[0]]
        raise SingularEvaluation(f"{name} became {float(values[bad[0]])} at ({p.z1}, {p.z2})")
    return tuple(values.tolist())


def diagonal_ratio(spec: DomainSpec, path: BoundaryPath) -> AsymptoticReport:
    """Ratios B(z,z) * (1-|z2|)^2 * (|z2|-|z1|^k)^2 along a boundary path.

    For thin triangles the second factor is (|z2|^k - |z1|)^2.  Bounded
    ratios along the path express the diagonal blow-up rate.

    The product is taken in cancelled form.  On the diagonal
    1 - t = (1 - r2)(1 + r2) and t - s^k = (r2 - r1^k)(r2 + r1^k) (thin:
    (r2^k - r1)(r2^k + r1)).  Up to sign the halves 1 + r2 and r2 + r1^k
    (r2^k + r1) are the top and curve factors at ((-1)^(k+1) r1, -r2), so
    B(z,z) times the squared boundary halves avoids the raw quotient's
    cancellations.
    """
    if not spec.is_triangle:
        raise ValueError(f"diagonal asymptotics require a Hartogs triangle, got {spec}")
    r1, r2 = _path_moduli(path)
    num, const, _, _ = kernel_factors(spec, r1 * r1, r2 * r2)
    _, _, top, curve = kernel_factors(spec, r1 if (spec.k or 1) % 2 else -r1, -r2)
    with np.errstate(all="ignore"):
        ratios = _positive_values(path, num / (const * top**2 * curve**2), "ratio")
    tail = ratios[-10:]
    return AsymptoticReport(path, ratios, min(ratios), max(ratios), max(tail) / min(tail))


@dataclass(frozen=True)
class DeltaRateReport:
    path: BoundaryPath
    values: tuple[float, ...]
    tail_quotient: float


def delta_rate(spec: DomainSpec, path: BoundaryPath) -> DeltaRateReport:
    """B(z,z) * delta(z)^2 along an origin path, with its tail quotient."""
    if path.kind is not PathKind.ORIGIN:
        raise ValueError(f"delta_rate expects an origin path, got {path.kind.value}")
    r1, r2 = _path_moduli(path)
    num, den = kernel_num_den(spec, r1 * r1, r2 * r2)
    delta = np.array([boundary_distance(spec, p) for p in path.samples])
    with np.errstate(all="ignore"):
        values = _positive_values(path, num / den * delta**2, "value")
    tail = values[-10:]
    return DeltaRateReport(path, values, max(tail) / min(tail))


@dataclass(frozen=True)
class RamadanovTable:
    points: tuple[Point2C, ...]
    k_start: tuple[int, ...]
    ks: tuple[int, ...]
    errors: tuple[tuple[float, ...], ...]  # errors[i][j] for ks[i], points[j]; NaN below k_start
    max_errors: tuple[float, ...]


# Default diagonal points of the Ramadanov table (criterion 10 and the CLI).
RAMADANOV_POINTS = (Point2C(0.5, 0.6), Point2C(0.3, 0.7), Point2C(0.2, 0.9))


def ramadanov_table(points, k_max: int) -> RamadanovTable:
    """Errors |B_k(p, p) - B_bidisc(p, p)| for k up to k_max, per point.

    Each point must lie in the punctured bidisc; its row starts at the
    first k with |z1|^k < |z2|.  Membership is monotone in k (|z1| < 1), so
    every larger k keeps the point inside and no evaluation checks it.
    The diagonal values are the real parts of one ``kernel_values`` call
    per exponent, on all points, with NaN before each point's start.
    """
    pts = tuple(points)
    if not pts:
        raise ValueError("need at least one point")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    reference = DomainSpec.punctured_bidisc()
    starts = []
    for p in pts:
        if not contains(reference, p):
            raise ValueError(f"point ({p.z1}, {p.z2}) is not inside {reference}")
        k0 = next(
            (k for k in range(1, k_max + 1) if contains(DomainSpec.fat(k), p)), None
        )
        if k0 is None:
            raise ValueError(f"point ({p.z1}, {p.z2}) enters no fat triangle by k={k_max}")
        starts.append(k0)
    k_start = np.array(starts)
    z1, z2 = np.array([(p.z1, p.z2) for p in pts]).T
    s, t = pair_invariants(z1, z2, z1, z2)
    exact = kernel_values(reference, s, t)[0].real
    ks = range(1, k_max + 1)
    rows = []
    for k in ks:
        error = np.abs(kernel_values(DomainSpec.fat(k), s, t)[0].real - exact)
        rows.append(tuple(np.where(k < k_start, np.nan, error).tolist()))
    maxima = tuple(max((e for e in row if not math.isnan(e)), default=math.nan) for row in rows)
    return RamadanovTable(pts, tuple(starts), tuple(ks), tuple(rows), maxima)
