"""Geometry of generalized Hartogs triangles and their reference bidiscs.

The central domains are H(gamma) = {(z1, z2) in C^2 : |z1|^gamma < |z2| < 1}
for rational exponents gamma = k ("fat", k >= 2), gamma = 1/k ("thin"),
and gamma = 1 (the classical Hartogs triangle).  The full bidisc D x D and
the punctured bidisc D x D* appear as comparison domains for the kernel
transformation identities.

Every domain here is Reinhardt (invariant under independent rotations of
each coordinate), so membership, distance to the boundary and Lebesgue
volume all reduce to the quarter-plane picture in the moduli
(r1, r2) = (|z1|, |z2|).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "BOUNDARY_MARGIN",
    "DomainError",
    "DomainKind",
    "DomainSpec",
    "Point2C",
    "PathKind",
    "BoundaryPath",
    "contains",
    "inside_mask",
    "ipow",
    "require_inside",
    "boundary_distance",
    "sample_chunks",
    "sample_uniform",
    "sample_uniform_arrays",
    "sampling_acceptance",
    "volume",
    "boundary_paths",
]

# Points closer to the boundary than this margin are classified as outside.
# Strictness keeps quadrature and series evaluation away from the singular
# denominators of the kernels.
BOUNDARY_MARGIN = 1e-14


class DomainError(ValueError):
    """A point lies outside the domain an operation requires."""


class DomainKind(enum.Enum):
    FAT = "fat"
    THIN = "thin"
    CLASSICAL = "classical"
    BIDISC = "bidisc"
    PUNCTURED_BIDISC = "punctured-bidisc"


@dataclass(frozen=True)
class DomainSpec:
    """Selects a domain: a Hartogs triangle of exponent gamma, or a bidisc.

    ``fat(k)`` has gamma = k and ``thin(k)`` has gamma = 1/k.  Since
    fat(1), thin(1) and the classical triangle are the same point set,
    both k = 1 variants canonicalize to ``classical`` at construction,
    so there is a single code path for gamma = 1.
    """

    kind: DomainKind
    k: int | None = None

    def __post_init__(self) -> None:
        if self.kind in (DomainKind.FAT, DomainKind.THIN):
            if self.k is None or int(self.k) < 1:
                raise ValueError(f"exponent index must be a positive integer, got {self.k!r}")
            object.__setattr__(self, "k", int(self.k))
            if self.k == 1:
                object.__setattr__(self, "kind", DomainKind.CLASSICAL)
                object.__setattr__(self, "k", None)
        elif self.k is not None:
            raise ValueError(f"domain kind {self.kind.value!r} takes no exponent index")

    @staticmethod
    def fat(k: int) -> "DomainSpec":
        return DomainSpec(DomainKind.FAT, k)

    @staticmethod
    def thin(k: int) -> "DomainSpec":
        return DomainSpec(DomainKind.THIN, k)

    @staticmethod
    def classical() -> "DomainSpec":
        return DomainSpec(DomainKind.CLASSICAL)

    @staticmethod
    def bidisc() -> "DomainSpec":
        return DomainSpec(DomainKind.BIDISC)

    @staticmethod
    def punctured_bidisc() -> "DomainSpec":
        return DomainSpec(DomainKind.PUNCTURED_BIDISC)

    @property
    def gamma(self) -> Fraction | None:
        """Exact exponent gamma, or None for the bidiscs."""
        if self.kind is DomainKind.FAT:
            return Fraction(self.k)
        if self.kind is DomainKind.THIN:
            return Fraction(1, self.k)
        if self.kind is DomainKind.CLASSICAL:
            return Fraction(1)
        return None

    @property
    def is_triangle(self) -> bool:
        return self.kind in (DomainKind.FAT, DomainKind.THIN, DomainKind.CLASSICAL)

    def __str__(self) -> str:
        if self.kind in (DomainKind.FAT, DomainKind.THIN):
            return f"{self.kind.value}:{self.k}"
        return self.kind.value

    @staticmethod
    def parse(text: str) -> "DomainSpec":
        """Parse the string form used by the CLI, e.g. "fat:2" or "bidisc"."""
        name, _, arg = text.partition(":")
        try:
            if name in ("fat", "thin"):
                return DomainSpec(DomainKind(name), int(arg))
            if arg:
                raise ValueError
            return DomainSpec(DomainKind(name))
        except ValueError:
            raise ValueError(f"unrecognized domain spec {text!r}") from None


@dataclass(frozen=True)
class Point2C:
    """A point (z1, z2) of C^2 with finite double-precision components."""

    z1: complex
    z2: complex

    def __post_init__(self) -> None:
        z1, z2 = complex(self.z1), complex(self.z2)
        object.__setattr__(self, "z1", z1)
        object.__setattr__(self, "z2", z2)
        if not all(map(math.isfinite, (z1.real, z1.imag, z2.real, z2.imag))):
            raise ValueError(f"point components must be finite, got ({z1}, {z2})")


def ipow(x, k: int):
    """x**k (k >= 1) by binary powering, for real or complex scalars and arrays.

    Real products round the same on Python floats and numpy arrays, which
    membership relies on, where ``**`` does not (libm pow vs numpy's
    vectorized pow differ in the last bit); complex products need not.  On
    complex arrays these products are several times faster than numpy's
    per-element power.  For k <= 3 these are the products of plain repeated
    multiplication.
    """
    y = x if k & 1 else None
    while k := k >> 1:
        x = x * x
        if k & 1:
            y = x if y is None else y * x
    return y


def _inside_moduli(spec: DomainSpec, r1, r2):
    """Strict membership decided on the moduli (r1, r2) = (|z1|, |z2|).

    The single membership predicate: the sampler and ``inside_mask`` call
    it, with numpy arrays or Python floats alike.
    Only +, -, * and comparisons are used, so both argument types give the
    same verdict bit for bit, even within ulps of the margin.
    """
    top = 1.0 - r2 > BOUNDARY_MARGIN
    if spec.kind in (DomainKind.FAT, DomainKind.CLASSICAL):
        # ipow(r1, 1) is r1 itself: the classical test is the fat one at k = 1.
        return (r2 - ipow(r1, spec.k or 1) > BOUNDARY_MARGIN) & top
    if spec.kind is DomainKind.THIN:
        # r2 - r1^(1/k) > margin, raised to the k-th power.
        d = r2 - BOUNDARY_MARGIN
        return (d > 0.0) & (r1 < ipow(d, spec.k)) & top
    inside = (1.0 - r1 > BOUNDARY_MARGIN) & top
    if spec.kind is DomainKind.PUNCTURED_BIDISC:
        inside = inside & (r2 > BOUNDARY_MARGIN)
    return inside


def inside_mask(spec: DomainSpec, z1, z2):
    """Strict membership of (z1, z2), a mask for arrays and a bool for Python complex, bit for
    bit alike; points within BOUNDARY_MARGIN of the boundary are out."""
    sqrt = np.sqrt if isinstance(z1, np.ndarray) else math.sqrt
    r1 = sqrt(z1.real * z1.real + z1.imag * z1.imag)
    r2 = sqrt(z2.real * z2.real + z2.imag * z2.imag)
    return _inside_moduli(spec, r1, r2)


def contains(spec: DomainSpec, p: Point2C) -> bool:
    """Strict membership of one point (``inside_mask`` on Python complex)."""
    return bool(inside_mask(spec, p.z1, p.z2))


def require_inside(spec: DomainSpec, p: Point2C, name: str = "point") -> None:
    """Raise DomainError unless p is strictly inside the domain."""
    if not contains(spec, p):
        raise DomainError(f"{name} ({p.z1}, {p.z2}) is not inside {spec}")


def _golden_min(f, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section minimum of f on [lo, hi] (assumes the bracket holds it).

    The contraction runs down to the floating-point spacing around the
    minimizer, with no absolute tolerance: near the origin the minimizer can
    sit at u ~ 1e-6 with curvature scale u^(2k), where an absolutely-placed
    evaluation point would swamp the true minimum.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(300):
        if b - a <= 4.0 * math.ulp(max(abs(a), abs(b))):
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, min(f(x), fc, fd)


def boundary_distance(spec: DomainSpec, p: Point2C) -> float:
    """Euclidean distance from an interior point to the boundary of H(gamma).

    By the Reinhardt symmetry the nearest boundary point shares the
    coordinate arguments of p, so the computation reduces to distances in
    the (r1, r2) modulus plane: min of the distance 1 - r2 to the top face
    and the distance to the curve r2 = r1^gamma.  The curve distance is a
    one-dimensional minimization over the curve parameter in [0, 1]; past
    parameter 1 both residuals increase, so nothing lies beyond.  The
    curve is parameterized along its flat axis (r1 for gamma >= 1, r2 for
    gamma < 1) to keep the minimizer well-conditioned near the origin.
    """
    if not spec.is_triangle:
        raise DomainError(f"boundary_distance requires a Hartogs triangle, got {spec}")
    require_inside(spec, p)
    r1, r2 = abs(p.z1), abs(p.z2)
    g = float(spec.gamma)
    if g >= 1.0:
        def sq_dist(u):
            return (u - r1) ** 2 + (u**g - r2) ** 2
    else:
        e = 1.0 / g

        def sq_dist(u):
            return (u**e - r1) ** 2 + (u - r2) ** 2

    # The squared distance need not be unimodal in u (two local minima can
    # coexist for steep curves), so bracket the global minimum on a coarse
    # grid before refining.
    grid = np.linspace(0.0, 1.0, 257)
    vals = sq_dist(grid)
    i = int(np.argmin(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    _, fmin = _golden_min(sq_dist, float(lo), float(hi))
    fmin = min(fmin, float(vals[i]))
    # Coordinate projections onto the curve.  Near the origin the basin
    # around the minimizer is narrower than one ulp, and these candidates
    # hit it exactly where iterative placement cannot.
    for u in (r1, r2):
        if 0.0 <= u <= 1.0:
            fmin = min(fmin, sq_dist(u))
    return min(1.0 - r2, math.sqrt(fmin))


def _disc_samples(rng: np.random.Generator, n: int) -> np.ndarray:
    # n points of the unit disc, uniform w.r.t. area: radii sqrt(U) from n
    # uniforms, then n angles 2 pi U.
    r = np.sqrt(rng.random(n))
    return r * np.exp(1j * (rng.random(n) * (2.0 * np.pi)))


# Points per sampler block: a block's moduli and phase proposals stay in the
# L2 cache.  A constant, so the stream does not depend on the memory at hand.
_SAMPLE_BLOCK = 16_384
# Full blocks' worth of draws that keep no point before the sampler gives up.
_EMPTY_BLOCKS = 10_000


def _moduli(spec: DomainSpec, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Moduli (r1, r2) of uniform points of the domain, by inversion from two uniforms each.

    Uniform on H(gamma) means r2^c and (r1 / r2^(1/gamma))^2 are independent
    Uniform(0, 1), with c = 2 + 2/gamma; on the bidiscs r1^2 and r2^2 are.
    """
    if spec.kind is DomainKind.FAT:
        a = u ** (1.0 / (2 * spec.k + 2))
        return a * np.sqrt(v), ipow(a, spec.k)
    if spec.kind is DomainKind.THIN:
        r2 = u ** (1.0 / (2 * spec.k + 2))
        return ipow(r2, spec.k) * np.sqrt(v), r2
    if spec.kind is DomainKind.CLASSICAL:
        r2 = np.sqrt(np.sqrt(u))
        return r2 * np.sqrt(v), r2
    return np.sqrt(u), np.sqrt(v)


def _fill_polar(rng: np.random.Generator, out: np.ndarray, r: np.ndarray) -> None:
    """out = r e^(i theta), theta uniform, without trigonometry (von Neumann, 1951).

    A point (x, y) of the square [-1, 1]^2 with 0 < q = x^2 + y^2 <= 1 has a
    uniform argument, so (x + iy) / sqrt(q) is uniform on the circle.  Each
    draw proposes a third more points than it needs, and a short draw (rare)
    is topped up by another.
    """
    done = 0
    while done < len(r):
        need = len(r) - done
        # (x + iy) r / sqrt(q) operation by operation, in place or into the
        # output where numpy allows: the bits of the expression written out.
        xy = rng.random((2, need + need // 3 + 64))
        xy *= 2.0
        xy -= 1.0
        x, y = xy
        q = x * x
        q += y * y
        keep = q <= 1.0
        keep &= q > 0.0
        idx = np.flatnonzero(keep)[:need]
        part = slice(done, done + idx.size)
        scale = np.sqrt(q[idx])
        np.divide(r[part], scale, out=scale)
        np.multiply(x[idx], scale, out=out.real[part])
        np.multiply(y[idx], scale, out=out.imag[part])
        done += idx.size


def _keep_share_bound(spec: DomainSpec) -> float:
    """Upper bound on the share of ``_moduli`` draws that the membership predicate keeps.

    On H(gamma) the top margin keeps r2 < 1 - margin, a share
    (1 - margin)^(2 + 2/gamma) of the u draws.  The curve margin keeps at
    most a share (1 - margin)^(2/gamma) of the v draws: r1 = r2^(1/gamma)
    sqrt(v) must stay below (r2 - margin)^(1/gamma) <= (r2 (1 - margin))^(1/gamma).
    The bound is twice their product, at most 1, because where it is small,
    rounding r2 and its power moves the share actually kept by some percent.
    On the bidiscs it is 1.
    """
    if not spec.is_triangle:
        return 1.0
    return min(1.0, 2.0 * math.exp(float(2 + 4 / spec.gamma) * math.log1p(-BOUNDARY_MARGIN)))


def _fill_uniform(
    rng: np.random.Generator, spec: DomainSpec, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n uniform in-domain points, exactly, in blocks of at most _SAMPLE_BLOCK.

    Each block draws its moduli by inversion (``_moduli``) from one (2, m)
    uniform draw and keeps those that pass the membership predicate: only
    draws in the margin band fail, and later blocks replace them.  The phases
    of the kept z1, then of the kept z2, follow (``_fill_polar``).  The
    generator is consumed in exactly this order, so the stream for a fixed
    (spec, n, seed) is a contract, pinned by a golden-hash test.  The verdict
    uses the drawn moduli, not |z| recomputed from the complex point; the two
    differ by at most a couple of ulps, so they can disagree only on a draw
    within ulps of the margin band.  Past _EMPTY_BLOCKS * _SAMPLE_BLOCK
    draws in blocks that keep no point, it raises ValueError: a short last
    block counts its own draws, not a full block's.
    """
    z1 = np.empty(n, dtype=np.complex128)
    z2 = np.empty(n, dtype=np.complex128)
    got = empty = 0
    while got < n:
        u, v = rng.random((2, min(n - got, _SAMPLE_BLOCK)))
        r1, r2 = _moduli(spec, u, v)
        keep = _inside_moduli(spec, r1, r2)
        if not keep.all():
            r1, r2 = r1[keep], r2[keep]
        if not r1.size:
            empty += len(u)
            if empty > _EMPTY_BLOCKS * _SAMPLE_BLOCK:
                # A ValueError: the domain is too thin to sample, as with the pair filter.
                raise ValueError(f"rejection sampling on {spec} accepted {got} of {n} points")
            continue
        part = slice(got, got + r1.size)
        _fill_polar(rng, z1[part], r1)
        _fill_polar(rng, z2[part], r2)
        got += r1.size
    return z1, z2


def _require_keep_share(spec: DomainSpec, n: int) -> None:
    """Raise ValueError if ``_fill_uniform`` cannot be expected to draw n points before its cap.

    With share from ``_keep_share_bound``, a block of m draws is empty with
    probability q = (1 - share)^m.  The cap counts the draws of empty blocks,
    so it trips at empty block e = _EMPTY_BLOCKS * _SAMPLE_BLOCK // m + 1.
    Until then e / q blocks are drawn on average, and each keeps share * m
    points on average.
    """
    share, block = _keep_share_bound(spec), min(n, _SAMPLE_BLOCK)
    if share == 1.0:
        return
    empty = math.exp(block * math.log1p(-share))
    blocks = _EMPTY_BLOCKS * _SAMPLE_BLOCK // block + 1
    expect = blocks * block * share / empty if empty > 0.0 else math.inf
    if expect < n:
        raise ValueError(
            f"rejection sampling on {spec} keeps at most {share:.3g} of its draws: "
            f"blocks of {block} until {blocks} are empty expect {expect:.3g} points, "
            f"fewer than {n}")


def sample_uniform_arrays(spec: DomainSpec, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Array form of sample_uniform: two complex arrays (z1, z2) of length n."""
    return next(sample_chunks(spec, n, seed, n))


def sample_chunks(spec: DomainSpec, n: int, seed: int, chunk: int):
    """Yield n uniform points as (z1, z2) array chunks of length chunk (the last may be shorter).

    The chunks are the successive ``_fill_uniform`` draws of one
    ``default_rng(seed)``, so the stream is fixed by (spec, n, seed, chunk).
    Each chunk is drawn when it is asked for, in the thread that asks; the
    stream starts no thread of its own.  A domain too thin to yield a chunk
    raises ValueError before any draw (``_require_keep_share``).
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    if chunk < 1:
        raise ValueError(f"chunk size must be >= 1, got {chunk}")
    _require_keep_share(spec, min(n, chunk))
    rng = np.random.default_rng(seed)
    for lo in range(0, n, chunk):
        yield _fill_uniform(rng, spec, min(chunk, n - lo))


def sample_uniform(spec: DomainSpec, n: int, seed: int) -> list[Point2C]:
    """n i.i.d. points, uniform w.r.t. Lebesgue measure on the domain.

    Exact: moduli by inversion and phases without trigonometry
    (``_fill_uniform``).  The points for a fixed (spec, n, seed) are a
    contract, pinned by a golden-hash test: Monte Carlo verdicts and report
    bytes depend on them.
    """
    z1, z2 = sample_uniform_arrays(spec, n, seed)
    return [Point2C(a, b) for a, b in zip(z1.tolist(), z2.tolist())]


def sampling_acceptance(spec: DomainSpec, n_proposals: int, seed: int) -> float:
    """Fraction of uniform bidisc proposals landing inside; estimates vol/pi^2.

    A rejection draw, independent of the sampler, so it checks the volume.
    """
    if n_proposals < 1:
        raise ValueError(f"proposal count must be >= 1, got {n_proposals}")
    rng = np.random.default_rng(seed)
    c1 = _disc_samples(rng, n_proposals)
    c2 = _disc_samples(rng, n_proposals)
    return float(np.mean(inside_mask(spec, c1, c2)))


def volume(spec: DomainSpec) -> float:
    """Lebesgue volume: pi^2 gamma / (gamma + 1) for H(gamma), pi^2 for the bidiscs."""
    if spec.is_triangle:
        g = spec.gamma
        return math.pi**2 * float(g / (g + 1))
    return math.pi**2


class PathKind(enum.Enum):
    ORIGIN = "origin"
    SMOOTH_LEVI_FLAT = "smooth-levi-flat"
    TOP_FACE = "top-face"
    CORNER = "corner"


@dataclass(frozen=True)
class BoundaryPath:
    """A sequence of interior points approaching a named boundary target."""

    spec: DomainSpec
    kind: PathKind
    target: Point2C
    samples: tuple[Point2C, ...]
    params: tuple[float, ...]


def boundary_paths(spec: DomainSpec, which: PathKind, steps: int = 20) -> BoundaryPath:
    """Canonical boundary-approach sequence with parameter halved each step.

    Origin:           (0, eps) -> (0, 0), the boundary singularity.
    TopFace:          (0, 1 - eps) -> (0, 1).
    SmoothLeviFlat:   fixed |z2| = 1/2, |z1|^gamma rising to 1/2 from inside.
    Corner:           ((1-eps)^(2/gamma), 1-eps) -> (1, 1), kept comparably
                      far from both boundary faces (nontangential).
    """
    if not spec.is_triangle:
        raise DomainError(f"boundary paths require a Hartogs triangle, got {spec}")
    if steps < 20:
        raise ValueError(f"need at least 20 halving steps, got {steps}")
    g = float(spec.gamma)
    if which is PathKind.ORIGIN:
        target, point = Point2C(0.0, 0.0), lambda e: Point2C(0.0, e)
    elif which is PathKind.TOP_FACE:
        target, point = Point2C(0.0, 1.0), lambda e: Point2C(0.0, 1.0 - e)
    elif which is PathKind.SMOOTH_LEVI_FLAT:
        target = Point2C(0.5 ** (1.0 / g), 0.5)
        point = lambda e: Point2C(((1.0 - e) * 0.5) ** (1.0 / g), 0.5)
    elif which is PathKind.CORNER:
        target, point = Point2C(1.0, 1.0), lambda e: Point2C((1.0 - e) ** (2.0 / g), 1.0 - e)
    else:
        raise ValueError(f"unknown path kind {which!r}")
    pts = []  # each checked as it is built, so an oversized steps fails at once
    for m in range(1, steps + 1):
        q = point(2.0**-m)
        if not contains(spec, q):
            raise ValueError(f"step {m} of the {which.value} path is not inside {spec}: "
                             f"double precision resolves {m - 1} steps")
        pts.append(q)
    eps = [2.0**-m for m in range(1, steps + 1)]
    dists = [abs(q.z1 - target.z1) ** 2 + abs(q.z2 - target.z2) ** 2 for q in pts]
    if any(b >= a for a, b in zip(dists, dists[1:])):
        raise RuntimeError("path samples must approach the target strictly")
    return BoundaryPath(spec, which, target, tuple(pts), tuple(eps))
