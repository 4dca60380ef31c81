"""Independent ground truth for the closed-form kernels.

Three instruments, all independent of the closed forms they test:

* Monomial basis norms.  On a Reinhardt domain the Laurent monomials
  z1^a z2^b are pairwise orthogonal, and on H(gamma) the square norm is
  available in closed form by polar integration:

      ||z1^a z2^b||^2 = 4 pi^2 / ((2a+2) (2b+2+(2a+2)/gamma)),

  admissible exactly when 2b + 2 + (2a+2)/gamma > 0 (a >= 0, b may be
  negative).  Completeness of this system on H(gamma) is the standard
  Reinhardt fact and is assumed here.

* The kernel series sum over the normalized monomial basis,
  sum s^a t^b / norm_sq(a, b), summed row by row with each row's sum over
  b in closed form, and an analytic geometric tail bound.

* Monte Carlo integration against uniform samples, for inner products and
  for the reproducing property itself.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .domain import DomainSpec, Point2C, ipow, require_inside, sample_chunks, volume
from .kernels import PI_SQ, SingularEvaluation, point_kernels

__all__ = [
    "NonconvergentTruncation",
    "MonomialIndex",
    "SeriesTruncation",
    "Monomial",
    "McEstimate",
    "ReproducingReport",
    "is_admissible",
    "b_min",
    "monomial_norm_sq",
    "basis_norms",
    "kernel_series",
    "series_row_sums",
    "inner_product_mc",
    "inner_products_mc",
    "parse_function",
    "reproducing_check",
    "reproducing_residuals_batch",
]


class NonconvergentTruncation(ArithmeticError):
    """The series tail bound exceeds the requested tolerance."""


def _require_triangle(spec: DomainSpec) -> Fraction:
    if not spec.is_triangle:
        raise ValueError(f"monomial basis requires a Hartogs triangle, got {spec}")
    return spec.gamma


def _norm_factor(spec: DomainSpec, a: int, b: int) -> Fraction | None:
    # 2b + 2 + (2a+2)/gamma from the polar integral, or None when z1^a z2^b
    # is not square-integrable (the factor is not positive, or a < 0).
    g = _require_triangle(spec)
    if a < 0:
        return None
    factor = Fraction(2 * b + 2) + Fraction(2 * a + 2) / g
    return factor if factor > 0 else None


def is_admissible(spec: DomainSpec, a: int, b: int) -> bool:
    """Square-integrability of z1^a z2^b on the triangle, decided exactly."""
    return _norm_factor(spec, a, b) is not None


def _require_admissible(spec: DomainSpec, f: Monomial) -> None:
    if not is_admissible(spec, f.a, f.b):
        raise ValueError(f"{f.name} is not square-integrable on {spec}")


def b_min(spec: DomainSpec, a: int) -> int:
    """Smallest admissible z2-power for a given z1-power."""
    return _b_min(_require_triangle(spec), a)


def _b_min(g: Fraction, a: int) -> int:
    # floor(-1 - (a+1)/g) + 1 = -ceil((a+1) q / p) for g = p/q, exactly, in
    # Python ints with no Fraction per row.
    p, q = g.numerator, g.denominator
    return -(((a + 1) * q + p - 1) // p)


@dataclass(frozen=True)
class MonomialIndex:
    """Basis exponent pair with its exact-formula square norm."""

    a: int
    b: int
    norm_sq: float


def monomial_norm_sq(spec: DomainSpec, a: int, b: int) -> float:
    factor = _norm_factor(spec, a, b)
    if factor is None:
        raise ValueError(f"monomial ({a}, {b}) is not square-integrable on {spec}")
    return 4.0 * PI_SQ / ((2 * a + 2) * float(factor))


def basis_norms(spec: DomainSpec, a_max: int, b_max: int) -> list[MonomialIndex]:
    """All admissible indices with 0 <= a <= a_max, b_min(a) <= b <= b_max."""
    if a_max < 0 or b_max < 0:
        raise ValueError("truncation bounds must be nonnegative")
    out = []
    for a in range(a_max + 1):
        for b in range(b_min(spec, a), b_max + 1):
            out.append(MonomialIndex(a, b, monomial_norm_sq(spec, a, b)))
    return out


@dataclass(frozen=True)
class SeriesTruncation:
    """Last row summed, the given b_max (None in auto mode), rows summed and the tail bound."""

    a_max: int
    b_max: int | None
    terms_used: int
    tail_estimate: float


def _tail_factors(gf: float, abs_s, x):
    """rho = |s| / |t|^(1/gamma) and the row prefactor of the tail bound, for |t| = x < 1.

    Using |t|^b_min(a) <= |t|^(-1-(a+1)/gamma) and the coefficient bound at
    b = b_min, row a is at most (2a+2) rho^a pref with
    pref = |t|^(-1-1/gamma) (2/(1-x) + 2x/(1-x)^2).  Floats or arrays alike.
    """
    rho = abs_s * x ** (-1.0 / gf)
    one_mx = 1.0 - x
    return rho, x ** (-1.0 - 1.0 / gf) * (2.0 / one_mx + 2.0 * x / one_mx**2)


def _rows_tail(pref, rho, a):
    """pref * sum_{a' > a} (2a'+2) rho^a': the rows after row a in full (rho < 1)."""
    return pref * (2.0 * rho ** (a + 1) * ((a + 2) * (1.0 - rho) + rho) / (1.0 - rho) ** 2)


def _tail_bound(spec: DomainSpec, abs_s: float, abs_t: float):
    """Upper bound on the dropped series mass as a function of (a_max, b_max), with what does not
    depend on them computed once; b_max=None drops only the rows a > a_max."""
    g = _require_triangle(spec)
    gf = float(g)
    x = abs_t
    if x >= 1.0:
        return lambda a_max, b_max: math.inf
    rho, pref = _tail_factors(gf, abs_s, x)
    if rho >= 1.0:
        return lambda a_max, b_max: math.inf
    one_mx = 1.0 - x

    def bound(a_max: int, b_max: int | None) -> float:
        # Rows a <= a_max, dropped powers b > b_max:
        #   sum_{b > B} x^b (2b + c) = 2 x^(B+1) ((B+1)(1-x) + x)/(1-x)^2
        #                              + c x^(B+1)/(1-x).
        t1 = 0.0
        if b_max is not None:
            xB = x ** (b_max + 1)
            spow = 1.0
            for a in range(a_max + 1):
                c = 2.0 + (2 * a + 2) / gf
                tail_b = 2.0 * xB * ((b_max + 1) * one_mx + x) / one_mx**2 + c * xB / one_mx
                t1 += spow * (2 * a + 2) * tail_b
                spow *= abs_s
        return (t1 + _rows_tail(pref, rho, a_max)) / (4.0 * PI_SQ)

    return bound


# The last row the auto mode of kernel_series and series_row_sums sums (read at each call).
_MAX_ROWS = 2**17


def kernel_series(
    spec: DomainSpec,
    z: Point2C,
    w: Point2C,
    a_max: int | None = None,
    b_max: int | None = None,
    tol: float | None = 1e-8,
) -> tuple[complex, SeriesTruncation]:
    """Series sum over rows a = 0, 1, ..., each summed over b in closed form.

    The tail bound must be at most tol * max(1, |sum|) (tol=None accepts any).
    Given a_max/b_max, rows 0..a_max are cut at b_max: the rectangle of terms.
    Otherwise whole rows are added until the bound on the rest passes, up to
    row _MAX_ROWS; NonconvergentTruncation names the last row summed.  A
    tolerance that is not > 0 (NaN too), or a negative bound, raises
    ValueError before any summing.
    """
    if (a_max is None) != (b_max is None):
        raise ValueError("give both a_max and b_max, or neither for auto truncation")
    if tol is not None and not tol > 0:
        raise ValueError(f"series tolerance must be > 0, got {tol}")
    if min(a_max or 0, b_max or 0) < 0:
        raise ValueError("truncation bounds must be nonnegative")
    if a_max is None and tol is None:
        raise ValueError("auto truncation requires a tolerance")
    require_inside(spec, z, name="z")
    require_inside(spec, w, name="w")
    g = _require_triangle(spec)
    gf = float(g)
    s = z.z1 * w.z1.conjugate()
    t = z.z2 * w.z2.conjugate()
    # sum_{b >= beta} t^b (2b + c) = t^beta ((2 beta + c) inv + ramp).
    inv = 1.0 / (1.0 - t)
    ramp = 2.0 * t * inv * inv
    beta = _b_min(g, 0)
    # Running row leader s^a t^(b_min(a)).  For in-domain pairs
    # |s| < |t|^{1/gamma}, so |lead| <= |t|^(-1 - 1/gamma): bounded, and the
    # update below never multiplies a huge power by a tiny one.
    lead = t**beta
    total = 0.0j
    tail_bound = _tail_bound(spec, abs(s), abs(t))
    for a in range(_MAX_ROWS + 1 if a_max is None else a_max + 1):
        c = 2.0 + (2 * a + 2) / gf
        row = (2 * beta + c) * inv + ramp
        if b_max is not None:
            row -= t ** (b_max + 1 - beta) * ((2 * b_max + 2 + c) * inv + ramp)
        total += (2 * a + 2) * lead * row
        if a == a_max or a_max is None:
            value = total / (4.0 * PI_SQ)
            tail = tail_bound(a, b_max)
            if tol is None or tail <= tol * max(1.0, abs(value)):
                return value, SeriesTruncation(a, b_max, a + 1, tail)
        nxt = _b_min(g, a + 1)
        lead *= s * t ** (nxt - beta)
        beta = nxt
    raise NonconvergentTruncation(f"tail bound {tail:.3e} exceeds tolerance at row {a}")


# Rows in the first block of series_row_sums; each later block is twice as wide,
# up to _BLOCK_CELLS (pair, row) cells: 4 MiB per complex block array.  The
# sums run across blocks in one order, so neither constant changes a row or a
# tail bound.  A value's last bit can change with them, and with the number
# of pairs still active: numpy takes a scalar loop to accumulate one pair's
# row and a vector loop across pairs, and the two round differently.
_ROW_BLOCK = 64
_BLOCK_CELLS = 2**18


def series_row_sums(spec: DomainSpec, s, t, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """kernel_series's auto mode on arrays of (s, t) = (z1 conj(w1), z2 conj(w2)).

    Returns (values, rows, tails): each pair's sum, the rows it summed and
    its tail bound.  Rows are taken in blocks for all pairs still active,
    _ROW_BLOCK wide at first and doubling: the running row leaders by
    ``np.multiply.accumulate`` and the totals by ``np.add.accumulate`` from
    the running total, in kernel_series's order.  A pair leaves at the first
    row whose tail bound passes, so it sums kernel_series's rows; its value
    and tail bound agree with kernel_series's to rounding.  A
    tolerance that is not > 0, or a gamma = p/q whose b_min(a) leaves int64
    before row _MAX_ROWS (thin:k from k ~ 2^46), raises ValueError before any
    summing; NonconvergentTruncation names row _MAX_ROWS for the first pair,
    in pair order, that reaches it.  Membership is the caller's to check.
    """
    if not tol > 0:
        raise ValueError(f"series tolerance must be > 0, got {tol}")
    g = _require_triangle(spec)
    gf = float(g)
    p, q = g.numerator, g.denominator
    if (_MAX_ROWS + 2) * q + p - 1 >= 2**63:
        raise ValueError(f"b_min on {spec} leaves int64 before row {_MAX_ROWS}")
    s = np.asarray(s, dtype=np.complex128)
    t = np.asarray(t, dtype=np.complex128)
    values = np.empty(len(s), dtype=np.complex128)
    rows = np.empty(len(s), dtype=np.int64)
    tails = np.empty(len(s))
    with np.errstate(all="ignore"):  # pairs outside give inf or NaN and never pass
        inv = 1.0 / (1.0 - t)
        ramp = 2.0 * t * inv * inv
        x = np.abs(t)
        rho, pref = _tail_factors(gf, np.abs(s), x)
    rho[x >= 1.0] = math.inf
    steps = {}  # step d -> s t^d, the leader's factor from a row to the next

    def step(d):
        if d not in steps:
            steps[d] = s if d == 0 else s * (1.0 / ipow(t, -d))
        return steps[d]

    beta = _b_min(g, 0)
    active = np.arange(len(s))
    lead = 1.0 / ipow(t, -beta)  # t^beta, beta < 0
    total = np.zeros(len(s), dtype=np.complex128)
    a0, width = 0, _ROW_BLOCK
    while active.size:
        w = min(width, _MAX_ROWS + 1 - a0, max(_BLOCK_CELLS // active.size, 1))
        a = np.arange(a0, a0 + w)
        # b_min(a) for a0 <= a <= a0 + w, as _b_min computes it.
        betas = -((np.arange(a0 + 1, a0 + w + 2, dtype=np.int64) * q + p - 1) // p)
        ds, which = np.unique(np.diff(betas), return_inverse=True)
        factors = np.stack([step(int(d))[active] for d in ds], axis=1)
        with np.errstate(all="ignore"):
            # Row leaders s^a t^b_min(a), then (2a+2) lead ((2 beta + c) inv + ramp).
            terms = np.empty((active.size, w), dtype=np.complex128)
            terms[:, 0] = lead
            terms[:, 1:] = factors[:, which[:-1]]
            np.multiply.accumulate(terms, axis=1, out=terms)
            lead = terms[:, -1] * factors[:, which[-1]]
            coef = (2 * betas[:-1] + (2.0 + (2 * a + 2) / gf)).astype(np.float64)
            terms *= 2 * a + 2
            terms *= coef * inv[active, None] + ramp[active, None]
            terms[:, 0] += total
            np.add.accumulate(terms, axis=1, out=terms)
            total = terms[:, -1]
            value = terms / (4.0 * PI_SQ)
            tail = _rows_tail(pref[active, None], rho[active, None], a) / (4.0 * PI_SQ)
        tail[rho[active] >= 1.0] = math.inf
        passed = tail <= tol * np.fmax(1.0, np.abs(value))
        done = passed.any(axis=1)
        if a0 + w > _MAX_ROWS and not done.all():
            first = np.argmin(done)
            raise NonconvergentTruncation(
                f"tail bound {tail[first, -1]:.3e} exceeds tolerance at row {_MAX_ROWS}")
        row = passed[done].argmax(axis=1)
        values[active[done]] = value[done, row]
        rows[active[done]] = a0 + row + 1
        tails[active[done]] = tail[done, row]
        active, lead, total = active[~done], lead[~done], total[~done]
        a0, width = a0 + w, 2 * width
    return values, rows, tails


def _power(z, k: int):
    """z**k on a complex array, with the bits of ``**``: exponents 1 and 2, which
    ``**`` rounds as a copy and as z * z, skip its slower general loop.  Other
    exponents keep ``**``, whose z**3 and z**-1 differ from (z * z) * z and 1 / z."""
    if k == 1:
        return z.copy()
    return z * z if k == 2 else z**k


@dataclass(frozen=True)
class Monomial:
    """A named test function z1^a z2^b (the CLI's closed function set)."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a < 0:
            raise ValueError("z1 exponent must be >= 0 for holomorphy on the triangle")

    def __call__(self, z1, z2):
        # Exponent 0 skips the complex power; the value is the same as the
        # full product's, apart from the sign of an exactly zero component.
        if self.b == 0:
            return _power(z1, self.a) if self.a else np.ones_like(z1)
        if self.a == 0:
            return _power(z2, self.b)
        return _power(z1, self.a) * _power(z2, self.b)

    def at(self, p: Point2C) -> complex:
        return p.z1**self.a * p.z2**self.b

    @property
    def name(self) -> str:
        return f"z1^{self.a}*z2^{self.b}"


_NAMED_FUNCTIONS = {
    "one": (0, 0),
    "z1": (1, 0),
    "z2": (0, 1),
    "z2inv": (0, -1),
}
_MONOMIAL_RE = re.compile(r"^z1\^(-?\d+)\*z2\^(-?\d+)$")


def parse_function(text: str) -> Monomial:
    """Parse "one", "z1", "z2", "z2inv" or "z1^a*z2^b" with integer exponents."""
    if text in _NAMED_FUNCTIONS:
        return Monomial(*_NAMED_FUNCTIONS[text])
    m = _MONOMIAL_RE.match(text)
    if not m:
        raise ValueError(f"unrecognized test function {text!r}")
    return Monomial(int(m.group(1)), int(m.group(2)))


@dataclass(frozen=True)
class McEstimate:
    value: complex
    std_error: float
    n: int
    seed: int


def inner_product_mc(spec: DomainSpec, f, g, n: int, seed: int) -> McEstimate:
    """Monte Carlo estimate of integral of f * conj(g) over the domain."""
    return inner_products_mc(spec, ((f, g),), n, seed)[0]


def inner_products_mc(spec: DomainSpec, pairs, n: int, seed: int) -> list[McEstimate]:
    """Estimates of integral of f * conj(g) for every (f, g) on one sample stream.

    The stream is ``_block_sums``'s: each distinct function is evaluated
    once per block of _EVAL_BLOCK samples, and each pair's sum and sums of
    squares are that block's slot, so memory holds two chunks and the
    blocks' values, however many pairs there are.  Estimates for different
    pairs are correlated but individually unbiased, and each is
    bit-identical to a single-pair call with the same seed.  Every f and g
    is a Monomial; one that is not square-integrable raises ValueError.
    """
    if n < 1_000:
        raise ValueError(f"need at least 10^3 samples, got {n}")
    pairs = tuple(pairs)
    for f, g in pairs:
        _require_admissible(spec, f)
        _require_admissible(spec, g)
    if not pairs:
        return []

    functions = {h for pair in pairs for h in pair}

    def block(v1, v2):
        memo = {h: h(v1, v2) for h in functions}
        sums = np.empty(len(pairs), dtype=np.complex128)
        squares = np.empty((len(pairs), 2))
        for i, (f, g) in enumerate(pairs):
            # Binding conj(g) first keeps the product's operand order: a
            # bare temporary on the right lets numpy reuse it for the
            # result with the operands swapped, which changes the rounding.
            gc = np.conj(memo[g])
            vals = memo[f] * gc
            sums[i] = vals.sum()
            # numpy's sum, not np.dot: BLAS rounds a dot by its thread count.
            squares[i] = np.square(vals.real).sum(), np.square(vals.imag).sum()
        return sums, squares

    vol = volume(spec)
    out = []
    for t, (sr, si) in zip(*_block_sums(spec, n, seed, block)):
        mean = t / n
        var = max(sr / n - mean.real**2, 0.0) + max(si / n - mean.imag**2, 0.0)
        out.append(McEstimate(vol * mean, vol * math.sqrt(var / n), n, seed))
    return out


def _drawn_ahead(helper, stream):
    """Yield the items of ``stream``, each drawn on ``helper`` one item ahead.

    ``helper``, a one-worker executor, is the only thread that advances
    ``stream``, so the points do not depend on timing; numpy releases the
    interpreter lock, so each draw overlaps the caller's work.  It runs
    tasks in order: a task the caller submits on receiving item k runs as
    soon as the draw of item k + 1 is done (at once after the last item).
    ``_block_sums``'s items are its chunks of _CHUNK samples, so one 4 MiB
    chunk is in flight beside the one being evaluated.
    """
    ahead = helper.submit(next, stream, None)
    while (ready := ahead.result()) is not None:
        ahead = helper.submit(next, stream, None)
        yield ready


# Samples per evaluation block in both integrators, and points per kernel
# tile in the reproducing one: a tile's products are at most 256 KiB of
# complex128, however many points there are, and no tile has one row,
# because a one-row product rounds unlike a wider one.  The per-block
# table of sample powers adds a block per term (13 for fat:3, 33 for fat:8).
# Tiles of 8 points were no faster, and of 24 slower.  The stream is read in chunks
# of 32 blocks (4 MiB of samples), which end on the sampler's 16,384-point
# blocks, so only a stream's last block is short.  Constants, so that no
# estimate depends on the number of pairs or points.
_EVAL_BLOCK = 4_096
_POINT_TILE = 4
_CHUNK = 32 * _EVAL_BLOCK


def _block_sums(spec: DomainSpec, n: int, seed: int, block) -> list[np.ndarray]:
    """The sums, in block order, of the arrays ``block(v1, v2)`` returns on each block of a stream.

    The stream is ``sample_chunks(spec, n, seed, _CHUNK)``, so about two
    chunks (8 MiB) are held at once.  A helper thread draws chunk k + 1
    (``_drawn_ahead``) and then helps evaluate chunk k.  The caller and the
    helper claim the chunk's blocks of _EVAL_BLOCK samples one at a time
    from one shared iterator, and the caller waits for the helper's blocks
    before it moves to the next chunk.  The thread that claims a block
    calls ``block`` on it, which only reads the samples and returns a tuple
    of arrays, that block's own slot.  The slots are added in block order
    after the join, so neither the thread nor the timing changes a bit of
    any sum.  The last chunk has no draw ahead of it, so the helper joins
    at once.  When sampling is the slower half, the caller has claimed
    every block before the helper is free, and the helper only draws.
    """

    def evaluate(claims, w1, w2, slots):
        # Each block writes only its own slot, so the two threads share no
        # cell and need no lock.
        for b in claims:
            lo = b * _EVAL_BLOCK
            slots[b] = block(w1[lo:lo + _EVAL_BLOCK], w2[lo:lo + _EVAL_BLOCK])

    # Imported on first use so that importing the package stays as cheap as before.
    from concurrent.futures import ThreadPoolExecutor

    sums = None
    chunks = sample_chunks(spec, n, seed, _CHUNK)
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="sample_chunks") as helper:
        for w1, w2 in _drawn_ahead(helper, chunks):
            slots = [None] * -(-len(w1) // _EVAL_BLOCK)
            claims = iter(range(len(slots)))
            # Queued behind the draw of the next chunk, if there is one.
            share = helper.submit(evaluate, claims, w1, w2, slots)
            try:
                evaluate(claims, w1, w2, slots)
            finally:
                # After an error, leave the helper no further block to claim.
                for _ in claims:
                    pass
            share.result()
            for slot in slots:
                sums = [total + part for total, part in zip(sums or [0] * len(slot), slot)]
            # Let the chunk go before the stream draws the one after the next.
            del w1, w2
    return sums


@dataclass(frozen=True)
class ReproducingReport:
    residual: float
    estimate: complex
    expected: complex
    excluded: int
    n: int
    seed: int


def reproducing_check(spec: DomainSpec, f: Monomial, z: Point2C, n: int,
                      seed: int) -> ReproducingReport:
    """Relative residual of f(z) = integral B(z, w) f(w) dV(w) under MC.

    Samples with a near-singular kernel evaluation are excluded and counted.
    """
    return reproducing_residuals_batch(spec, (f,), (z,), n, seed)[0][0]


def reproducing_residuals_batch(spec: DomainSpec, fs, zs, n: int,
                                seed: int) -> list[list[ReproducingReport]]:
    """Reproducing residuals for every (f, z) combination on one sample stream.

    Returns reports[i][j] for fs[i] and zs[j].  Sharing the stream keeps a
    10^7-sample battery affordable; estimates for different combinations
    are correlated but individually unbiased.  Empty fs or zs return at once,
    with nothing drawn; a point at which every sample is excluded raises
    SingularEvaluation.

    The stream is ``_block_sums``'s.  The kernel is expanded once per call
    (``point_kernels``).  Each block makes its (len(fs), width) function
    values F and its table of sample powers, then per tile of at most
    _POINT_TILE points the kernel values K, whose flagged samples read 0,
    and, for each point z_j, the sums F @ K[j] into that block's slot, so
    neither the tiling nor the other points change a bit of any estimate.
    """
    if n < 1_000:
        raise ValueError(f"need at least 10^3 samples, got {n}")
    for z in zs:
        require_inside(spec, z, name="evaluation point")
    for f in fs:
        _require_admissible(spec, f)
    if not fs or not zs:
        return [[] for _ in fs]
    vol = volume(spec)
    # A last tile of one row gets a copy of the last point, whose row is
    # dropped: every tile is one product of 2 to _POINT_TILE rows.
    padded = (*zs, zs[-1]) if len(zs) % _POINT_TILE == 1 else tuple(zs)
    kernel = point_kernels(spec, [z.z1 for z in padded], [z.z2 for z in padded])

    def block(v1, v2):
        fblock = np.empty((len(fs), len(v1)), dtype=np.complex128)
        for i, f in enumerate(fs):
            fblock[i] = f(v1, v2)
        powers = kernel.powers(v1, v2)
        sums = np.empty((len(padded), len(fs)), dtype=np.complex128)
        bad = np.empty(len(padded), dtype=np.int64)
        for t in range(0, len(padded), _POINT_TILE):
            rows = slice(t, t + _POINT_TILE)
            kvals, flagged = kernel.values(powers, rows)
            bad[rows] = np.count_nonzero(flagged, axis=1)
            if bad[rows].any():
                kvals[flagged] = 0.0
            for j, row in enumerate(kvals, t):
                sums[j] = fblock @ row
        return sums[:len(zs)], bad[:len(zs)]

    acc, excluded = _block_sums(spec, n, seed, block)
    for z, bad in zip(zs, excluded):
        if bad == n:
            raise SingularEvaluation(
                f"all {n} samples are near-singular at evaluation point ({z.z1}, {z.z2})")
    out = []
    for i, f in enumerate(fs):
        row = []
        for j, z in enumerate(zs):
            bad = int(excluded[j])
            estimate = vol * complex(acc[j, i]) / (n - bad)
            expected = f.at(z)
            residual = abs(estimate - expected) / max(1.0, abs(expected))
            row.append(ReproducingReport(residual, estimate, expected, bad, n, seed))
        out.append(row)
    return out
