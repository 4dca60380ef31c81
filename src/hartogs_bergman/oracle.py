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
from .kernels import PI_SQ, THIN_VARIANT_DEFAULT, ThinVariant, kernel_num_den, near_singular

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
    # Python ints with no Fraction per row.  A Python int also keeps
    # ``t ** b`` on Python's complex power; a numpy integer exponent would
    # take numpy's power, whose last bit can differ.
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
    *,
    check: bool = True,
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
    if check:
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
    and tail bound agree to rounding, as numpy's complex products, quotients
    and powers may round differently from Python's in the last bit.  A
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
        x = np.hypot(t.real, t.imag)  # abs as Python rounds it
        rho, pref = _tail_factors(gf, np.hypot(s.real, s.imag), x)
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
            # Real and imaginary parts divided apart, as Python divides by a float.
            value = (terms.view(np.float64) / (4.0 * PI_SQ)).view(np.complex128)
            tail = _rows_tail(pref[active, None], rho[active, None], a) / (4.0 * PI_SQ)
        tail[rho[active] >= 1.0] = math.inf
        passed = tail <= tol * np.fmax(1.0, np.hypot(value.real, value.imag))
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
            return z1**self.a if self.a else np.ones_like(z1)
        if self.a == 0:
            return z2**self.b
        return z1**self.a * z2**self.b

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


def inner_product_mc(
    spec: DomainSpec, f, g, n: int, seed: int, *, chunk: int = 1_000_000
) -> McEstimate:
    """Monte Carlo estimate of integral of f * conj(g) over the domain."""
    return inner_products_mc(spec, ((f, g),), n, seed, chunk=chunk)[0]


def inner_products_mc(
    spec: DomainSpec, pairs, n: int, seed: int, *, chunk: int = 1_000_000
) -> list[McEstimate]:
    """Estimates of integral of f * conj(g) for every (f, g) on one sample stream.

    Each distinct function is evaluated once per chunk.  Estimates for
    different pairs are correlated but individually unbiased, and each is
    bit-identical to a single-pair call with the same seed.  The caller draws
    each chunk: criterion 8 and ``inner-product`` read one chunk each, so a
    thread drawing ahead would only draw while the caller waited.  Every f and
    g is a Monomial; one that is not square-integrable raises ValueError.
    """
    if n < 1_000:
        raise ValueError(f"need at least 10^3 samples, got {n}")
    pairs = tuple(pairs)
    for f, g in pairs:
        _require_admissible(spec, f)
        _require_admissible(spec, g)
    vol = volume(spec)
    total = [0.0j] * len(pairs)
    sq_re = [0.0] * len(pairs)
    sq_im = [0.0] * len(pairs)
    for z1, z2 in sample_chunks(spec, n, seed, chunk):
        memo = {}
        for i, (f, g) in enumerate(pairs):
            for h in (f, g):
                if h not in memo:
                    memo[h] = h(z1, z2)
            # Binding conj(g) first keeps the product's operand order: a
            # bare temporary on the right lets numpy reuse it for the
            # result with the operands swapped, which changes the rounding.
            gc = np.conj(memo[g])
            vals = memo[f] * gc
            total[i] += vals.sum()
            sq_re[i] += float(np.dot(vals.real, vals.real))
            sq_im[i] += float(np.dot(vals.imag, vals.imag))
    out = []
    for t, sr, si in zip(total, sq_re, sq_im):
        mean = t / n
        var = max(sr / n - mean.real**2, 0.0) + max(si / n - mean.imag**2, 0.0)
        out.append(McEstimate(vol * mean, vol * math.sqrt(var / n), n, seed))
    return out


def _drawn_ahead(helper, chunks):
    """Yield the chunks of ``chunks``, each drawn on ``helper`` one chunk ahead.

    ``helper``, a one-worker executor, is the only thread that advances
    ``chunks``, so the points do not depend on timing; numpy releases the
    interpreter lock, so each draw overlaps the caller's work.  It runs
    tasks in order: a task the caller submits on receiving chunk k runs as
    soon as the draw of chunk k + 1 is done (at once after the last chunk).
    """
    ahead = helper.submit(next, chunks, None)
    while (ready := ahead.result()) is not None:
        ahead = helper.submit(next, chunks, None)
        yield ready


# Samples per evaluation block in reproducing_residuals_batch: with three
# points a block's (points, samples) temporaries are 192 KiB of complex128
# and stay in the L2 cache.  A constant, so that no estimate depends on the
# number of points.
_EVAL_BLOCK = 4_096


@dataclass(frozen=True)
class ReproducingReport:
    residual: float
    estimate: complex
    expected: complex
    excluded: int
    n: int
    seed: int


def reproducing_check(
    spec: DomainSpec,
    f: Monomial,
    z: Point2C,
    n: int,
    seed: int,
    *,
    thin_variant: ThinVariant = THIN_VARIANT_DEFAULT,
    chunk: int = 1_000_000,
) -> ReproducingReport:
    """Relative residual of f(z) = integral B(z, w) f(w) dV(w) under MC.

    Samples with a near-singular kernel evaluation are excluded and counted.
    """
    reports = reproducing_residuals_batch(
        spec, (f,), (z,), n, seed, thin_variant=thin_variant, chunk=chunk
    )
    return reports[0][0]


def reproducing_residuals_batch(
    spec: DomainSpec,
    fs,
    zs,
    n: int,
    seed: int,
    *,
    thin_variant: ThinVariant = THIN_VARIANT_DEFAULT,
    chunk: int = 1_000_000,
) -> list[list[ReproducingReport]]:
    """Reproducing residuals for every (f, z) combination on one sample stream.

    Returns reports[i][j] for fs[i] and zs[j].  Sharing the stream keeps a
    10^7-sample battery affordable; estimates for different combinations
    are correlated but individually unbiased.

    A helper thread draws chunk k + 1 (``_drawn_ahead``) and then helps
    evaluate chunk k.  The chunk's function values are one (len(fs), m)
    array F.  The caller and the helper claim the chunk's sample blocks of
    _EVAL_BLOCK columns one at a time from one shared iterator, and the
    caller waits for the helper's blocks before it moves to the next chunk.
    A block is evaluated entirely by the thread that claimed it: one kernel
    evaluation on (len(zs), width) arrays, one near-singular mask, and for
    each point z_j the sums F[:, block] @ K[j] into that block's own slot.
    The slots are added in block order after the join, so neither the
    thread nor the timing changes a bit of any estimate, and no estimate
    depends on the other points.  The last (or only) chunk has no draw
    ahead of it, so the helper joins at once.  When sampling is the slower
    half, the caller has claimed every block before the helper is free, and
    the helper only draws.
    """
    if n < 1_000:
        raise ValueError(f"need at least 10^3 samples, got {n}")
    for z in zs:
        require_inside(spec, z, name="evaluation point")
    for f in fs:
        _require_admissible(spec, f)
    vol = volume(spec)
    # Columns, so that each (point, sample) product broadcasts as z * conj(w).
    z1s = np.array([[z.z1] for z in zs], dtype=np.complex128)
    z2s = np.array([[z.z2] for z in zs], dtype=np.complex128)
    acc = np.zeros((len(zs), len(fs)), dtype=np.complex128)
    excluded = np.zeros(len(zs), dtype=np.int64)

    def evaluate(claims, w1c, w2c, fvals, partial, bad):
        # Each block b writes only partial[:, :, b] and bad[:, b], so the two
        # threads share no cell and need no lock.
        for b in claims:
            block = slice(b * _EVAL_BLOCK, (b + 1) * _EVAL_BLOCK)
            num, den = kernel_num_den(spec, z1s * w1c[block], z2s * w2c[block], thin_variant)
            flagged = near_singular(den)
            bad[:, b] = np.count_nonzero(flagged, axis=1)
            if bad[:, b].any():
                num, den = np.where(flagged, 0.0, num), np.where(flagged, 1.0, den)
            kvals = num / den
            fblock = fvals[:, block]
            for j in range(len(zs)):
                partial[j, :, b] = fblock @ kvals[j]

    # Imported on first use so that importing the package stays as cheap as before.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="sample_chunks") as helper:
        for w1, w2 in _drawn_ahead(helper, sample_chunks(spec, n, seed, chunk)):
            fvals = np.empty((len(fs), len(w1)), dtype=np.complex128)
            for i, f in enumerate(fs):
                fvals[i] = f(w1, w2)
            # The chunk is this call's own: conjugate it in place.
            np.conjugate(w1, out=w1)
            np.conjugate(w2, out=w2)
            blocks = -(-len(w1) // _EVAL_BLOCK)
            partial = np.empty((len(zs), len(fs), blocks), dtype=np.complex128)
            bad = np.empty((len(zs), blocks), dtype=np.int64)
            claims = iter(range(blocks))
            # Queued behind the draw of the next chunk, if there is one.
            share = helper.submit(evaluate, claims, w1, w2, fvals, partial, bad)
            try:
                evaluate(claims, w1, w2, fvals, partial, bad)
            finally:
                # After an error, leave the helper no further block to claim.
                for _ in claims:
                    pass
            share.result()
            for b in range(blocks):
                acc += partial[:, :, b]
            excluded += bad.sum(axis=1)
            # Freed before the next chunk's values are made, not after:
            # the two sets are never resident together.
            del fvals
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
