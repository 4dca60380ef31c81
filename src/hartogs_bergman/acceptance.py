"""The acceptance battery: every headline claim, runnable end to end.

Each criterion is declared once by ``_criterion`` (number, name, time
budget), pins its own seeds and tolerances, and joins ``ALL_CRITERIA``,
which ``run_all`` executes in order.  The same battery backs the
``reproduce`` CLI command and the acceptance test module.  The pair-check
loops behind criteria 2, 4 and 5 also run the ``series-compare``,
``bell-check`` and ``biholo-check`` commands.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .analysis import (
    RAMADANOV_POINTS,
    diagonal_ratio,
    lqk_witness,
    ramadanov_table,
    thin_nonvanishing,
)
from .domain import (DomainError, DomainSpec, PathKind, Point2C, boundary_paths, inside_mask,
                     require_inside, sample_chunks)
from .kernels import (THIN_VARIANT_DEFAULT, ThinVariant, bergman_reference, bergman_thin,
                      kernel_num_den, pair_invariants)
from .oracle import (
    Monomial,
    SeriesTruncation,
    inner_products_mc,
    is_admissible,
    monomial_norm_sq,
    reproducing_residuals_batch,
    series_row_sums,
)
from .polynomials import verify_coefficient_identities
from .transforms import ProperMap, covering_residuals, invariance_residuals, shear, shear_iter

__all__ = ["CriterionResult", "ALL_CRITERIA", "run_all", "series_deviations", "bell_residuals",
           "biholo_residuals"]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    elapsed_s: float

    def __post_init__(self) -> None:
        # Criteria computed through numpy comparisons can hand over
        # np.bool_, which the json encoder rejects.
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "elapsed_s", float(self.elapsed_s))


# (number, name, criterion) in order, filled by the @_criterion declarations below.
ALL_CRITERIA: tuple[tuple[int, str, Callable[[], CriterionResult]], ...] = ()


def _criterion(number: int, name: str, budget_s: float = math.inf):
    """Declare criterion ``number``, whose body returns (passed, details): the
    result is timed, fails past ``budget_s`` seconds and joins ALL_CRITERIA."""

    def declare(body):
        @functools.wraps(body)
        def criterion() -> CriterionResult:
            t0 = time.perf_counter()
            passed, details = body()
            elapsed = time.perf_counter() - t0
            return CriterionResult(number, name, passed and elapsed < budget_s, details, elapsed)

        global ALL_CRITERIA
        ALL_CRITERIA += ((number, name, criterion),)
        return criterion

    return declare


_PAIR_ROUNDS = 10_001  # rejection rounds before _pairs gives up on its filter
_PAIR_BATCH = 512  # candidate pairs per round: point i is paired with point _PAIR_BATCH + i


def _pairs(spec: DomainSpec, n_pairs: int, seed: int, keep=None) -> np.ndarray:
    """First n_pairs of independent uniform point pairs passing the mask ``keep(s, t)``, one
    row (z1, z2, w1, w2) each: round r pairs rows i and _PAIR_BATCH + i of chunk r."""
    if n_pairs < 1:
        raise ValueError(f"pair count must be >= 1, got {n_pairs}")
    kept, got = [], 0
    for z1, z2 in sample_chunks(spec, _PAIR_ROUNDS * 2 * _PAIR_BATCH, seed, 2 * _PAIR_BATCH):
        rows = np.stack([z1[:_PAIR_BATCH], z2[:_PAIR_BATCH], z1[_PAIR_BATCH:], z2[_PAIR_BATCH:]], 1)
        if keep is not None:
            rows = rows[keep(*pair_invariants(*rows.T))]
        kept.append(rows[: n_pairs - got])
        got += len(kept[-1])
        if got == n_pairs:
            return np.concatenate(kept)
    # A ValueError: the filter's parameters, not the sampler, are at fault.
    raise ValueError(f"pair filter on {spec} accepted {got} of {n_pairs} pairs")


def _small_t_share(spec: DomainSpec, max_mod: float) -> float:
    """P(|t| <= m) for a uniform pair of the triangle: m^c (1 - c ln m) for m < 1.

    |z2|^c is Uniform(0, 1) for c = 2 + 2/gamma, and the product of two
    uniforms is <= y with probability y (1 - ln y).  The |s|, |t| filter of
    series_deviations keeps no larger a share.
    """
    if max_mod >= 1.0:
        return 1.0
    c = 2.0 + 2.0 / float(spec.gamma)
    return max_mod**c * (1.0 - c * math.log(max_mod))


def _abs(x: np.ndarray) -> np.ndarray:
    # |x| as Python's abs rounds it; numpy's complex abs can differ in the last bit.
    return np.hypot(x.real, x.imag)


def series_deviations(spec: DomainSpec, n_pairs: int, seed: int, max_mod: float = 0.4,
                      series_tol: float = 1e-10,
                      thin_variant: ThinVariant = THIN_VARIANT_DEFAULT) -> list[tuple]:
    """(z, w, closed, series, truncation, rel_dev) per pair with |s|, |t| <= max_mod."""
    if not spec.is_triangle:
        raise DomainError(f"series comparison requires a Hartogs triangle, got {spec}")
    if not max_mod > 0.0:
        raise ValueError(f"max_mod must be > 0, got {max_mod}")
    share = _small_t_share(spec, max_mod)
    expected = _PAIR_ROUNDS * _PAIR_BATCH * share
    if expected < n_pairs:
        raise ValueError(
            f"pair filter on {spec} keeps at most {share:.3g} of pairs (|t| <= {max_mod:g}): "
            f"{_PAIR_ROUNDS} rounds of {_PAIR_BATCH} pairs expect {expected:.3g}, "
            f"fewer than {n_pairs}")

    def small(s, t):
        return (_abs(s) <= max_mod) & (_abs(t) <= max_mod)

    pairs = _pairs(spec, n_pairs, seed, keep=small)
    z1, z2, w1, w2 = pairs.T
    outside = ~(inside_mask(spec, z1, z2) & inside_mask(spec, w1, w2))
    if outside.any():  # the first pair outside raises its one-pair error, z before w
        i = np.argmax(outside)
        require_inside(spec, Point2C(z1[i], z2[i]), name="z")
        require_inside(spec, Point2C(w1[i], w2[i]), name="w")
    s, t = pair_invariants(z1, z2, w1, w2)
    num, den = kernel_num_den(spec, s, t, thin_variant)
    closed = np.divide(num, den, out=np.full(den.shape, complex("nan")), where=den != 0)
    sums, rows, tails = series_row_sums(spec, s, t, series_tol)
    return [(Point2C(z1, z2), Point2C(w1, w2), value, series,
             SeriesTruncation(used - 1, None, used, tail), abs(series - value) / abs(value))
            for (z1, z2, w1, w2), value, series, used, tail
            in zip(pairs.tolist(), closed.tolist(), sums.tolist(), rows.tolist(), tails.tolist())]


def bell_residuals(k: int, n_pairs: int, seed_z: int, seed_w: int) -> list[float]:
    """Bell's covering-rule residuals, z from the classical triangle and w from fat:k."""
    zs = _pairs(DomainSpec.classical(), n_pairs, seed_z)
    ws = _pairs(DomainSpec.fat(k), n_pairs, seed_w)
    return covering_residuals(k, zs[:, 0], zs[:, 1], ws[:, 0], ws[:, 1]).tolist()


def biholo_residuals(m: ProperMap, src: DomainSpec, dst: DomainSpec, n_pairs: int, seed: int,
                     thin_variant: ThinVariant = THIN_VARIANT_DEFAULT) -> list[float]:
    """Transformation residuals of the biholomorphism m: src -> dst on pairs of src."""
    pairs = _pairs(src, n_pairs, seed)
    return invariance_residuals(m, src, dst, *pairs.T, thin_variant=thin_variant).tolist()


@_criterion(1, "exact-identities", budget_s=5.0)
def criterion_1_exact_identities():
    """Coefficient identities hold exactly for 2 <= k <= 50."""
    report = verify_coefficient_identities(50)
    detail = (
        "all 49 exponents agree coefficient-by-coefficient"
        if report.all_pass
        else "; ".join(f"k={c.k}: {c.detail}" for c in report.failures)
    )
    return report.all_pass, detail


@_criterion(2, "fat-kernel-vs-series", budget_s=60.0)
def criterion_2_fat_series():
    """Fat closed forms match the series oracle to 1e-6 at 50 pairs per k."""
    rows = [r for k in (1, 2, 3, 4) for r in series_deviations(DomainSpec.fat(k), 50, 1000 + k)]
    worst = max([0.0, *(dev for *_, dev in rows)])
    return worst <= 1e-6, f"max relative deviation {worst:.3e}"


@_criterion(3, "thin-denominator-resolution", budget_s=60.0)
def criterion_3_thin_resolution():
    """Exactly one thin denominator variant survives both oracles."""
    good_series = good_pull = 0.0
    bad_series = bad_pull = 0.0
    for k in (2, 3, 4):
        spec = DomainSpec.thin(k)
        m = shear_iter(k)

        def workable(s, t):
            return (_abs(t) <= 0.7) & (_abs(s) <= 0.75 * _abs(t) ** k)

        pairs = _pairs(spec, 25, seed=2000 + k, keep=workable)
        sums, _, _ = series_row_sums(spec, *pair_invariants(*pairs.T), 1e-10)
        for (z1, z2, w1, w2), series in zip(pairs.tolist(), sums.tolist()):
            z, w = Point2C(z1, z2), Point2C(w1, w2)
            pull = (
                m.jacobian(z)
                * bergman_reference(DomainSpec.punctured_bidisc(), m.image(z), m.image(w)).value
                * m.jacobian(w).conjugate()
            )
            v_good = bergman_thin(k, z, w, variant="1-t").value
            v_bad = bergman_thin(k, z, w, variant="1-s").value
            good_series = max(good_series, abs(v_good - series) / abs(series))
            good_pull = max(good_pull, abs(v_good - pull) / abs(pull))
            bad_series = max(bad_series, abs(v_bad - series) / abs(series))
            bad_pull = max(bad_pull, abs(v_bad - pull) / abs(pull))
    ok = good_series <= 1e-6 and good_pull <= 1e-12 and bad_series > 1e-3 and bad_pull > 1e-3
    detail = (
        f"variant 1-t: series dev {good_series:.3e}, pullback dev {good_pull:.3e}; "
        f"variant 1-s fails with devs {bad_series:.3e} / {bad_pull:.3e}"
    )
    return ok, detail


@_criterion(4, "covering-rule", budget_s=10.0)
def criterion_4_covering_rule():
    """Branched-covering transformation residual <= 1e-9 for k = 2..8."""
    worst = 0.0
    for k in range(2, 9):
        worst = max([worst, *bell_residuals(k, 100, 3000 + k, 3500 + k)])
    return worst <= 1e-9, f"max relative residual {worst:.3e}"


@_criterion(5, "biholomorphic-invariance")
def criterion_5_biholo_invariance():
    """Shear invariance <= 1e-13; thin chain shears <= 1e-12."""
    classical = DomainSpec.classical()
    punctured = DomainSpec.punctured_bidisc()
    worst_shear = max([0.0, *biholo_residuals(shear(), classical, punctured, 1000, 4000)])
    worst_chain = 0.0
    for k in (1, 2, 3, 4):
        chain = biholo_residuals(shear(), DomainSpec.thin(k + 1), DomainSpec.thin(k), 200, 4100 + k)
        worst_chain = max([worst_chain, *chain])
    ok = worst_shear <= 1e-13 and worst_chain <= 1e-12
    return ok, f"shear residual {worst_shear:.3e}, chain residual {worst_chain:.3e}"


@_criterion(6, "kernel-zeros")
def criterion_6_kernel_zeros():
    """Fat witnesses vanish to 1e-12; thin kernels never vanish."""
    worst_witness = max(lqk_witness(k).numerator_abs for k in range(2, 51))
    hits = 0
    min_abs = math.inf
    for k in (1, 2, 3, 4):
        rep = thin_nonvanishing(k, 100_000, seed=5000 + k)
        hits += rep.zero_hits
        min_abs = min(min_abs, rep.min_abs_value)
    detail = f"max witness numerator {worst_witness:.3e}; thin zero hits {hits}, min |B| {min_abs:.3e}"
    return worst_witness <= 1e-12 and hits == 0, detail


_REPRODUCING_POINTS = (Point2C(0.1, 0.5), Point2C(0.2, 0.6), Point2C(0.15, 0.75))
_REPRODUCING_FUNCTIONS = (Monomial(0, 0), Monomial(1, 0), Monomial(0, 1))


@_criterion(7, "reproducing-property")
def criterion_7_reproducing():
    """Monte Carlo reproducing-property residual <= 2% at n = 1e7."""
    worst = 0.0
    per_domain_ok = True
    details = []
    for spec, seed in ((DomainSpec.fat(1), 6001), (DomainSpec.fat(2), 6002)):
        t_dom = time.perf_counter()
        reports = reproducing_residuals_batch(
            spec, _REPRODUCING_FUNCTIONS, _REPRODUCING_POINTS, 10_000_000, seed
        )
        dom_elapsed = time.perf_counter() - t_dom
        dom_worst = max(r.residual for row in reports for r in row)
        worst = max(worst, dom_worst)
        per_domain_ok = per_domain_ok and dom_elapsed < 120.0
        details.append(f"{spec}: max residual {dom_worst:.3e}")
    return worst <= 0.02 and per_domain_ok, "; ".join(details)


def _variance_safe_monomials(spec: DomainSpec, count: int) -> list[Monomial]:
    # Doubled admissibility keeps the norm estimator's variance finite.
    out = []
    for total in range(0, 12):
        for a in range(0, total + 1):
            for b in range(-total, total + 1):
                if a + abs(b) != total:
                    continue
                if is_admissible(spec, a, b) and is_admissible(spec, 2 * a, 2 * b):
                    out.append(Monomial(a, b))
                    if len(out) == count:
                        return out
    raise RuntimeError("not enough variance-safe monomials")


@_criterion(8, "basis-norms")
def criterion_8_basis_norms():
    """MC inner products match closed-form norms within 3 standard errors."""
    specs = (
        DomainSpec.classical(),
        DomainSpec.fat(2),
        DomainSpec.fat(3),
        DomainSpec.thin(2),
        DomainSpec.thin(3),
    )
    n = 200_000
    norm_fails = cross_fails = 0
    # (sigma, where) of the worst deviation, so a failure names its inputs.
    worst_norm = worst_cross = (0.0, "none")
    for si, spec in enumerate(specs):
        monomials = _variance_safe_monomials(spec, 10)
        cross = [
            (f, g)
            for i, f in enumerate(monomials)
            for g in monomials[i + 1 :]
            if is_admissible(spec, f.a + g.a, f.b + g.b)
        ][:10]
        estimates = inner_products_mc(
            spec, [(m, m) for m in monomials] + cross, n, seed=7000 + 100 * si
        )
        for m, est in zip(monomials, estimates):
            norm = monomial_norm_sq(spec, m.a, m.b)
            diff = abs(est.value - norm)
            # The constant monomial integrates exactly (zero variance), so
            # the 3-sigma band widens by floating-point roundoff alone.
            ok = diff <= 3.0 * est.std_error + 16.0 * np.finfo(float).eps * norm
            sigma = diff / est.std_error if est.std_error > 0.0 else 0.0
            if sigma > worst_norm[0]:
                worst_norm = (sigma, f"{spec}, {m.name}")
            norm_fails += not ok
        for (f, g), est in zip(cross, estimates[len(monomials) :]):
            sigma = abs(est.value) / est.std_error
            if sigma > worst_cross[0]:
                worst_cross = (sigma, f"{spec}, <{f.name}, {g.name}>")
            cross_fails += sigma > 3.0
    detail = (
        f"worst norm deviation {worst_norm[0]:.2f} sigma ({worst_norm[1]}), "
        f"worst cross term {worst_cross[0]:.2f} sigma ({worst_cross[1]})"
    )
    return norm_fails == 0 and cross_fails == 0, detail


@_criterion(9, "boundary-asymptotics")
def criterion_9_boundary_asymptotics():
    """Diagonal blow-up ratio quotients <= 10 on path tails."""
    specs = [DomainSpec.fat(k) for k in range(1, 6)] + [DomainSpec.thin(k) for k in range(2, 6)]
    kinds = (PathKind.ORIGIN, PathKind.TOP_FACE, PathKind.SMOOTH_LEVI_FLAT)
    worst = 0.0
    worst_at = ""
    for spec in specs:
        for kind in kinds:
            rep = diagonal_ratio(spec, boundary_paths(spec, kind))
            q = rep.tail_quotient(10)
            if q > worst:
                worst, worst_at = q, f"{spec}/{kind.value}"
    return worst <= 10.0, f"worst tail quotient {worst:.3f} at {worst_at}"


@_criterion(10, "ramadanov-convergence")
def criterion_10_ramadanov():
    """Fat kernels converge to the bidisc kernel as the exponent grows."""
    table = ramadanov_table(RAMADANOV_POINTS, 25)
    ok = True
    details = []
    for j, (p, k0) in enumerate(zip(table.points, table.k_start)):
        errors = [table.errors[i][j] for i in range(len(table.ks))]
        tail = errors[-10:]
        decreasing = all(b < a for a, b in zip(tail, tail[1:]))
        shrunk = errors[-1] < errors[k0 - 1] / 10.0
        ok = ok and decreasing and shrunk
        details.append(
            f"({p.z1.real:g},{p.z2.real:g}): e_{k0}={errors[k0 - 1]:.3e}, e_25={errors[-1]:.3e}"
        )
    return ok, "; ".join(details)


def run_all(numbers: Iterable[int] | None = None, log=None) -> list[CriterionResult]:
    """Run the selected criteria (all by default), logging one line each.

    An empty selection, or a number that names no declared criterion, raises ValueError.
    """
    wanted = set(numbers) if numbers is not None else None
    if wanted is not None and (not wanted or wanted - {number for number, _, _ in ALL_CRITERIA}):
        raise ValueError(f"criterion numbers must name declared criteria, got {sorted(wanted)}")
    results = []
    for number, name, fn in ALL_CRITERIA:
        if wanted is not None and number not in wanted:
            continue
        res = fn()
        if log is not None:
            status = "PASS" if res.passed else "FAIL"
            print(
                f"[{status}] criterion {res.number} ({res.name}): {res.details} "
                f"[{res.elapsed_s:.2f}s]",
                file=log,
            )
        results.append(res)
    return results
