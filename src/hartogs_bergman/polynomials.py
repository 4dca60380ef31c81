"""Exact integer-coefficient polynomials behind the fat-triangle kernel.

The closed-form kernel of the exponent-k fat triangle is a quadratic in
t = z2 * conj(w2) over a common denominator; its numerator is

    quad(s) t^2 + lin(s) t + s^k quad(s),

where s = z1 * conj(w1) and

    quad_coeff(k) = sum_{l=1}^{k-1} l (k-l) s^(l-1),
    lin_coeff(k)  = sum_{l=1}^{k}  (l^2 + (k-l)^2 s^k) s^(l-1).

The same coefficients arise, scaled by k, as coefficient sums of products
of the all-ones polynomials 1 + s + ... + s^l.  Both routes are built
literally here in arbitrary-precision integer arithmetic, and
``verify_coefficient_identities`` compares them coefficient by coefficient.
Floating point enters only when an ``IntPoly`` is called on a non-int (over
``IntPoly.float_coeffs``), never in the identity checks themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

__all__ = [
    "IntPoly",
    "NumeratorCoeffs",
    "ones_poly",
    "quad_coeff",
    "lin_coeff",
    "const_coeff",
    "quad_coeff_via_products",
    "lin_coeff_via_products",
    "const_coeff_via_products",
    "numerator_coeffs",
    "IdentityCheck",
    "IdentityReport",
    "verify_coefficient_identities",
]

_DOUBLE_EXACT = 2**53


@dataclass(frozen=True)
class IntPoly:
    """Dense univariate polynomial with arbitrary-precision int coefficients.

    coeffs[i] is the coefficient of s^i; trailing zeros are trimmed, so the
    zero polynomial has an empty tuple and degree -1.
    """

    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        c = tuple(int(x) for x in self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(tuple(out))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(tuple(c * other for c in self.coeffs))
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly(tuple(out))

    __rmul__ = __mul__

    def shift(self, m: int) -> "IntPoly":
        """Multiply by s^m."""
        if m < 0:
            raise ValueError("shift exponent must be nonnegative")
        return IntPoly((0,) * m + self.coeffs)

    def __call__(self, x):
        """Horner evaluation from the leading coefficient: exact for int arguments, else over
        ``float_coeffs``.  A constant polynomial returns its coefficient, not an array."""
        coeffs = self.coeffs if isinstance(x, int) else self._doubles
        if not coeffs:
            return 0 if isinstance(x, int) else 0.0
        acc = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            acc = acc * x + c
        return acc

    def float_coeffs(self) -> tuple[float, ...]:
        """Coefficients as doubles, rejecting any that would round."""
        for c in self.coeffs:
            if abs(c) >= _DOUBLE_EXACT:
                raise OverflowError(f"coefficient {c} does not fit a double exactly")
        return tuple(float(c) for c in self.coeffs)

    @cached_property
    def _doubles(self) -> tuple[float, ...]:
        return self.float_coeffs()

    def to_json(self) -> list:
        # Big values as decimal strings so non-bignum JSON readers stay exact.
        return [c if abs(c) < _DOUBLE_EXACT else str(c) for c in self.coeffs]

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(f"{c}")
            elif i == 1:
                parts.append(f"{c}*s")
            else:
                parts.append(f"{c}*s^{i}")
        return " + ".join(parts).replace("+ -", "- ")


def ones_poly(l: int) -> IntPoly:
    """The all-ones polynomial 1 + s + ... + s^l."""
    if l < 0:
        raise ValueError(f"index must be >= 0, got {l}")
    return IntPoly((1,) * (l + 1))


@lru_cache(maxsize=None)
def quad_coeff(k: int) -> IntPoly:
    """Coefficient of t^2 in the fat-kernel numerator; zero for k = 1."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return IntPoly(tuple(l * (k - l) for l in range(1, k)))


@lru_cache(maxsize=None)
def lin_coeff(k: int) -> IntPoly:
    """Coefficient of t in the fat-kernel numerator."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    out = [0] * (2 * k)
    for l in range(1, k + 1):
        out[l - 1] += l * l
        out[k + l - 1] += (k - l) * (k - l)
    return IntPoly(tuple(out))


def const_coeff(k: int) -> IntPoly:
    """Coefficient of t^0 in the fat-kernel numerator: s^k * quad_coeff(k)."""
    return quad_coeff(k).shift(k)


def _require_sum_range(k: int) -> None:
    if k < 2:
        raise ValueError(f"the coefficient sums are defined for k >= 2, got {k}")


def quad_coeff_via_products(k: int) -> IntPoly:
    """sum_{l=0}^{k-2} ones(l) * ones(k-2-l), the product route to quad_coeff."""
    _require_sum_range(k)
    acc = IntPoly()
    for l in range(k - 1):
        acc = acc + ones_poly(l) * ones_poly(k - 2 - l)
    return acc


def lin_coeff_via_products(k: int) -> IntPoly:
    """2 sum_{l=0}^{k-2} s^(k-1-l) ones(l)^2 + ones(k-1)^2."""
    _require_sum_range(k)
    acc = IntPoly()
    for l in range(k - 1):
        sq = ones_poly(l) * ones_poly(l)
        acc = acc + 2 * sq.shift(k - 1 - l)
    return acc + ones_poly(k - 1) * ones_poly(k - 1)


def const_coeff_via_products(k: int) -> IntPoly:
    """s^k times the product route for quad_coeff."""
    _require_sum_range(k)
    return quad_coeff_via_products(k).shift(k)


@dataclass(frozen=True)
class NumeratorCoeffs:
    """The k-scaled numerator coefficient triple (c2, c1, c0).

    c2 = k * quad_coeff(k), c1 = k * lin_coeff(k), c0 = k * s^k * quad_coeff(k).
    """

    k: int
    c2: IntPoly
    c1: IntPoly
    c0: IntPoly


def numerator_coeffs(k: int) -> NumeratorCoeffs:
    """Build the scaled triple and validate its structural invariants."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    c2 = k * quad_coeff(k)
    c1 = k * lin_coeff(k)
    c0 = k * const_coeff(k)
    if c0 != c2.shift(k):
        raise AssertionError("c0 must equal s^k * c2")
    if k >= 2:
        if c2.degree != k - 2:
            raise AssertionError(f"deg c2 = {c2.degree}, expected {k - 2}")
        # Palindromic: the l <-> k-l symmetry of l(k-l).
        if any(c2.coeff(i) != c2.coeff(k - 2 - i) for i in range(k - 1)):
            raise AssertionError("c2 must be palindromic")
        # Constructed degree of c1: the highest surviving term is the s^k-weighted
        # l = k-1 contribution, s^(2k-2) with coefficient k * 1.
        if c1.degree != 2 * k - 2 or c1.coeffs[-1] != k:
            raise AssertionError(f"deg c1 = {c1.degree}, leading {c1.coeffs[-1:]}")
    return NumeratorCoeffs(k, c2, c1, c0)


@dataclass(frozen=True)
class IdentityCheck:
    k: int
    ok: bool
    detail: str | None = None


@dataclass(frozen=True)
class IdentityReport:
    k_max: int
    checks: tuple[IdentityCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> tuple[IdentityCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


def _first_mismatch(name: str, lhs: IntPoly, rhs: IntPoly) -> str | None:
    if lhs == rhs:
        return None
    top = max(lhs.degree, rhs.degree)
    for i in range(top + 1):
        if lhs.coeff(i) != rhs.coeff(i):
            return f"{name}: coefficient of s^{i} differs, {lhs.coeff(i)} != {rhs.coeff(i)}"


def verify_coefficient_identities(k_max: int) -> IdentityReport:
    """Exact equality of the product-route sums and the direct coefficients.

    For each k in 2..k_max, checks in integer arithmetic that
      quad_coeff_via_products(k) == quad_coeff(k),
      lin_coeff_via_products(k)  == lin_coeff(k),
      const_coeff_via_products(k) == s^k * quad_coeff(k).
    """
    if k_max < 2:
        raise ValueError(f"k_max must be >= 2, got {k_max}")
    checks = []
    for k in range(2, k_max + 1):
        detail = (
            _first_mismatch("quad", quad_coeff_via_products(k), quad_coeff(k))
            or _first_mismatch("lin", lin_coeff_via_products(k), lin_coeff(k))
            or _first_mismatch("const", const_coeff_via_products(k), const_coeff(k))
        )
        checks.append(IdentityCheck(k, detail is None, detail))
    return IdentityReport(k_max, tuple(checks))
