import pytest
from hypothesis import given
from hypothesis import strategies as st

from hartogs_bergman.polynomials import (
    IntPoly,
    const_coeff,
    const_coeff_via_products,
    lin_coeff,
    lin_coeff_via_products,
    numerator_coeffs,
    ones_poly,
    quad_coeff,
    quad_coeff_via_products,
    verify_coefficient_identities,
)


class TestIntPoly:
    def test_trims_and_degree(self):
        assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPoly(()).degree == -1
        assert IntPoly((0,)).is_zero

    def test_arithmetic_exact(self):
        p = IntPoly((1, 1))
        assert (p * p).coeffs == (1, 2, 1)
        assert (p + IntPoly((0, -1))).coeffs == (1,)
        assert (3 * p).coeffs == (3, 3)
        assert p.shift(2).coeffs == (0, 0, 1, 1)

    def test_eval_exact_for_ints(self):
        p = IntPoly((10**20, 0, 1))
        assert p(10**6) == 10**20 + 10**12

    def test_str_form(self):
        assert str(IntPoly((1, 4, 1))) == "1 + 4*s + 1*s^2"
        assert str(IntPoly(())) == "0"
        assert str(IntPoly((0, -2))) == "-2*s"

    def test_json_uses_strings_for_big_values(self):
        small, big = 3, 2**60
        assert IntPoly((small, big)).to_json() == [small, str(big)]

    def test_eval_rejects_inexact_doubles_for_non_ints(self):
        p = IntPoly((2**53, 1))
        assert p(2) == 2**53 + 2
        with pytest.raises(OverflowError):
            p(2.0)
        assert IntPoly((3, 1))(0.5) == 3.5

    def test_float_coeffs_guard(self):
        assert IntPoly((1, 2)).float_coeffs() == (1.0, 2.0)
        with pytest.raises(OverflowError):
            IntPoly((2**53,)).float_coeffs()


class TestOnesPoly:
    def test_examples(self):
        assert ones_poly(0).coeffs == (1,)
        assert ones_poly(2).coeffs == (1, 1, 1)
        assert ones_poly(5)(1) == 6

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ones_poly(-1)


class TestDirectCoefficients:
    def test_quad_small_cases(self):
        assert quad_coeff(1).is_zero
        assert quad_coeff(2).coeffs == (1,)
        assert quad_coeff(3).coeffs == (2, 2)

    def test_lin_small_cases(self):
        assert lin_coeff(1).coeffs == (1,)
        assert lin_coeff(2).coeffs == (1, 4, 1)

    @pytest.mark.parametrize("k", range(2, 51))
    def test_values_at_zero(self, k):
        assert quad_coeff(k)(0) == k - 1
        assert lin_coeff(k)(0) == 1

    @pytest.mark.parametrize("k", range(2, 51))
    def test_values_at_one_closed_forms(self, k):
        # Independent oracle: direct summation of the defining sums.
        assert quad_coeff(k)(1) == sum(l * (k - l) for l in range(1, k))
        assert quad_coeff(k)(1) == k * (k * k - 1) // 6
        direct = sum(l * l + (k - l) ** 2 for l in range(1, k + 1))
        assert lin_coeff(k)(1) == direct
        assert lin_coeff(k)(1) == k * (k + 1) * (2 * k + 1) // 6 + (k - 1) * k * (2 * k - 1) // 6

    @given(st.integers(2, 80))
    def test_quad_palindrome(self, k):
        p = quad_coeff(k)
        assert p.degree == k - 2
        assert all(p.coeff(i) == p.coeff(k - 2 - i) for i in range(k - 1))

    @given(st.integers(2, 80))
    def test_lin_constructed_degree(self, k):
        # The literal constructed degree: the s^k-weighted l = k-1 term tops
        # out at s^(2k-2) with coefficient 1.
        q = lin_coeff(k)
        assert q.degree == 2 * k - 2
        assert q.coeffs[-1] == 1


class TestProductRoute:
    def test_k2_expansions(self):
        assert quad_coeff_via_products(2).coeffs == (1,)  # ones(0) * ones(0)
        # 2 s ones(0)^2 + ones(1)^2 = 2s + (1 + s)^2 = 1 + 4s + s^2
        assert lin_coeff_via_products(2).coeffs == (1, 4, 1)
        assert const_coeff_via_products(2).coeffs == (0, 0, 1)

    def test_k3_quad_expansion(self):
        # ones(0) ones(1) + ones(1) ones(0) = 2 + 2s
        assert quad_coeff_via_products(3).coeffs == (2, 2)

    def test_rejects_k1(self):
        for fn in (quad_coeff_via_products, lin_coeff_via_products, const_coeff_via_products):
            with pytest.raises(ValueError):
                fn(1)


class TestIdentities:
    def test_k2_both_routes_agree(self):
        assert quad_coeff_via_products(2) == quad_coeff(2)
        assert lin_coeff_via_products(2) == lin_coeff(2)

    def test_all_identities_to_50(self):
        report = verify_coefficient_identities(50)
        assert report.all_pass
        assert len(report.checks) == 49
        assert report.failures == ()

    def test_report_localizes_mismatch(self):
        from hartogs_bergman.polynomials import _first_mismatch

        msg = _first_mismatch("quad", IntPoly((1, 2)), IntPoly((1, 3)))
        assert "s^1" in msg and "2 != 3" in msg

    def test_rejects_small_kmax(self):
        with pytest.raises(ValueError):
            verify_coefficient_identities(1)


class TestNumeratorCoeffs:
    @pytest.mark.parametrize("k", list(range(1, 51)))
    def test_triple_invariants(self, k):
        triple = numerator_coeffs(k)
        assert triple.c2 == k * quad_coeff(k)
        assert triple.c1 == k * lin_coeff(k)
        assert triple.c0 == triple.c2.shift(k)
        assert triple.c0 == k * const_coeff(k)
