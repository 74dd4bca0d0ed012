"""Generalized falling and Pochhammer functions and their case conventions."""
from fractions import Fraction as Q

import pytest
from hypothesis import given, strategies as st

from deltafrac import (
    GammaPolynomial,
    SpecialValuePole,
    as_polynomial,
    falling,
    falling_int,
    falling_poch_bridge_check,
    gamma_of,
    gen_binomial,
    index_law_check,
    poch_int,
    pochhammer,
)
from deltafrac import identities
from deltafrac.special import ZERO, POLE_VALUE, SpecialValue

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)
small_ints = st.integers(min_value=0, max_value=10)


class TestIntegerOrderProducts:
    def test_falling_int(self):
        assert falling_int(5, 2) == 20
        assert falling_int(Q(1, 2), 3) == Q(1, 2) * Q(-1, 2) * Q(-3, 2)
        assert falling_int(Q(7), 0) == 1

    def test_poch_int(self):
        assert poch_int(Q(1, 2), 3) == Q(15, 8)
        assert poch_int(3, 2) == 12
        assert poch_int(Q(-5, 2), 0) == 1
        assert poch_int(0, 4) == 0

    def test_gen_binomial(self):
        assert gen_binomial(Q(-1, 2), 2) == Q(3, 8)
        assert gen_binomial(5, 2) == 10
        assert gen_binomial(Q(1, 3), 0) == 1

    @given(rationals, small_ints)
    def test_poch_is_shifted_falling(self, x, k):
        assert poch_int(x, k) == falling_int(x + k - 1, k)


class TestFallingCases:
    def test_positive_integer_order_is_a_plain_product(self):
        assert falling(5, 2).as_polynomial() == 20
        # integer order applies even at negative integer bases
        assert falling(-1, 2).as_polynomial() == 2
        assert falling(Q(1, 2), 3).as_polynomial() == Q(3, 8)

    def test_zero_order(self):
        assert falling(Q(-7, 2), 0).as_polynomial() == 1
        assert falling(-4, 0).as_polynomial() == 1

    def test_gamma_ratio_case(self):
        v = falling(Q(1, 2), Q(1, 2))
        expected = as_polynomial(
            gamma_of(Q(3, 2)) / gamma_of(1)
        )
        assert v.as_polynomial() == expected

    def test_zero_case(self):
        # numerator finite, denominator Gamma pole
        assert falling(Q(1, 2), Q(5, 2)).kind == "zero"
        assert falling(Q(1, 2), Q(3, 2)).kind == "zero"

    def test_pole_case(self):
        assert falling(-1, Q(1, 2)).is_pole
        # double pole: both Gamma arguments land on nonpositive integers
        assert falling(-2, -1).is_pole
        assert falling(Q(-2), Q(1, 2)).is_pole

    def test_negative_integer_order(self):
        # y = -1 is not a positive integer, so the Gamma route decides
        v = falling(Q(5, 2), -1)
        assert v.as_polynomial() == Q(2, 7)


class TestPochhammerCases:
    def test_positive_integer_order(self):
        assert pochhammer(3, 2).as_polynomial() == 12
        assert pochhammer(Q(-1, 2), 2).as_polynomial() == Q(-1, 4)
        assert pochhammer(0, 3).as_polynomial() == 0

    def test_zero_order(self):
        assert pochhammer(-5, 0).as_polynomial() == 1

    def test_gamma_ratio_case(self):
        v = pochhammer(2, Q(-5, 2))
        assert v.render() == "-2*G(1/2)^1"

    def test_zero_case(self):
        assert pochhammer(-2, Q(1, 2)).kind == "zero"

    def test_pole_case(self):
        # x + y hits a nonpositive integer while x does not
        assert pochhammer(Q(3, 2), Q(-3, 2)).is_pole
        assert pochhammer(Q(1, 2), Q(-1, 2)).is_pole

    def test_negative_noninteger_order(self):
        # Gamma(-1/2)/Gamma(1/2) = -2, the factors cancel to a rational
        assert pochhammer(Q(1, 2), -1).as_polynomial() == -2


class TestSpecialValue:
    def test_monomial_access(self):
        with pytest.raises(SpecialValuePole):
            POLE_VALUE.as_polynomial()
        assert ZERO.value == GammaPolynomial()
        assert ZERO.as_polynomial() is ZERO.value
        assert SpecialValue.finite(0) is ZERO
        assert ZERO.as_polynomial().is_zero
        assert ZERO.render() == "0"
        assert POLE_VALUE.render() == "pole"

    def test_compare_special_double_pole(self):
        # both sides hit a pole: the matched pole class, not a failure
        rep = falling_poch_bridge_check(Q(1, 2), Q(-1, 2))
        assert rep.lhs == "pole" and rep.rhs == "pole"
        assert rep.status == "pole"
        assert not rep.is_failure


class TestBridge:
    """pochhammer(x, y) = falling(x + y - 1, y), including the edge cases."""

    @given(rationals, rationals)
    def test_bridge_everywhere(self, x, y):
        lhs = pochhammer(x, y)
        rhs = falling(x + y - 1, y)
        assert lhs.kind == rhs.kind
        if lhs.is_finite:
            assert (lhs.as_polynomial() - rhs.as_polynomial()).is_zero

    def test_bridge_check_exact(self):
        rep = falling_poch_bridge_check(Q(1, 2), Q(5, 2))
        assert rep.status == "exact"
        assert rep.identity == "bridge"

    def test_bridge_check_pole_point(self):
        rep = falling_poch_bridge_check(Q(1, 2), Q(-1, 2))
        assert rep.status == "pole"

    def test_bridge_check_single_pole_is_mismatch(self, monkeypatch):
        monkeypatch.setattr(identities, "pochhammer", lambda x, y: ZERO)
        rep = falling_poch_bridge_check(Q(1, 2), Q(-1, 2))
        assert rep.status == "mismatch" and rep.is_failure
        assert rep.lhs == "pole" and rep.rhs == "0"
        monkeypatch.setattr(identities, "pochhammer", lambda x, y: POLE_VALUE)
        rep = falling_poch_bridge_check(3, 2)
        assert rep.status == "mismatch"
        assert rep.lhs == "12" and rep.rhs == "pole"


class TestIndexLaw:
    def test_integer_point(self):
        rep = index_law_check(5, 1, 2)
        assert rep.status == "exact"
        assert rep.lhs == "60"

    def test_fractional_point(self):
        rep = index_law_check(Q(7, 2), Q(1, 2), Q(1, 3))
        assert rep.status == "exact"

    def test_excluded_point_names_the_factor(self):
        rep = index_law_check(Q(-1, 2), Q(1, 2), Q(1, 2))
        assert rep.status in ("exact", "domain_excluded")
        if rep.status == "domain_excluded":
            assert "pole" in rep.excluded_by

    @given(rationals, rationals, rationals)
    def test_never_mismatch(self, t, alpha, beta):
        rep = index_law_check(t, alpha, beta)
        assert rep.status in ("exact", "domain_excluded")


class TestBinomialPascal:
    @given(rationals, st.integers(min_value=1, max_value=10))
    def test_pascal_rule(self, alpha, n):
        assert gen_binomial(alpha, n) == gen_binomial(alpha - 1, n) + gen_binomial(
            alpha - 1, n - 1
        )

    @given(rationals, small_ints)
    def test_delta_rule_for_falling(self, t, _k):
        # falling(t+1, y) - falling(t, y) = y * falling(t, y-1) at integer y
        y = _k + 1
        lhs = falling_int(t + 1, y) - falling_int(t, y)
        assert lhs == y * falling_int(t, y - 1)
