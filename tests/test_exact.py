"""Canonical Gamma-polynomial arithmetic and the exact zero test."""
import math
import sys
from fractions import Fraction as Q
from itertools import islice

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import deltafrac
from deltafrac import exact
from deltafrac import (
    GammaPolynomial,
    GammaPole,
    as_polynomial,
    as_rational,
    gamma_of,
    parse_gamma_polynomial,
    parse_rational,
)
from deltafrac.exact import (
    _ratio_run,
    _ratio_sum,
    _term_ratios,
    is_integer,
    is_negative_integer,
    is_nonpositive_integer,
    is_positive_integer,
    weighted_sum,
)
from deltafrac.sweeps import default_suite, run_sweep

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)


class TestRationalLiterals:
    def test_parse_basic(self):
        assert parse_rational("1/2") == Q(1, 2)
        assert parse_rational("-5/2") == Q(-5, 2)
        assert parse_rational("7") == Q(7)
        assert parse_rational("0") == Q(0)
        assert parse_rational("  3/4 ") == Q(3, 4)

    def test_parse_normalizes(self):
        assert parse_rational("4/6") == Q(2, 3)
        assert parse_rational("-0") == Q(0)

    @pytest.mark.parametrize("bad", ["1.5", "1/-2", "", "a", "1/0", "1 / 2", "+3"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_as_rational_rejects_floats(self):
        with pytest.raises(TypeError):
            as_rational(0.5)

    @given(rationals)
    def test_render_parse_round_trip(self, q):
        assert parse_rational(str(q)) == q

    def test_predicates(self):
        assert is_integer(Q(4)) and not is_integer(Q(1, 2))
        assert is_positive_integer(1) and not is_positive_integer(0)
        assert is_nonpositive_integer(0) and is_nonpositive_integer(-3)
        assert not is_nonpositive_integer(Q(-1, 2))
        assert is_negative_integer(-1) and not is_negative_integer(0)


class TestGammaOf:
    def test_positive_integers_fold_to_factorials(self):
        assert gamma_of(1).render() == "1"
        assert gamma_of(4).render() == "6"
        assert gamma_of(10) == GammaPolynomial({(): 362880})
        assert (gamma_of(10).coeff, gamma_of(10).factors) == (Q(362880), ())

    def test_half_integer_shifts(self):
        assert gamma_of(Q(1, 2)).render() == "1*G(1/2)^1"
        assert gamma_of(Q(3, 2)).render() == "1/2*G(1/2)^1"
        assert gamma_of(Q(7, 2)).render() == "15/8*G(1/2)^1"
        assert gamma_of(Q(-1, 2)).render() == "-2*G(1/2)^1"
        assert gamma_of(Q(-7, 2)).render() == "16/105*G(1/2)^1"

    def test_pole(self):
        for x in (0, -1, -5):
            with pytest.raises(GammaPole):
                gamma_of(x)

    @given(rationals.filter(lambda q: q.denominator != 1))
    def test_shift_recurrence(self, x):
        # Gamma(x+1) = x * Gamma(x)
        lhs = as_polynomial(gamma_of(x + 1))
        rhs = x * as_polynomial(gamma_of(x))
        assert lhs == rhs

    @given(rationals.filter(lambda q: q.denominator != 1))
    def test_base_lands_in_unit_interval(self, x):
        ((base, exponent),) = gamma_of(x).factors
        assert 0 < base < 1 and exponent == 1

    def test_float_agrees_with_math_gamma(self):
        import math

        for x in (Q(1, 2), Q(5, 3), Q(-3, 4), Q(13, 6)):
            assert as_polynomial(gamma_of(x)).to_float() == pytest.approx(
                math.gamma(float(x)), rel=1e-12
            )


# signed and zero numerators, signed nonzero denominators
int_ratios = st.lists(
    st.tuples(st.integers(min_value=-50, max_value=50), st.integers(min_value=-50, max_value=50).filter(bool)),
    max_size=12,
)


class TestRatioStepper:
    def test_no_ratios_is_the_empty_product(self):
        assert list(_ratio_run([])) == [(1, 1)]
        assert _ratio_sum([]) == 1

    @given(int_ratios)
    def test_each_run_pair_is_its_prefix_product(self, ratios):
        run = list(_ratio_run(ratios))
        assert len(run) == len(ratios) + 1
        for k, (num, den) in enumerate(run):
            expected = Q(1)
            for n, d in ratios[:k]:
                expected *= Q(n, d)
            assert Q(num, den) == expected

    @given(int_ratios)
    def test_the_sum_is_the_sum_of_the_prefix_products(self, ratios):
        products, expected = Q(1), Q(1)
        for n, d in ratios:
            products *= Q(n, d)
            expected += products
        total = _ratio_sum(ratios)
        assert type(total) is Q and total == expected


# hypergeometric parameters: rationals (integers and negatives among them) or plain ints
parameters = st.lists(st.one_of(rationals, st.integers(min_value=-6, max_value=6)), max_size=3)


class TestTermRatios:
    @given(parameters, parameters, st.one_of(rationals, st.integers(-3, 3)), st.integers(0, 8))
    @example([], [], 0, 0)
    @example([Q(1, 2), -3], [Q(-5, 3)], 0, 5)
    def test_the_run_is_the_termwise_product(self, ups, downs, z, count):
        # a lower parameter that reaches 0 within count ratios makes no term ratio
        assume(not any(-count < v <= 0 and Q(v).denominator == 1 for v in downs))
        products = [Q(1)]
        for k in range(count):
            products.append(products[-1] * math.prod(u + k for u in ups) * z / math.prod(v + k for v in downs))
        run = list(_ratio_run(_term_ratios(ups, downs, z, count)))
        assert all(type(x) is int for pair in run for x in pair)
        assert [Q(num, den) for num, den in run] == products

    @given(parameters, parameters, st.one_of(rationals, st.integers(-3, 3)), st.integers(0, 8))
    def test_an_endless_run_reads_as_a_counted_one(self, ups, downs, z, count):
        assert list(islice(_term_ratios(ups, downs, z), count)) == list(_term_ratios(ups, downs, z, count))


class TestGammaMonomial:
    """A single term is a GammaPolynomial of one term; GammaMonomial only names it."""

    def test_canonical_validation(self):
        with pytest.raises(ValueError, match=r"Gamma base out of range \(0, 1\): 3/2"):
            GammaPolynomial({((Q(3, 2), 1),): 1})
        with pytest.raises(ValueError, match="bad Gamma exponent: 0"):
            GammaPolynomial({((Q(1, 2), 0),): 1})
        with pytest.raises(ValueError, match="factor bases must be strictly increasing"):
            GammaPolynomial({((Q(1, 2), 1), (Q(1, 3), 1)): 1})
        # every term is checked, not only the first
        with pytest.raises(ValueError, match="strictly increasing"):
            GammaPolynomial({(): 1, ((Q(1, 2), 1), (Q(1, 2), 1)): 1})
        with pytest.raises(ValueError, match="out of range"):
            GammaPolynomial({((0.5, 1),): 1})  # a float base is not a rational

    def test_zero_clears_factors(self):
        zero = GammaPolynomial({((Q(1, 2), 1),): 0})
        assert (zero.coeff, zero.factors) == (0, ()) and zero.is_zero
        assert (gamma_of(Q(1, 2)) * 0).factors == ()

    def test_mul_merges_and_cancels(self):
        g = gamma_of(Q(1, 2))
        assert (g * g).render() == "1*G(1/2)^2"
        inverse = as_polynomial(1) / g
        assert (g * inverse).render() == "1"

    def test_division_by_zero_monomial(self):
        with pytest.raises(ZeroDivisionError):
            as_polynomial(1) / GammaPolynomial()
        with pytest.raises(ZeroDivisionError):
            gamma_of(Q(1, 2)) / 0
        with pytest.raises(ZeroDivisionError):
            gamma_of(Q(1, 2)) / Q(0)

    def test_coeff_and_factors_of_zero_one_and_two_terms(self):
        zero = GammaPolynomial()
        assert zero.coeff == 0 and zero.factors == ()
        rational = as_polynomial(Q(-3, 4))
        assert (rational.coeff, rational.factors) == (Q(-3, 4), ())
        g = gamma_of(Q(7, 3))
        assert (g.coeff, g.factors) == (Q(4, 9), ((Q(1, 3), 1),))
        assert type(g.coeff) is Q
        two = g + 1
        with pytest.raises(ValueError, match="not a single term"):
            two.coeff
        with pytest.raises(ValueError, match="not a single term"):
            two.factors

    def test_division_by_a_rational_and_by_a_term(self):
        g = gamma_of(Q(1, 2)) * 3 + gamma_of(Q(1, 3))
        assert (g / 2).render() == "1/2*G(1/3)^1 + 3/2*G(1/2)^1"
        assert g / Q(2, 3) == g * Q(3, 2)
        quotient = g / gamma_of(Q(3, 2))  # Gamma(3/2) = Gamma(1/2) / 2
        assert quotient.render() == "6 + 2*G(1/3)^1*G(1/2)^-1"
        assert quotient * gamma_of(Q(3, 2)) == g
        assert (gamma_of(Q(5, 2)) / gamma_of(Q(1, 2))).render() == "3/4"
        assert as_polynomial(7) / as_polynomial(Q(7, 2)) == 2

    def test_division_by_two_terms_raises(self):
        with pytest.raises(ValueError, match="not a single term"):
            gamma_of(Q(1, 2)) / (gamma_of(Q(1, 2)) + 1)
        with pytest.raises(TypeError):
            gamma_of(Q(1, 2)) / 0.5
        with pytest.raises(TypeError):
            gamma_of(Q(1, 2)) / "x"

    def test_the_old_name_is_the_polynomial(self):
        # the benchmark's tracer looks the name up and wraps these operators
        assert exact.GammaMonomial is exact.GammaPolynomial
        assert {"__mul__", "__rmul__", "__truediv__"} <= set(vars(GammaPolynomial))
        assert "GammaMonomial" not in deltafrac.__all__
        assert "GammaMonomial" not in exact.__all__


gamma_arguments = rationals.filter(lambda q: not is_nonpositive_integer(q))
gamma_monomials = st.builds(
    lambda q, x: gamma_of(x) * q,
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    gamma_arguments,
)
gamma_polys = st.lists(gamma_monomials, min_size=0, max_size=4).map(
    lambda ms: sum((as_polynomial(m) for m in ms), GammaPolynomial())
)

# A coefficient past int-to-str's default limit of 4300 digits, drawn as the
# digit counts and low parts of its numerator (4000-6000 digits) and
# denominator (up to 6000), so a falsifying example prints in a few digits.
huge_coefficients = st.tuples(
    st.sampled_from([1, -1]),
    st.integers(min_value=4000, max_value=6000),
    st.integers(min_value=1, max_value=6000),
    st.integers(min_value=0, max_value=10**40),
    st.integers(min_value=0, max_value=10**40),
)


def huge_coefficient(sign, digits, den_digits, low, den_low):
    return Q(sign * (10 ** (digits - 1) + low), 10 ** (den_digits - 1) + den_low)


class TestGammaPolynomial:
    def test_zero_is_empty(self):
        assert GammaPolynomial().is_zero
        assert as_polynomial(0).is_zero
        assert as_polynomial(gamma_of(Q(1, 2))) - as_polynomial(gamma_of(Q(1, 2))) == 0

    def test_like_terms_combine(self):
        p = as_polynomial(gamma_of(Q(1, 2))) + as_polynomial(gamma_of(Q(3, 2))) * 2
        # Gamma(3/2) = (1/2) Gamma(1/2), so the sum collapses to one term
        assert p.render() == "2*G(1/2)^1"

    def test_cancellation_across_routes(self):
        # (2)_{-5/2} (1)_{1/2} + (1)_{-5/2} (2)_{1/2} = 0
        lhs = as_polynomial(gamma_of(Q(-1, 2))) * as_polynomial(gamma_of(Q(3, 2)))
        rhs = as_polynomial(gamma_of(Q(-3, 2))) * as_polynomial(gamma_of(Q(5, 2)))
        assert (lhs + rhs).is_zero

    def test_zero_float_is_a_float(self):
        assert type(GammaPolynomial().to_float()) is float

    def test_float_past_a_double_is_none(self):
        # 10**400 overflows float(); 10**308 * Gamma(1/4) sums to inf
        assert as_polynomial(Q(10**400)).to_float() is None
        assert (Q(10**308) * as_polynomial(gamma_of(Q(1, 4)))).to_float() is None

    def test_render_examples(self):
        assert GammaPolynomial().render() == "0"
        p = as_polynomial(3) + as_polynomial(gamma_of(Q(1, 2))) * -2
        assert p.render() == "3 + -2*G(1/2)^1"

    @given(gamma_polys)
    def test_render_parse_round_trip(self, p):
        assert parse_gamma_polynomial(p.render()) == p

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(huge_coefficients, gamma_arguments), min_size=1, max_size=2))
    def test_round_trip_past_the_digit_limit(self, terms):
        # one or two Gamma signatures with coefficients past the default limit,
        # which the test lifts for itself and restores afterwards
        found = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            p = sum((as_polynomial(gamma_of(x) * huge_coefficient(*c)) for c, x in terms), GammaPolynomial())
            assert parse_gamma_polynomial(p.render()) == p
        finally:
            sys.set_int_max_str_digits(found)

    def test_parse_rejects_a_base_outside_the_unit_interval(self):
        with pytest.raises(ValueError, match="base out of range"):
            parse_gamma_polynomial("1*G(3/2)^1")
        # each term is checked before the fold, so invalid terms that cancel are refused too
        with pytest.raises(ValueError, match="base out of range"):
            parse_gamma_polynomial("1*G(3/2)^1 + -1*G(3/2)^1")

    def test_parse_rejects_a_factor_without_an_exponent(self):
        with pytest.raises(ValueError, match="bad Gamma factor: 'G\\(1/2\\)'"):
            parse_gamma_polynomial("1*G(1/2)")

    @given(gamma_polys, gamma_polys)
    def test_addition_commutes(self, p, q):
        assert p + q == q + p

    @given(gamma_polys, gamma_polys, gamma_polys)
    def test_distributes(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(gamma_polys, gamma_polys)
    def test_multiplication_commutes(self, p, q):
        assert p * q == q * p

    @given(gamma_polys, gamma_polys, gamma_monomials.filter(lambda m: not m.is_zero))
    @example(  # the two cross terms G(1/2) G(1/3) cancel
        gamma_of(Q(1, 2)) + gamma_of(Q(1, 3)), gamma_of(Q(1, 2)) - gamma_of(Q(1, 3)), gamma_of(Q(1, 2))
    )
    def test_products_and_quotients_are_canonical(self, p, q, m):
        # the product adopts its term map unchecked; built through the checking
        # constructor from the same merged terms, it must be the same value
        def checked_product(left, right):
            terms = {}
            for sig_a, coeff_a in left.terms().items():
                for sig_b, coeff_b in right.terms().items():
                    signature = exact._merge_factors(sig_a, sig_b)
                    terms[signature] = terms.get(signature, 0) + coeff_a * coeff_b
            return GammaPolynomial(terms)

        inverse = GammaPolynomial({tuple((b, -e) for b, e in m.factors): 1 / m.coeff})
        for value, reference in ((p * q, checked_product(p, q)), (p / m, checked_product(p, inverse))):
            for signature, coeff in value.terms().items():
                exact._check_signature(signature)
                assert type(coeff) is Q and coeff != 0
            assert value.terms() == reference.terms()

    @given(gamma_polys)
    def test_additive_inverse(self, p):
        assert (p + (-p)).is_zero

    @given(gamma_polys, gamma_polys)
    def test_to_float_additive(self, p, q):
        total = (p + q).to_float()
        assert total == pytest.approx(p.to_float() + q.to_float(), abs=1e-9, rel=1e-9)

    def test_scalar_coercions(self):
        p = as_polynomial(gamma_of(Q(1, 2)))
        assert 2 * p == p + p
        assert p - Q(0) == p
        assert (0 * p).is_zero

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(GammaPolynomial())

    def test_to_float_value(self):
        half = as_polynomial(gamma_of(Q(3, 2)))
        assert half.to_float() == pytest.approx(0.8862269254527580, rel=1e-12)


def _term_map(value) -> dict:
    if isinstance(value, GammaPolynomial):
        return value.terms()
    return {(): Q(value)}


summands = st.one_of(
    st.integers(min_value=-5, max_value=5), rationals, gamma_monomials, gamma_polys
)
weights = st.one_of(st.integers(min_value=-3, max_value=3), rationals)


class TestWeightedSum:
    def test_empty_is_zero(self):
        assert weighted_sum([]).is_zero
        assert weighted_sum(iter(())).terms() == {}

    def test_cancelled_terms_are_dropped(self):
        half = gamma_of(Q(1, 2))
        total = weighted_sum([(half, 2), (gamma_of(Q(3, 2)), -4), (Q(1, 3), 3)])
        assert total.terms() == {(): Q(1)}
        assert weighted_sum([(half, 1), (as_polynomial(half), -1)]).terms() == {}

    def test_accepts_int_fraction_monomial_and_polynomial(self):
        half = gamma_of(Q(1, 2))
        total = weighted_sum(
            [(3, Q(1, 2)), (Q(1, 4), 2), (half, 1), (as_polynomial(half), Q(1, 2))]
        )
        assert total.render() == "2 + 3/2*G(1/2)^1"
        assert all(type(c) is Q for c in weighted_sum([(3, 2)]).terms().values())
        # as_polynomial is the one-pair case; a polynomial comes back as itself
        assert as_polynomial(half).render() == "1*G(1/2)^1"
        assert as_polynomial(total) is total
        with pytest.raises(TypeError, match="cannot interpret float"):
            as_polynomial(0.5)

    def test_rejects_other_values(self):
        with pytest.raises(TypeError, match="cannot interpret float"):
            weighted_sum([(0.5, 1)])
        with pytest.raises(TypeError, match="cannot interpret str"):
            as_polynomial("1/2")
        # the folded map is adopted unchecked, so a float weight must not reach a coefficient
        with pytest.raises(TypeError, match="exact rational weight, got float"):
            weighted_sum([(gamma_of(Q(1, 2)), 0.5)])

    @given(st.lists(st.tuples(summands, weights), max_size=6))
    def test_matches_a_term_map_fold(self, pairs):
        expected: dict = {}
        for value, weight in pairs:
            for signature, coeff in _term_map(value).items():
                expected[signature] = expected.get(signature, Q(0)) + coeff * weight
        expected = {s: c for s, c in expected.items() if c != 0}
        total = weighted_sum(pairs).terms()
        assert total == expected
        # the sum is adopted unchecked: its terms must be canonical as they stand
        for signature, coeff in total.items():
            exact._check_signature(signature)
            assert type(coeff) is Q and coeff != 0


def test_a_default_suite_pass_checks_no_signature(monkeypatch):
    """Every value the library computes is adopted; only term maps from outside are checked."""
    calls = []
    check = exact._check_signature
    monkeypatch.setattr(exact, "_check_signature", lambda signature: calls.append(signature) or check(signature))
    for config in default_suite():
        for _ in run_sweep(config):
            pass
    assert calls == []
    # the door itself still checks
    GammaPolynomial({((Q(1, 2), 1),): 1})
    assert calls == [((Q(1, 2), 1),)]
