"""Fractional sum and difference operators."""
import math
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, strategies as st

from deltafrac import (
    DomainError,
    GammaMonomial,
    GammaPolynomial,
    GridFunction,
    SpecialValuePole,
    WindowTooShort,
    as_polynomial,
    frac_sum_diff,
    gamma_of,
    mr_frac_diff,
    nabla_poch_diff,
    poch_int,
    pochhammer,
)
from deltafrac import ae_frac_diff, delta_n, gen_binomial
from deltafrac.exact import weighted_sum
from deltafrac.fracops import _weight_numerators


def _weights(nu, count):
    """The convolution weights (nu)_j / j!, j < count, read as Fractions."""
    numerators, den = _weight_numerators(nu, count)
    return [Q(n, den) for n in numerators]


class TestConvWeights:
    def test_accepts_nonintegers_and_positive_integers(self):
        # the second weight is nu itself
        assert _weights(Q(1, 2), 2) == [1, Q(1, 2)]
        assert _weights(3, 2) == [1, 3]
        assert _weights("-5/2", 2) == [1, Q(-5, 2)]

    @pytest.mark.parametrize("bad", [0, -1, -7])
    def test_rejects_nonpositive_integers(self, bad):
        message = rf"nu must not be a nonpositive integer \(got {bad}\)"
        with pytest.raises(DomainError, match=message):
            _weights(bad, 3)

    def test_half_order_weights(self):
        # (nu)_j / j! for nu = 1/2: 1, 1/2, 3/8, 5/16
        assert _weights(Q(1, 2), 4) == [1, Q(1, 2), Q(3, 8), Q(5, 16)]

    def test_negative_order_weights(self):
        assert _weights(Q(-1, 2), 3) == [1, Q(-1, 2), Q(-1, 8)]

    @pytest.mark.parametrize("count", [-2, 0, 1, 5])
    def test_returns_count_weights_and_none_below_one(self, count):
        assert len(_weights("1/2", count)) == max(count, 0)

    @given(
        st.fractions(min_value=-6, max_value=6, max_denominator=5).filter(
            lambda q: not (q.denominator == 1 and q <= 0)
        ),
        st.integers(min_value=0, max_value=12),
    )
    def test_weights_match_binomials(self, nu, j):
        # w_j = C(nu + j - 1, j) = (-1)^j C(-nu, j)
        weights = _weights(nu, j + 1)
        assert weights[j] == (-1) ** j * gen_binomial(-nu, j)

    @given(
        st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(
            lambda q: not (q.denominator == 1 and q <= 0)
        ),
        st.integers(min_value=0, max_value=300),
    )
    @example(Q(1, 2), 300)
    @example(Q(-7, 3), 300)
    @example(Q(5), 300)
    def test_integer_weights_are_the_reduced_recurrence(self, nu, count):
        # the int numerators over one denominator, read as Fractions, are the
        # weights of the Fraction recurrence, over the lcm of their denominators
        expected = [Q(1)] if count > 0 else []
        for j in range(1, count):
            expected.append(expected[-1] * (nu + j - 1) / j)
        numerators, den = _weight_numerators(nu, count)
        assert [Q(n, den) for n in numerators] == expected
        assert den == math.lcm(*[w.denominator for w in expected])


SIGNATURES = [(), ((Q(1, 3), 1),), ((Q(1, 2), 1),)]
coefficients = st.one_of(
    st.just(Q(0)), st.fractions(min_value=-9, max_value=9, max_denominator=9)
)
non_integer_orders = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(
    lambda q: q.denominator != 1
)
orders = st.one_of(non_integer_orders, st.integers(1, 5).map(Q))


@st.composite
def signature_columns(draw):
    """One coefficient column of a common length L = 1..12 per drawn signature."""
    length = draw(st.integers(1, 12))
    signatures = draw(st.lists(st.sampled_from(SIGNATURES), min_size=1, max_size=3, unique=True))
    return {s: draw(st.lists(coefficients, min_size=length, max_size=length)) for s in signatures}


def termwise_convolution(columns, nu):
    """Term maps of sum_i w_{n-i} f_i, summed coefficient by coefficient in Fraction."""
    length = len(next(iter(columns.values())))
    weights = [Q(1)]
    for j in range(1, length):
        weights.append(weights[-1] * (nu + j - 1) / j)
    expected = []
    for n in range(length):
        terms = {}
        for signature, column in columns.items():
            total = sum((column[i] * weights[n - i] for i in range(n + 1)), Q(0))
            if total != 0:
                terms[signature] = total
        expected.append(terms)
    return expected


class TestFracSumDiff:
    @given(signature_columns(), orders)
    def test_matches_termwise_convolution(self, columns, nu):
        length = len(next(iter(columns.values())))
        values = [GammaPolynomial({s: c[i] for s, c in columns.items()}) for i in range(length)]
        out = frac_sum_diff(GridFunction(Q(1, 4), values), nu)
        assert out.origin == Q(1, 4) + nu
        assert [v.terms() for v in out.values] == termwise_convolution(columns, nu)

    def test_all_zero_window_gives_zero_polynomials(self):
        out = frac_sum_diff(GridFunction(0, [0, 0, 0]), Q(-1, 3))
        assert out.values == (GammaPolynomial(),) * 3

    def test_length_one_returns_the_value_at_the_shifted_origin(self):
        value = GammaPolynomial({(): Q(-7, 4), ((Q(1, 3), 1),): Q(2, 5)})
        out = frac_sum_diff(GridFunction(Q(1, 3), [value]), Q(5, 2))
        assert out.origin == Q(1, 3) + Q(5, 2)
        assert out.values == (value,)

    def test_cancelling_terms_are_dropped(self):
        # index 1 is 1 * 1/2 + (-1/2) * 1 = 0
        out = frac_sum_diff(GridFunction(0, [1, Q(-1, 2)]), Q(1, 2))
        assert out.values[1] == GammaPolynomial()
        assert out.values[1].terms() == {}

    def test_const_one_half_order(self):
        f = GridFunction(0, [1, 1, 1, 1])
        out = frac_sum_diff(f, Q(1, 2))
        assert out.origin == Q(1, 2)
        assert list(out.values) == [1, Q(3, 2), Q(15, 8), Q(35, 16)]

    def test_order_one_is_partial_sums(self):
        f = GridFunction(0, [Q(2), Q(3), Q(5)])
        out = frac_sum_diff(f, 1)
        assert out.origin == 1
        assert list(out.values) == [2, 5, 10]

    def test_accepts_order_like_values(self):
        f = GridFunction(0, [1, 1])
        assert frac_sum_diff(f, 1) == frac_sum_diff(f, Q(1))
        assert frac_sum_diff(f, "1/2") == frac_sum_diff(f, Q(1, 2))

    def test_rejects_nonpositive_integer_order(self):
        f = GridFunction(0, [1, 1])
        with pytest.raises(DomainError):
            frac_sum_diff(f, 0)

    def test_index_law_on_windows(self):
        # two quarter-sums compose to a half-sum on the shared window
        f = GridFunction(0, [Q(3, 7), Q(-2), Q(5, 3), Q(0), Q(9, 4)])
        once = frac_sum_diff(frac_sum_diff(f, Q(1, 4)), Q(1, 4))
        direct = frac_sum_diff(f, Q(1, 2))
        assert once.origin == direct.origin
        assert once == direct


class TestDirectAndSteppedFractionalDifference:
    def test_mr_const_one(self):
        f = GridFunction(0, [1, 1, 1])
        out = mr_frac_diff(f, Q(1, 2))
        assert out.origin == Q(-1, 2)
        assert list(out.values) == [1, Q(1, 2), Q(3, 8)]

    def test_mr_rejects_orders_outside_unit_interval(self):
        f = GridFunction(0, [1, 1])
        with pytest.raises(DomainError, match="strictly between 0 and 1"):
            mr_frac_diff(f, Q(3, 2))
        with pytest.raises(DomainError):
            mr_frac_diff(f, 1)

    def test_ae_const_one(self):
        f = GridFunction(0, [1, 1, 1])
        out = ae_frac_diff(f, Q(1, 2))
        assert out.origin == Q(1, 2)
        assert len(out) == 2
        assert out.values[0] == Q(1, 2)

    def test_ae_equals_mr_on_shared_domain(self):
        f = GridFunction(0, [Q(1, 3), Q(-5, 2), Q(7), Q(2, 9), Q(-1)])
        mu = Q(2, 3)
        stepped = ae_frac_diff(f, mu)
        direct = mr_frac_diff(f, mu)
        for k in range(len(stepped)):
            assert stepped.point(k) == direct.point(k + 1)
            assert stepped.values[k] == direct.values[k + 1]

    def test_ae_definition_unrolls(self):
        f = GridFunction(0, [Q(4), Q(1, 5), Q(-3), Q(2, 7), Q(6)])
        mu = Q(3, 2)
        direct = ae_frac_diff(f, mu)
        unrolled = delta_n(frac_sum_diff(f, 2 - mu), 2)
        assert direct == unrolled

    def test_ae_rejects_bad_orders(self):
        f = GridFunction(0, [1, 1, 1])
        with pytest.raises(DomainError):
            ae_frac_diff(f, 2)
        with pytest.raises(DomainError):
            ae_frac_diff(f, Q(-1, 2))

    def test_ae_window_too_short(self):
        f = GridFunction(0, [1, 1])
        with pytest.raises(WindowTooShort):
            ae_frac_diff(f, Q(5, 2))


@st.composite
def nabla_p_alpha(draw):
    """p non-integer, 0, a positive or a negative integer; alpha non-integer, often p + m."""
    p = draw(st.one_of(non_integer_orders, st.just(Q(0)), st.integers(1, 5).map(Q),
                       st.integers(-5, -1).map(Q)))
    if p.denominator != 1 and draw(st.booleans()):
        return p, p + draw(st.integers(0, 6))
    return p, draw(non_integer_orders)


def termwise_nabla(p, alpha, t_index):
    """The nabla sum with two pochhammer calls per summand, scaled by 1/Gamma(-alpha)."""
    pairs = []
    for j in range(1, t_index + 1):
        kernel = pochhammer(t_index - j + 1, -alpha - 1)
        sample = pochhammer(j, p)
        if kernel.is_pole or sample.is_pole:
            raise SpecialValuePole(f"summand at j={j} has an unresolved Gamma pole")
        pairs.append(((kernel * sample).value, 1))
    return weighted_sum(pairs) * (GammaMonomial(1) / gamma_of(-alpha))


class TestNablaPochDiff:
    def test_counterexample_value(self):
        v = nabla_poch_diff(0, Q(1, 2), Q(3, 2), 1)
        assert v.render() == "1/2*G(1/2)^1"
        assert v == gamma_of(Q(3, 2)) * 1  # same value as Gamma(3/2)

    def test_vanishing_tail(self):
        for t_index in (2, 3, 4, 5):
            assert nabla_poch_diff(0, Q(1, 2), Q(3, 2), t_index).is_zero

    def test_m2_boundary(self):
        assert nabla_poch_diff(0, Q(1, 2), Q(5, 2), 2).render() == "-1/2*G(1/2)^1"
        assert nabla_poch_diff(0, Q(1, 2), Q(5, 2), 3).is_zero

    def test_origin_does_not_matter(self):
        a_values = (0, Q(1, 4), -2)
        results = [nabla_poch_diff(a, Q(1, 3), Q(4, 3), 2) for a in a_values]
        assert results[0] == results[1] and results[1] == results[2]

    def test_rejects_integer_order(self):
        with pytest.raises(DomainError):
            nabla_poch_diff(0, Q(1, 2), 2, 1)

    def test_rejects_nonpositive_t_index(self):
        with pytest.raises(DomainError):
            nabla_poch_diff(0, Q(1, 2), Q(3, 2), 0)

    def test_pole_in_summand(self):
        # Only an integer alpha is rejected; an integer p is allowed.  A
        # negative integer p puts summand 1 on a pole: (1)_p = Gamma(1 + p),
        # and 1 + p is 0, -1, -2, ...
        for p in (-1, -3):
            with pytest.raises(SpecialValuePole, match="summand at j=1 has"):
                nabla_poch_diff(0, p, Q(1, 2), 4)

    @given(nabla_p_alpha(), st.integers(1, 20))
    @example((Q(0), Q(5, 3)), 7)
    @example((Q(2), Q(5, 3)), 7)
    def test_matches_termwise_sum(self, p_alpha, t_index):
        p, alpha = p_alpha
        try:
            expected = termwise_nabla(p, alpha, t_index)
        except SpecialValuePole as pole:
            with pytest.raises(SpecialValuePole) as raised:
                nabla_poch_diff(Q(1, 4), p, alpha, t_index)
            assert str(raised.value) == str(pole)
        else:
            assert nabla_poch_diff(Q(1, 4), p, alpha, t_index).terms() == expected.terms()

    @pytest.mark.parametrize(
        "p, alpha",
        [(Q(1, 3), Q(7, 3)), (Q(1, 2), Q(3, 2)), (Q(-7, 3), Q(5, 3)),
         (Q(-5, 4), Q(1, 4)), (2, Q(1, 2)), (0, Q(-3, 2))],
    )
    def test_closed_form_at_large_t(self, p, alpha):
        # Chu-Vandermonde: the sum is Gamma(1 + p) (1 + p - alpha)_{t-1} / (t-1)!,
        # which vanishes from t = 1 + m on when alpha - p = m is a nonnegative integer
        m = alpha - p
        for t_index in (1, 2, 3, 5, 17, 128, 500, 2000):
            closed = gamma_of(1 + p) * (
                poch_int(1 + p - alpha, t_index - 1) / math.factorial(t_index - 1)
            )
            value = nabla_poch_diff(0, p, alpha, t_index)
            assert value.terms() == as_polynomial(closed).terms()
            if m.denominator == 1 and 0 <= m <= t_index - 1:
                assert value.is_zero
