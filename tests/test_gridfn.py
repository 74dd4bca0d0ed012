"""Grid functions on uniform unit-step windows."""
import math
import tracemalloc
from fractions import Fraction as Q

import pytest
from hypothesis import given, strategies as st

from deltafrac import (
    DomainError,
    GammaPolynomial,
    GridFunction,
    WindowTooShort,
    as_polynomial,
    delta_n,
    frac_sum_diff,
    gamma_of,
    parse_gamma_polynomial,
    parse_rational,
    sample_falling_power,
)
from deltafrac.exact import weighted_sum

# Three factor signatures; a zero coefficient leaves its signature out of a
# value, so a signature can hold at some indices of a window and not others.
_SIGNATURES = [(), ((Q(1, 2), 1),), ((Q(1, 3), 1), (Q(2, 3), -1))]
_COEFFS = st.one_of(st.just(0), st.fractions(min_value=-20, max_value=20, max_denominator=12))
_GAMMA_WINDOWS = st.lists(
    st.lists(_COEFFS, min_size=3, max_size=3).map(
        lambda coeffs: GammaPolynomial(dict(zip(_SIGNATURES, coeffs)))
    ),
    min_size=1,
    max_size=12,
)


def test_window_basics():
    f = GridFunction(Q(1, 2), [1, 2, 3])
    assert len(f) == 3
    assert f.point(0) == Q(1, 2)
    assert f.point(2) == Q(5, 2)
    assert f.points() == [Q(1, 2), Q(3, 2), Q(5, 2)]
    assert f.values[1] == as_polynomial(2)


def test_empty_window_rejected():
    with pytest.raises(WindowTooShort):
        GridFunction(0, [])


def test_values_coerce_to_polynomials():
    f = GridFunction(0, [Q(1, 2), gamma_of(Q(1, 2))])
    assert f.values[1].render() == "1*G(1/2)^1"


def test_pointwise_algebra():
    f = GridFunction(0, [1, 2, 3])
    g = GridFunction(0, [5, 7, 11])
    assert list((f * g).values) == [5, 14, 33]


def test_mismatched_origins_rejected():
    f = GridFunction(0, [1])
    g = GridFunction(Q(1, 2), [1])
    with pytest.raises(DomainError):
        _ = f * g


def test_a_window_multiplies_only_a_window():
    with pytest.raises(TypeError):
        _ = GridFunction(0, [1, 2]) * 2


def test_equality_and_serialization():
    f = GridFunction(Q(1, 2), [1, Q(3, 2)])
    doc = f.to_json_dict()
    assert doc == {"origin": "1/2", "values": ["1", "3/2"]}
    rebuilt = GridFunction(parse_rational(doc["origin"]), [parse_gamma_polynomial(v) for v in doc["values"]])
    assert rebuilt == f


def test_sample_falling_power():
    # mu = 1 on origin 0 gives the identity map on points 1, 2, 3
    f = sample_falling_power(0, 1, 3)
    assert f.points() == [1, 2, 3]
    assert list(f.values) == [1, 2, 3]
    # fractional power: t^{1/2} at t = 1/2 is Gamma(3/2)/Gamma(1)
    g = sample_falling_power(0, Q(1, 2), 2)
    assert g.origin == Q(1, 2)
    assert g.values[0].render() == "1/2*G(1/2)^1"


def test_sample_falling_power_rejects_negative_integer_exponent():
    with pytest.raises(DomainError):
        sample_falling_power(0, -2, 3)


class TestDeltaN:
    def test_first_difference(self):
        f = GridFunction(0, [Q(k * k) for k in range(5)])
        d = delta_n(f, 1)
        assert d.origin == 0 and len(d) == 4
        assert list(d.values) == [1, 3, 5, 7]

    def test_second_difference_of_squares_is_constant(self):
        f = GridFunction(0, [Q(k * k) for k in range(5)])
        d2 = delta_n(f, 2)
        assert list(d2.values) == [2, 2, 2]

    def test_zeroth_is_identity(self):
        f = GridFunction(0, [1, 5])
        assert delta_n(f, 0) == f

    def test_binomial_equals_iterated(self):
        f = GridFunction(0, [Q(3, 7), Q(-2), Q(5, 3), Q(0), Q(9, 4), Q(1, 6)])
        once = delta_n(delta_n(delta_n(f, 1), 1), 1)
        assert delta_n(f, 3) == once

    def test_window_too_short(self):
        f = GridFunction(0, [1, 2])
        with pytest.raises(WindowTooShort):
            delta_n(f, 2)

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError, match="difference order must be a nonnegative integer"):
            delta_n(GridFunction(0, [1, 2]), -1)

    @given(_GAMMA_WINDOWS, st.fractions(max_denominator=6))
    def test_every_order_matches_the_binomial_weighted_sum(self, values, origin):
        f = GridFunction(origin, values)
        for n in range(len(f)):
            expected = [
                weighted_sum((f.values[k + j], (-1) ** (n - j) * math.comb(n, j)) for j in range(n + 1))
                for k in range(len(f) - n)
            ]
            assert delta_n(f, n) == GridFunction(origin, expected)


def test_repeated_window_work_leaves_no_memory_behind():
    # tuple() of a generator over-allocates and then shrinks, and CPython
    # keeps the shrunk tuple on the free list of its final length, so every
    # run would park more memory there; windows are built from lists.
    f = GridFunction(Q(1, 3), [as_polynomial(gamma_of(Q(k, 5))) + k for k in range(1, 13)])

    def run():
        for n in range(1, 8):
            frac_sum_diff(f * f, Q(-1, 2))
            delta_n(f, n)
            sample_falling_power(0, Q(n, 3), 12)
            f.to_json_dict()

    tracemalloc.start()
    try:
        run()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(4):
            run()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 4096
