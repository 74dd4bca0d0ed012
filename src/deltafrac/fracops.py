"""Discrete fractional sum and difference operators.

The central operator maps a window on {a, a+1, ...} to a window on
{a+nu, a+nu+1, ...} by convolving with the exact rational weights

    w_j = (nu)_j / j!

Positive orders are fractional sums, negative non-integer orders are
fractional differences; order zero and negative integers are excluded.
The convolution runs on integer columns: once per call, the weights are
written as int numerators over one reduced denominator, the window is
split by gridfn's column helper into one int column per Gamma factor
signature, and every output coefficient is one integer dot product
reduced by a single gcd.  Two classical difference constructions are
layered on top and agree on their common domain, and a nabla-kernel
evaluation completes the set: it takes its first summand from pochhammer
and steps to each later one by a rational ratio on ints, reducing the
sum once.  Only the first summand can hold a Gamma pole, so only it is
checked.
"""
from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .errors import DomainError, SpecialValuePole, WindowTooShort
from .exact import (
    GammaMonomial,
    GammaPolynomial,
    RationalLike,
    as_rational,
    gamma_of,
    is_nonpositive_integer,
    weighted_sum,
)
from .gridfn import GridFunction, _map_columns, delta_n
from .special import pochhammer

__all__ = [
    "frac_sum_diff",
    "mr_frac_diff",
    "ae_frac_diff",
    "nabla_poch_diff",
]


def _weight_numerators(nu: RationalLike, count: int) -> tuple[list[int], int]:
    """The weights (nu)_j / j!, j < count, as int numerators over one reduced denominator.

    With nu = p/q and L = count, weight j is prod_{i<j}(p + i q) * q^(L-1-j)
    * (L-1)!/j! over q^(L-1) (L-1)!; one gcd then leaves the lcm of the
    weights' own denominators.  nu must not be 0, -1, -2, ...
    """
    nu = as_rational(nu)
    if is_nonpositive_integer(nu):
        raise DomainError(f"nu must not be a nonpositive integer (got {nu})")
    p, q = nu.numerator, nu.denominator
    rising, tails = [1], [1]
    for j in range(1, count):
        rising.append(rising[-1] * (p + (j - 1) * q))
        tails.append(tails[-1] * q * (count - j))
    numerators = [r * t for r, t in zip(rising, reversed(tails))][:count]
    den = tails[-1]
    g = math.gcd(den, *numerators)
    return [n // g for n in numerators], den // g


def frac_sum_diff(f: GridFunction, nu: RationalLike) -> GridFunction:
    """Fractional sum (nu > 0) or difference (nu < 0, non-integer) of f.

    Output index N holds sum(w_{N-i} * f_i for i <= N); the output window
    starts at f.origin + nu and has the same length as the input.  Each
    factor signature of the window is convolved as an integer column with
    the weights' numerators, so every output coefficient is normalized once.
    """
    nu = as_rational(nu)
    length = len(f)
    numerators, den = _weight_numerators(nu, length)
    reversed_weights = numerators[::-1]
    values = _map_columns(
        f.values, length,
        lambda column, n: sum(map(mul, reversed_weights[length - 1 - n:], column)),
        scale=den,
    )
    return GridFunction(f.origin + nu, values)


def mr_frac_diff(f: GridFunction, mu: RationalLike) -> GridFunction:
    """Fractional difference of order mu in (0, 1), as the negative-order sum.

    The output lives on {a - mu, a - mu + 1, ...} with the input's length.
    """
    mu = as_rational(mu)
    if not (0 < mu < 1):
        raise DomainError(f"mu must lie strictly between 0 and 1 (got {mu})")
    return frac_sum_diff(f, -mu)


def ae_frac_diff(f: GridFunction, mu: RationalLike) -> GridFunction:
    """Fractional difference as an integer difference of a fractional sum.

    With n = ceil(mu), applies delta_n after a sum of order n - mu.  The
    output lives on {a + n - mu, ...} and is n points shorter than the
    input, so the window must contain at least n + 1 values.
    """
    mu = as_rational(mu)
    if mu <= 0 or mu.denominator == 1:
        raise DomainError(f"mu must be a positive non-integer (got {mu})")
    n = math.ceil(mu)
    if len(f) < n + 1:
        raise WindowTooShort(
            f"window of length {len(f)} is too short for order {mu} (needs {n + 1})"
        )
    return delta_n(frac_sum_diff(f, n - mu), n)


def nabla_poch_diff(
    a: RationalLike, p: RationalLike, alpha: RationalLike, t_index: int
) -> GammaPolynomial:
    """Nabla-kernel fractional difference of the rising power (s - a)_p.

    Evaluates, at the point a + t_index with t_index >= 1,

        (1/Gamma(-alpha)) * sum_{j=1..t_index} (t_index-j+1)_{-alpha-1} (j)_p

    The shift a cancels from the summand, so only t_index enters the value.
    Summand j = 1 is taken from pochhammer; with x = t_index - j + 1, each
    later summand is the one before times the rational ratio

        (x - 1)(j + p) / ((x - 2 - alpha) j),

    so the sum is summand 1 times a rational that is accumulated on ints
    over one running denominator and reduced once, then scaled once by
    1/Gamma(-alpha).  A pole in summand 1 raises SpecialValuePole rather
    than being silently dropped; no later summand can hold one.
    """
    as_rational(a)
    p = as_rational(p)
    alpha = as_rational(alpha)
    if alpha.denominator == 1:
        raise DomainError(f"alpha must not be an integer (got {alpha})")
    if t_index < 1:
        raise DomainError(f"t_index must be at least 1 (got {t_index})")
    kernel = pochhammer(t_index, -alpha - 1)
    sample = pochhammer(1, p)
    if kernel.is_pole or sample.is_pole:
        raise SpecialValuePole("summand at j=1 has an unresolved Gamma pole")
    # Only summand 1 can hold a pole.  alpha is not an integer, so the kernel
    # (x)_{-alpha-1} at a positive integer x never has one; (j)_p has one only
    # when j + p is 0, -1, -2, ..., and if j = 1 misses that set so does
    # every larger j.  So every ratio below is finite and nonzero.
    pn, pd = p.numerator, p.denominator
    an, ad = alpha.numerator, alpha.denominator
    # summand j over summand 1 is ratio / den, and the partial sum is total / den
    ratio = den = total = 1
    for j in range(1, t_index):
        x = t_index - j + 1
        step_den = ((x - 2) * ad - an) * j * pd
        ratio *= (x - 1) * (j * pd + pn) * ad
        total = total * step_den + ratio
        den *= step_den
    first = (kernel * sample).value
    return weighted_sum(((first, Fraction(total, den)),)) * (GammaMonomial(1) / gamma_of(-alpha))
