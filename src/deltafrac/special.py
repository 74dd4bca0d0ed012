"""Generalized falling functions and Pochhammer symbols over the rationals.

Both functions extend the classical integer-order products to arbitrary
rational order through Gamma ratios.  For non-classical orders the value
can be a finite Gamma monomial, an exact zero (the denominator Gamma pole
swallows the ratio) or an unresolved pole.  All three outcomes are first
class: SpecialValue keeps them distinct instead of collapsing poles into
exceptions, so identity checks can classify points honestly.  This module
holds the special functions only; those checks are in identities.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import SpecialValuePole
from .exact import (
    GammaMonomial,
    GammaPolynomial,
    RationalLike,
    as_polynomial,
    as_rational,
    gamma_of,
    is_negative_integer,
    is_nonpositive_integer,
    is_positive_integer,
    poch_int,
)

__all__ = [
    "SpecialValue",
    "ZERO",
    "POLE_VALUE",
    "falling",
    "pochhammer",
    "falling_int",
    "gen_binomial",
]


@dataclass(frozen=True)
class SpecialValue:
    """Outcome of a generalized factorial: finite monomial, zero, or pole."""

    kind: str
    value: GammaMonomial | None = None

    @classmethod
    def finite(cls, value: GammaMonomial | RationalLike) -> "SpecialValue":
        """A finite value from a monomial or a rational; zero gives ZERO."""
        if not isinstance(value, GammaMonomial):
            value = GammaMonomial(value)
        if value.coeff == 0:
            return ZERO
        return cls("finite", value)

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    @property
    def is_pole(self) -> bool:
        return self.kind == "pole"

    def as_polynomial(self) -> GammaPolynomial:
        if self.kind == "pole":
            raise SpecialValuePole("cannot convert a pole to a polynomial")
        return as_polynomial(self.value)

    def __mul__(self, other) -> "SpecialValue":
        if not isinstance(other, SpecialValue):
            return NotImplemented
        if self.is_pole or other.is_pole:
            return POLE_VALUE
        return SpecialValue.finite(self.value * other.value)

    def render(self) -> str:
        if self.kind == "pole":
            return "pole"
        return self.value.render()

    def __str__(self) -> str:
        return self.render()


ZERO = SpecialValue("zero", GammaMonomial(Fraction(0)))
POLE_VALUE = SpecialValue("pole")


def falling_int(x: RationalLike, k: int) -> Fraction:
    """The plain product x(x-1)...(x-k+1) = (-1)^k (-x)(-x+1)...(-x+k-1), integer k >= 0."""
    return (-1) ** k * poch_int(-as_rational(x), k)


def gen_binomial(alpha: RationalLike, n: int) -> Fraction:
    """Generalized binomial coefficient C(alpha, n) for integer n >= 0."""
    if n < 0:
        raise ValueError("lower index must be a nonnegative integer")
    return falling_int(alpha, n) / math.factorial(n)


def falling(x: RationalLike, y: RationalLike) -> SpecialValue:
    """Generalized falling function of x with order y.

    Cases, in priority order:
      1. y a positive integer: the product x(x-1)...(x-y+1), even when the
         Gamma-ratio form would be indeterminate.
      2. y = 0: one.
      3. neither x nor x - y a negative integer: Gamma(x+1)/Gamma(x+1-y).
      4. x not a negative integer but x - y one: exact zero (the
         denominator Gamma pole swallows the ratio).
      Anything else is an unresolved pole.
    """
    x = as_rational(x)
    y = as_rational(y)
    if is_positive_integer(y):
        return SpecialValue.finite(falling_int(x, int(y)))
    if y == 0:
        return SpecialValue.finite(1)
    top_pole = is_negative_integer(x)
    bottom_pole = is_negative_integer(x - y)
    if not top_pole and not bottom_pole:
        return SpecialValue.finite(gamma_of(x + 1) / gamma_of(x + 1 - y))
    if not top_pole and bottom_pole:
        return ZERO
    return POLE_VALUE


def pochhammer(x: RationalLike, y: RationalLike) -> SpecialValue:
    """Generalized Pochhammer symbol (x)_y.

    Cases, in priority order:
      1. y a positive integer: the product x(x+1)...(x+y-1).
      2. y = 0: one.
      3. neither x nor x + y a nonpositive integer: Gamma(x+y)/Gamma(x).
      4. x a nonpositive integer but x + y not: exact zero.
      Anything else is an unresolved pole.
    """
    x = as_rational(x)
    y = as_rational(y)
    if is_positive_integer(y):
        return SpecialValue.finite(poch_int(x, int(y)))
    if y == 0:
        return SpecialValue.finite(1)
    top_pole = is_nonpositive_integer(x + y)
    bottom_pole = is_nonpositive_integer(x)
    if not bottom_pole and not top_pole:
        return SpecialValue.finite(gamma_of(x + y) / gamma_of(x))
    if bottom_pole and not top_pole:
        return ZERO
    return POLE_VALUE
