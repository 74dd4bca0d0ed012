"""Generalized falling functions and Pochhammer symbols over the rationals.

Both functions extend the classical integer-order products to arbitrary
rational order through Gamma ratios.  For non-classical orders the value
can be a finite single Gamma term, an exact zero (the denominator Gamma pole
swallows the ratio) or an unresolved pole.  All three outcomes are first
class: SpecialValue keeps them distinct instead of collapsing poles into
exceptions, so identity checks can classify points honestly.  A
SpecialValue records an outcome and does no arithmetic; a caller that
combines values first checks that each is finite and then works on the
GammaPolynomial in ``value``.  This module holds the special functions only;
those checks are in identities.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import SpecialValuePole
from .exact import (
    GammaPolynomial,
    RationalLike,
    _check_index,
    as_polynomial,
    as_rational,
    gamma_of,
    is_integer,
    is_negative_integer,
    is_nonpositive_integer,
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
    """Outcome of a generalized factorial: finite single term, zero, or pole."""

    kind: str
    value: GammaPolynomial | None = None

    @classmethod
    def finite(cls, value: GammaPolynomial | int | Fraction) -> "SpecialValue":
        """A finite value from a polynomial, int or Fraction (through as_polynomial); zero gives ZERO."""
        value = as_polynomial(value)
        if value.is_zero:
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
        return self.value

    def render(self) -> str:
        if self.kind == "pole":
            return "pole"
        return self.value.render()

    def __str__(self) -> str:
        return self.render()


ZERO = SpecialValue("zero", GammaPolynomial())
POLE_VALUE = SpecialValue("pole")


def falling_int(x: RationalLike, k: int) -> Fraction:
    """The plain product x(x-1)...(x-k+1) = (-1)^k (-x)(-x+1)...(-x+k-1), integer k >= 0."""
    return (-1) ** k * poch_int(-as_rational(x), k)


def gen_binomial(alpha: RationalLike, n: int) -> Fraction:
    """Generalized binomial coefficient C(alpha, n) for integer n >= 0; a negative n raises DomainError."""
    _check_index("n", n)
    return falling_int(alpha, n) / math.factorial(n)


def falling(x: RationalLike, y: RationalLike) -> SpecialValue:
    """Generalized falling function of x with order y.

    Cases, in priority order:
      1. y an integer >= 0: the product x(x-1)...(x-y+1), the empty
         product 1 at y = 0, even when the Gamma-ratio form would be
         indeterminate.
      2. neither x nor x - y a negative integer: Gamma(x+1)/Gamma(x+1-y).
      3. x not a negative integer but x - y one: exact zero (the
         denominator Gamma pole swallows the ratio).
      Anything else is an unresolved pole.
    """
    x = as_rational(x)
    y = as_rational(y)
    if is_integer(y) and y >= 0:
        return SpecialValue.finite(falling_int(x, int(y)))
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
      1. y an integer >= 0: the product x(x+1)...(x+y-1), the empty
         product 1 at y = 0.
      2. neither x nor x + y a nonpositive integer: Gamma(x+y)/Gamma(x).
      3. x a nonpositive integer but x + y not: exact zero.
      Anything else is an unresolved pole.
    """
    x = as_rational(x)
    y = as_rational(y)
    if is_integer(y) and y >= 0:
        return SpecialValue.finite(poch_int(x, int(y)))
    top_pole = is_nonpositive_integer(x + y)
    bottom_pole = is_nonpositive_integer(x)
    if not bottom_pole and not top_pole:
        return SpecialValue.finite(gamma_of(x + y) / gamma_of(x))
    if bottom_pole and not top_pole:
        return ZERO
    return POLE_VALUE
