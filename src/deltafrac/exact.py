"""Exact scalar arithmetic: rationals and products of Gamma values.

Every scalar handled by this library is either an exact rational or a
finite sum of terms

    q * Gamma(b_1)**e_1 * ... * Gamma(b_r)**e_r

where q is rational, each base b_i is a rational in the open interval
(0, 1) and each exponent e_i is a nonzero integer.  Gamma at a positive
integer argument is folded into q as a factorial, so purely rational
quantities never carry Gamma factors.  Equality is tested by normalizing
both sides and comparing term maps, with distinct bases treated as
independent.  The test is sound (a zero difference proves equality) but
not complete: reflection and Gauss multiplication relate Gamma at distinct
bases, so Gamma(1/6)*Gamma(5/6) and 2*Gamma(1/2)**2 compare unequal though
they are equal.  Every polynomial sum here goes through weighted_sum,
GammaPolynomial's + and - included.  Window sums and products run on the
int columns in gridfn and fracops instead, and build their outputs with
GammaPolynomial._adopt, which takes a term map of nonzero reduced
Fractions as it is.  as_polynomial is the one conversion of an int,
Fraction or GammaMonomial to a polynomial; the zero polynomial is
GammaPolynomial().  poch_int is the one single rising product
x(x+1)...(x+k-1): gamma_of's shift, special.falling_int, the integer-order
Pochhammer symbol and every lone rising product a verifier takes are all
written with it.  Every run of terms stepped by int ratios, in the
verifiers and the nabla kernel, is _ratio_run's unreduced prefix products
or _ratio_sum's sum of them, reduced once.  The float path exists only as
a cross-check on the exact one, never as a substitute.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

from .errors import GammaPole

__all__ = [
    "RationalLike",
    "parse_rational",
    "as_rational",
    "is_integer",
    "is_positive_integer",
    "is_nonpositive_integer",
    "is_negative_integer",
    "GammaMonomial",
    "GammaPolynomial",
    "as_polynomial",
    "gamma_of",
    "poch_int",
    "parse_gamma_polynomial",
    "weighted_sum",
]

RationalLike = Union[Fraction, int, str]

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")
_FACTOR_RE = re.compile(r"^G\((-?\d+(?:/\d+)?)\)\^(-?\d+)$")


def parse_rational(text: str) -> Fraction:
    """Parse a literal like ``3``, ``-5/2`` or ``0`` into an exact rational.

    The grammar is strict: an optional minus sign, decimal digits, and an
    optional ``/`` followed by a positive decimal denominator.  Anything
    else (floats, whitespace inside the number, a zero denominator) is
    rejected with ``ValueError``.
    """
    match = _RATIONAL_RE.match(text.strip())
    if match is None:
        raise ValueError(f"not a rational literal: {text!r}")
    numerator = int(match.group(1))
    denominator = int(match.group(2)) if match.group(2) is not None else 1
    if denominator == 0:
        raise ValueError(f"zero denominator in rational literal: {text!r}")
    return Fraction(numerator, denominator)


def as_rational(value: RationalLike) -> Fraction:
    """Coerce ints, Fractions and rational literals. Floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def is_integer(q: RationalLike) -> bool:
    return as_rational(q).denominator == 1


def is_positive_integer(q: RationalLike) -> bool:
    """True for 1, 2, 3, ..."""
    q = as_rational(q)
    return q.denominator == 1 and q >= 1


def is_nonpositive_integer(q: RationalLike) -> bool:
    """True for 0, -1, -2, ...  These are the poles of Gamma."""
    q = as_rational(q)
    return q.denominator == 1 and q <= 0


def is_negative_integer(q: RationalLike) -> bool:
    """True for -1, -2, -3, ..."""
    q = as_rational(q)
    return q.denominator == 1 and q <= -1


# A factor signature is the Gamma part of a monomial: base/exponent pairs,
# sorted by base, bases in (0, 1), exponents nonzero.  Signatures are the
# keys of GammaPolynomial term maps.


def _canonical_factors(factor_map: Mapping[Fraction, int]) -> tuple:
    return tuple(sorted((b, e) for b, e in factor_map.items() if e != 0))


def _merge_factors(left: tuple, right: tuple) -> tuple:
    merged: dict[Fraction, int] = dict(left)
    for base, exponent in right:
        merged[base] = merged.get(base, 0) + exponent
    return _canonical_factors(merged)


def _render_term(coeff: Fraction, factors: tuple) -> str:
    if not factors:
        return str(coeff)
    gammas = "*".join(f"G({base})^{exponent}" for base, exponent in factors)
    return f"{coeff}*{gammas}"


def _factors_float(factors: tuple) -> float:
    if not factors:
        return 1.0
    return math.exp(sum(e * math.lgamma(float(b)) for b, e in factors))


@dataclass(frozen=True)
class GammaMonomial:
    """A single term q * prod Gamma(b)^e in canonical form.

    The zero monomial is (0, ()).  A nonzero monomial with an empty factor
    tuple is a plain rational.
    """

    coeff: Fraction
    factors: tuple = ()

    def __post_init__(self) -> None:
        if not isinstance(self.coeff, Fraction):
            object.__setattr__(self, "coeff", as_rational(self.coeff))
        if self.coeff == 0 and self.factors:
            object.__setattr__(self, "factors", ())
            return
        previous = None
        for base, exponent in self.factors:
            if not isinstance(base, Fraction) or not (0 < base < 1):
                raise ValueError(f"Gamma base out of range (0, 1): {base}")
            if not isinstance(exponent, int) or exponent == 0:
                raise ValueError(f"bad Gamma exponent: {exponent}")
            if previous is not None and base <= previous:
                raise ValueError("factor bases must be strictly increasing")
            previous = base

    def __mul__(self, other) -> "GammaMonomial":
        if isinstance(other, GammaMonomial):
            coeff = self.coeff * other.coeff
            if coeff == 0:
                return GammaMonomial(Fraction(0))
            return GammaMonomial(coeff, _merge_factors(self.factors, other.factors))
        if isinstance(other, (int, Fraction)):
            coeff = self.coeff * as_rational(other)
            return GammaMonomial(coeff, self.factors if coeff else ())
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GammaMonomial":
        if isinstance(other, GammaMonomial):
            if other.coeff == 0:
                raise ZeroDivisionError("division by the zero monomial")
            inverse = GammaMonomial(
                1 / other.coeff, tuple([(b, -e) for b, e in other.factors])
            )
            return self * inverse
        if isinstance(other, (int, Fraction)):
            return GammaMonomial(self.coeff / as_rational(other), self.factors)
        return NotImplemented

    def render(self) -> str:
        return _render_term(self.coeff, self.factors)

    def __str__(self) -> str:
        return self.render()


def gamma_of(x: RationalLike) -> GammaMonomial:
    """Gamma(x) as a canonical monomial.

    Integer x >= 1 collapses to the rational (x-1)!.  Any other rational is
    shifted to its base b = x - floor(x) in (0, 1) through the recurrence
    Gamma(x+1) = x*Gamma(x), with coefficient (b)_floor(x) for x > 0 and
    1/(x)_(-floor(x)) for x < 0.
    Nonpositive integers raise GammaPole.
    """
    x = as_rational(x)
    if is_integer(x):
        if x <= 0:
            raise GammaPole(f"Gamma pole at {x}")
        return GammaMonomial(Fraction(math.factorial(int(x) - 1)))
    shift = math.floor(x)
    base = x - shift
    coeff = poch_int(base, shift) if shift >= 0 else 1 / poch_int(x, -shift)
    return GammaMonomial(coeff, ((base, 1),))


def poch_int(x: RationalLike, k: int) -> Fraction:
    """The plain product x(x+1)...(x+k-1) for integer k >= 0."""
    x = as_rational(x)
    product = Fraction(1)
    for j in range(k):
        product *= x + j
    return product


def _ratio_run(ratios: Iterable[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    """The prefix products of int ratios n_k/d_k as unreduced (num, den), from (1, 1) on."""
    num = den = 1
    yield num, den
    for n, d in ratios:
        num *= n
        den *= d
        yield num, den


def _ratio_sum(ratios: Iterable[tuple[int, int]]) -> Fraction:
    """The sum of _ratio_run's products, over one running denominator, reduced once."""
    # the product so far is term / den and the partial sum total / den
    term = den = total = 1
    for n, d in ratios:
        term *= n
        total = total * d + term
        den *= d
    return Fraction(total, den)


def as_polynomial(value) -> "GammaPolynomial":
    """A polynomial as is; an int, Fraction or GammaMonomial as a new one; else TypeError."""
    return value if isinstance(value, GammaPolynomial) else weighted_sum(((value, 1),))


class GammaPolynomial:
    """A finite sum of Gamma monomials, keyed by factor signature.

    The term map never stores zero coefficients; the zero polynomial is the
    empty map.  Instances are immutable by convention: every operation
    returns a fresh object, so values can be freely shared.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple, Fraction] | None = None):
        canonical: dict[tuple, Fraction] = {}
        if terms:
            for signature, coeff in terms.items():
                coeff = as_rational(coeff)
                if coeff != 0:
                    canonical[signature] = coeff
        self._terms = canonical

    @classmethod
    def _adopt(cls, terms: dict) -> "GammaPolynomial":
        """The polynomial whose term map is terms itself: nonzero reduced Fractions only."""
        poly = object.__new__(cls)
        poly._terms = terms
        return poly

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> dict:
        return dict(self._terms)

    def __add__(self, other) -> "GammaPolynomial":
        return weighted_sum(((self, 1), (other, 1)))

    __radd__ = __add__

    def __neg__(self) -> "GammaPolynomial":
        return weighted_sum(((self, -1),))

    def __sub__(self, other) -> "GammaPolynomial":
        return weighted_sum(((self, 1), (other, -1)))

    def __rsub__(self, other) -> "GammaPolynomial":
        return weighted_sum(((other, 1), (self, -1)))

    def __mul__(self, other) -> "GammaPolynomial":
        if isinstance(other, (int, Fraction)):
            return weighted_sum(((self, other),))
        other = as_polynomial(other)
        product: dict[tuple, Fraction] = {}
        for sig_a, coeff_a in self._terms.items():
            for sig_b, coeff_b in other._terms.items():
                signature = _merge_factors(sig_a, sig_b)
                product[signature] = product.get(signature, 0) + coeff_a * coeff_b
        return GammaPolynomial(product)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        try:
            other = as_polynomial(other)
        except TypeError:
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # mutable-dict backed; identity-level hashing is a bug

    def to_float(self) -> float:
        """Float value via log-Gamma, summed in signature order.

        Summation order is fixed by the canonical signature ordering so the
        result is deterministic for a given term map.
        """
        total = 0.0
        for signature in sorted(self._terms):
            total += float(self._terms[signature]) * _factors_float(signature)
        return total

    def render(self) -> str:
        """Canonical string: terms sorted by signature, joined by ' + '.

        Negative coefficients stay inline ('3 + -2*G(1/2)^1'), so the
        rendering is a reversible encoding of the term map.  The round trip
        through parse_gamma_polynomial holds in a library process only up to
        the interpreter's int-to-str digit limit, which the CLI lifts for one
        command and a caller can lift for itself.
        """
        if not self._terms:
            return "0"
        return " + ".join(
            _render_term(self._terms[s], s) for s in sorted(self._terms)
        )

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"GammaPolynomial({self.render()!r})"


def weighted_sum(pairs: Iterable[tuple[object, int | Fraction]]) -> GammaPolynomial:
    """Sum weight * value over (value, weight) pairs into one polynomial.

    A value is an int, Fraction, GammaMonomial or GammaPolynomial and a
    weight an int or Fraction; the polynomial is built once, at the end.
    """
    folded: dict[tuple, Fraction] = {}
    for value, weight in pairs:
        if isinstance(value, GammaPolynomial):
            items = value._terms.items()
        elif isinstance(value, GammaMonomial):
            items = ((value.factors, value.coeff),)
        elif isinstance(value, (int, Fraction)):
            items = (((), value),)
        else:
            raise TypeError(f"cannot interpret {type(value).__name__} as a Gamma polynomial")
        for signature, coeff in items:
            folded[signature] = folded.get(signature, 0) + coeff * weight
    return GammaPolynomial(folded)


def parse_gamma_polynomial(text: str) -> GammaPolynomial:
    """Parse the canonical rendering back into a polynomial."""
    monomials = []
    for chunk in text.strip().split(" + "):
        pieces = chunk.split("*")
        coeff = parse_rational(pieces[0])
        factor_map: dict[Fraction, int] = {}
        for piece in pieces[1:]:
            match = _FACTOR_RE.match(piece)
            if match is None:
                raise ValueError(f"bad Gamma factor: {piece!r}")
            base = parse_rational(match.group(1))
            factor_map[base] = factor_map.get(base, 0) + int(match.group(2))
        monomials.append((GammaMonomial(coeff, _canonical_factors(factor_map)), 1))
    return weighted_sum(monomials)
