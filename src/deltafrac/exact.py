"""Exact scalar arithmetic: rationals and products of Gamma values.

Every scalar handled by this library is either an exact rational or a
finite sum of terms

    q * Gamma(b_1)**e_1 * ... * Gamma(b_r)**e_r

where q is rational, each base b_i is a rational in the open interval
(0, 1) and each exponent e_i is a nonzero integer.  Gamma at a positive
integer argument is folded into q as a factorial, so purely rational
quantities never carry Gamma factors.  One type, GammaPolynomial, holds
every such value.  Its constructor is the checked door for term maps from
outside: it checks that each signature is canonical, and
parse_gamma_polynomial passes each parsed term through it.  Every value the
library computes is built with GammaPolynomial._adopt instead, which takes a
term map of canonical signatures and nonzero reduced Fractions as it is.  A
single term, such as gamma_of's result, is a polynomial of one term and
reads as its coeff and factors.  Equality is tested by normalizing both
sides and comparing term maps, with distinct bases treated as independent.
The test is sound (a zero difference proves equality) but not complete:
reflection and Gauss multiplication relate Gamma at distinct bases, so
Gamma(1/6)*Gamma(5/6) and 2*Gamma(1/2)**2 compare unequal though they are
equal.  Every polynomial sum here goes through weighted_sum,
GammaPolynomial's + and - included, which adopts its folded map.  Window
sums and products run on the int columns in gridfn and fracops instead and
adopt their outputs; so does GammaPolynomial's own product, the quotient by
a term included.  as_polynomial is the one conversion of an int or Fraction
to a polynomial; the zero polynomial is GammaPolynomial().  poch_int is the
one single rising product x(x+1)...(x+k-1): gamma_of's shift,
special.falling_int, the integer-order Pochhammer symbol, the binomial
checks' left sides and form1's left scale are all written with it.  Every
hypergeometric run, terms k and k+1 differing by prod(u+k) z / prod(v+k),
is _term_ratios of its ups u, downs v and z, stepped as _ratio_run's
unreduced prefix products or _ratio_sum's sum of them, reduced once.  A
sum whose terms share their Gamma factors (form1's right side, the nabla
sum) scales one Gamma value by such a run.  Floats never decide equality:
they only grade a formal failure and give eval's float.
"""
from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator, Mapping, Union

from .errors import DomainError, GammaPole

__all__ = [
    "RationalLike",
    "parse_rational",
    "as_rational",
    "is_integer",
    "is_positive_integer",
    "is_nonpositive_integer",
    "is_negative_integer",
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


# A factor signature is the Gamma part of a term: base/exponent pairs,
# sorted by base, bases in (0, 1), exponents nonzero.  Signatures are the
# keys of GammaPolynomial term maps.


def _check_signature(signature: tuple) -> None:
    previous = 0
    for base, exponent in signature:
        if not isinstance(base, Fraction) or not (0 < base < 1):
            raise ValueError(f"Gamma base out of range (0, 1): {base}")
        if not isinstance(exponent, int) or exponent == 0:
            raise ValueError(f"bad Gamma exponent: {exponent}")
        if base <= previous:
            raise ValueError("factor bases must be strictly increasing")
        previous = base


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


def gamma_of(x: RationalLike) -> "GammaPolynomial":
    """Gamma(x) as a one-term polynomial.

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
        return GammaPolynomial._adopt({(): Fraction(math.factorial(int(x) - 1))})
    shift = math.floor(x)
    base = x - shift
    coeff = poch_int(base, shift) if shift >= 0 else 1 / poch_int(x, -shift)
    return GammaPolynomial._adopt({((base, 1),): coeff})


def _check_index(name: str, value: int) -> None:
    if value < 0:
        raise DomainError(f"{name} must be a nonnegative integer")


def poch_int(x: RationalLike, k: int) -> Fraction:
    """The plain product x(x+1)...(x+k-1) for integer k >= 0; a negative k raises DomainError."""
    _check_index("k", k)
    x = as_rational(x)
    product = Fraction(1)
    for j in range(k):
        product *= x + j
    return product


def _term_ratios(
    ups: list, downs: list, z: Fraction | int, count: int | None = None
) -> Iterator[tuple[int, int]]:
    """The int ratios prod(u+k) z / prod(v+k) for k = 0, 1, ..., count of them or without end.

    The ups u = p/q, the downs v = r/s and z are ints or Fractions.  With
    M = lcm(prod q, prod s), ratio k is z.numerator (M / prod q) prod(p + k q)
    over z.denominator (M / prod s) prod(r + k s).
    """
    q = math.prod([u.denominator for u in ups])
    s = math.prod([v.denominator for v in downs])
    scale = math.lcm(q, s)
    nums = itertools.repeat(z.numerator * (scale // q))
    dens = itertools.repeat(z.denominator * (scale // s))
    for u in ups:
        nums = map(mul, nums, itertools.count(u.numerator, u.denominator))
    for v in downs:
        dens = map(mul, dens, itertools.count(v.numerator, v.denominator))
    return itertools.islice(zip(nums, dens), count)


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
    """A polynomial as is; an int or Fraction as the constant polynomial; else TypeError."""
    if isinstance(value, GammaPolynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return GammaPolynomial._adopt({(): Fraction(value)} if value else {})
    raise TypeError(f"cannot interpret {type(value).__name__} as a Gamma polynomial")


class GammaPolynomial:
    """A finite sum of terms q * prod Gamma(b)^e, keyed by factor signature.

    The term map never stores zero coefficients; the zero polynomial is the
    empty map.  A value of at most one term reads as ``coeff`` and
    ``factors``.  Instances are immutable by convention: every operation
    returns a fresh object, so values can be freely shared.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple, Fraction] | None = None):
        """The checked constructor for term maps from outside; computed values skip it (_adopt)."""
        canonical: dict[tuple, Fraction] = {}
        if terms:
            for signature, coeff in terms.items():
                coeff = as_rational(coeff)
                if coeff != 0:
                    _check_signature(signature)
                    canonical[signature] = coeff
        self._terms = canonical

    @classmethod
    def _adopt(cls, terms: dict) -> "GammaPolynomial":
        """The polynomial whose term map is terms itself, unchecked.

        Its signatures must be canonical and its coefficients nonzero
        reduced Fractions.
        """
        poly = object.__new__(cls)
        poly._terms = terms
        return poly

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> dict:
        return dict(self._terms)

    def _single(self) -> tuple:
        """(coeff, factors) of a value of at most one term; zero is (0, ())."""
        if len(self._terms) > 1:
            raise ValueError(f"not a single term: {self.render()}")
        for factors, coeff in self._terms.items():
            return coeff, factors
        return Fraction(0), ()

    @property
    def coeff(self) -> Fraction:
        return self._single()[0]

    @property
    def factors(self) -> tuple:
        return self._single()[1]

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
        # merged signatures are canonical and stored Fractions multiply to
        # reduced Fractions; only a sum of products can cancel to zero
        return GammaPolynomial._adopt({s: c for s, c in product.items() if c != 0})

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GammaPolynomial":
        """self / other for a nonzero rational or a nonzero single term."""
        if isinstance(other, (int, Fraction)):
            return self * (1 / as_rational(other))
        if not isinstance(other, GammaPolynomial):
            return NotImplemented
        coeff, factors = other._single()
        if coeff == 0:
            raise ZeroDivisionError("division by the zero polynomial")
        return self * GammaPolynomial._adopt({tuple([(b, -e) for b, e in factors]): 1 / coeff})

    def __eq__(self, other) -> bool:
        try:
            other = as_polynomial(other)
        except TypeError:
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # mutable-dict backed; identity-level hashing is a bug

    def to_float(self) -> float | None:
        """Float value via log-Gamma, summed in signature order; None past a double.

        The fixed order makes the result deterministic for a given term map.
        It only grades a report's formal failure and gives eval's ``float``.
        """
        total = 0.0
        try:
            for signature in sorted(self._terms):
                total += float(self._terms[signature]) * _factors_float(signature)
        except OverflowError:
            return None
        return total if math.isfinite(total) else None

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


# Not a second type: perfbench/tracing.py looks this name up and wraps its
# operators.  ROADMAP item 1 frees the benchmark from it and removes it.
GammaMonomial = GammaPolynomial


def weighted_sum(pairs: Iterable[tuple[object, int | Fraction]]) -> GammaPolynomial:
    """Sum weight * value over (value, weight) pairs into one polynomial.

    Each value goes through as_polynomial and a weight must be an int or
    Fraction.  The values' signatures are canonical already, so the folded
    map, zeros dropped, is adopted unchecked.
    """
    folded: dict[tuple, Fraction] = {}
    for value, weight in pairs:
        if not isinstance(weight, (int, Fraction)):
            raise TypeError(f"expected an exact rational weight, got {type(weight).__name__}")
        for signature, coeff in as_polynomial(value)._terms.items():
            folded[signature] = folded.get(signature, 0) + coeff * weight
    return GammaPolynomial._adopt({s: c for s, c in folded.items() if c != 0})


def parse_gamma_polynomial(text: str) -> GammaPolynomial:
    """Parse the canonical rendering back into a polynomial."""
    terms = []
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
        terms.append((GammaPolynomial({_canonical_factors(factor_map): coeff}), 1))
    return weighted_sum(terms)
