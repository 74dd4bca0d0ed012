"""Functions on shifted integer grids.

A grid is the set {origin, origin+1, origin+2, ...} for a rational origin.
A GridFunction is a finite window of exact values on consecutive grid
points, the common carrier for every discrete operator here.  Values are
Gamma polynomials so that sampled falling powers and rational tables live
in one representation.  The window operators run on integer columns.  A
window splits itself once, on first use, into one int column per factor
signature over the lcm of that signature's denominators, and keeps the
split for as long as it lives; every operator applied to the window reads
that split.  An operator maps the columns on ints (differences and the
one window product here, the convolution in fracops) and materializes its
output window once, making one reduced Fraction per nonzero coefficient
and adopting the term maps without a second pass of coercion.  The
product, _product, serves f * g and the Leibniz expansion alike: each of
its terms is a pair of column maps, a weight and an offset, so a term
multiplies its columns where they stand and lands its products offset
entries on.
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .errors import DomainError, WindowTooShort
from .exact import (
    GammaPolynomial,
    RationalLike,
    _check_index,
    _merge_factors,
    as_polynomial,
    as_rational,
    is_negative_integer,
)
from .special import falling

__all__ = [
    "GridFunction",
    "sample_falling_power",
    "delta_n",
]


@dataclass(frozen=True, eq=True)
class GridFunction:
    """A finite window of exact values on consecutive grid points."""

    origin: Fraction
    values: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "origin", as_rational(self.origin))
        # Windows are built from lists: tuple(<generator>) is resized as it fills,
        # and CPython keeps a released one on the free list of its final length,
        # a list that would then grow with every window a sweep makes.
        object.__setattr__(
            self, "values", tuple([as_polynomial(v) for v in self.values])
        )
        if not self.values:
            raise WindowTooShort("a grid function needs at least one value")

    __hash__ = None

    @classmethod
    def _adopt(cls, origin: Fraction, values: list) -> "GridFunction":
        """A window of values as given: a Fraction origin and a nonempty list of polynomials."""
        window = object.__new__(cls)
        object.__setattr__(window, "origin", origin)
        object.__setattr__(window, "values", tuple(values))
        return window

    @cached_property
    def _columns(self) -> dict:
        """{signature: (int numerators, den)}: each signature's coefficients over their lcm.

        The column of a signature holds its coefficient in every value, 0
        where the signature is absent.  It is computed on first use and kept
        with the window, so every operator on one window shares one split.
        """
        columns: dict[tuple, list] = defaultdict(lambda: [0] * len(self.values))
        for i, value in enumerate(self.values):
            for signature, coeff in value.terms().items():
                columns[signature][i] = coeff
        split = {}
        for signature, column in columns.items():
            den = math.lcm(*[q.denominator for q in column])
            split[signature] = (tuple([q.numerator * (den // q.denominator) for q in column]), den)
        return split

    def __len__(self) -> int:
        return len(self.values)

    def point(self, k: int) -> Fraction:
        return self.origin + k

    def points(self) -> list[Fraction]:
        return [self.origin + k for k in range(len(self.values))]

    def __mul__(self, other: "GridFunction") -> "GridFunction":
        if not isinstance(other, GridFunction):
            return NotImplemented
        if self.origin != other.origin:
            raise DomainError(
                "cannot multiply grid functions with different origins"
            )
        n = min(len(self.values), len(other.values))
        return _materialize(self.origin, _product([(self._columns, other._columns, 0, (1, 1))], n), n)

    def to_json_dict(self) -> dict:
        return {
            "origin": str(self.origin),
            "values": [v.render() for v in self.values],
        }


def sample_falling_power(a: RationalLike, mu: RationalLike, length: int) -> GridFunction:
    """Sample (s - a) falling mu on its natural grid {a+mu, a+mu+1, ...}.

    The value at window index i is falling(mu + i, mu), which is finite for
    every i >= 0 as long as mu is not a negative integer.
    """
    a = as_rational(a)
    mu = as_rational(mu)
    if is_negative_integer(mu):
        raise DomainError(f"mu must not be a negative integer (got {mu})")
    values = [falling(mu + i, mu).as_polynomial() for i in range(length)]
    return GridFunction(a + mu, values)


def _materialize(origin: Fraction, columns: dict, length: int) -> GridFunction:
    """The window on origin, origin+1, ... whose value n is sum_s numerators_s[n]/den_s * s.

    columns maps each signature s to (numerators_s, den_s), as an operator's
    int map leaves them, unreduced.  Each nonzero coefficient becomes one
    reduced Fraction and zeros are dropped, so the term maps are canonical
    and are adopted as they are.
    """
    terms: list[dict] = [{} for _ in range(length)]
    for signature, (numerators, den) in columns.items():
        for n, numerator in enumerate(numerators):
            if numerator:
                terms[n][signature] = Fraction(numerator, den)
    return GridFunction._adopt(origin, [GammaPolynomial._adopt(t) for t in terms])


def _product(terms: list, length: int) -> dict:
    """Sum over (left, right, offset, (weight_num, weight_den)) terms of weighted, shifted column products.

    Columns are int maps as _columns leaves them, each at least length -
    offset long for its term; longer ones are read no further.  Entry t of
    each left column times entry t of each right column, for t < length -
    offset, lands at output index offset + t on the merged signature, over
    den_l*den_r*weight_den and times weight_num.  The products on one
    signature are added over their lcm, unreduced.
    """
    products: dict[tuple, list] = defaultdict(list)
    for left, right, offset, (weight_num, weight_den) in terms:
        for sig_l, (xs, den_l) in left.items():
            for sig_r, (ys, den_r) in right.items():
                products[_merge_factors(sig_l, sig_r)].append((xs, ys, offset, weight_num, den_l * den_r * weight_den))
    columns = {}
    for signature, factors in products.items():
        den = math.lcm(*[d for *_, d in factors])
        column = [0] * length
        for xs, ys, offset, weight_num, d in factors:
            scale = den // d * weight_num
            for t, x, y in zip(range(offset, length), xs, ys):
                column[t] += scale * x * y
        columns[signature] = (column, den)
    return columns


def _difference(columns: dict, n: int) -> dict:
    """The n-th forward difference of every int column, over the same denominators.

    Entry k of a column becomes the signed binomial dot product
    sum_j (-1)^(n-j) C(n, j) numerators[k + j], so each column is n shorter.
    """
    signs = [(-1) ** (n - j) * math.comb(n, j) for j in range(n + 1)]
    return {
        signature: (
            [sum(map(mul, signs, numerators[k:k + n + 1])) for k in range(len(numerators) - n)],
            den,
        )
        for signature, (numerators, den) in columns.items()
    }


def delta_n(f: GridFunction, n: int) -> GridFunction:
    """n-th forward difference, as the binomial-weighted sum.

    The window shrinks by n; the origin stays put.  delta_n(f, 0) is f.
    Each output coefficient is one signed binomial dot product on the
    window's int columns.
    """
    _check_index("difference order", n)
    if n >= len(f):
        raise WindowTooShort(
            f"window of length {len(f)} cannot take a difference of order {n}"
        )
    if n == 0:
        return f
    return _materialize(f.origin, _difference(f._columns, n), len(f) - n)
