"""Functions on shifted integer grids.

A grid is the set {origin, origin+1, origin+2, ...} for a rational origin.
A GridFunction is a finite window of exact values on consecutive grid
points, the common carrier for every discrete operator here.  Values are
Gamma polynomials so that sampled falling powers and rational tables live
in one representation.  The window operators run on integer columns:
_map_columns writes each factor signature's coefficients once as int
numerators over their lcm, for delta_n here and the convolution in fracops.
"""
from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import DomainError, WindowTooShort
from .exact import (
    GammaPolynomial,
    RationalLike,
    as_polynomial,
    as_rational,
    is_negative_integer,
    parse_gamma_polynomial,
    parse_rational,
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

    def __len__(self) -> int:
        return len(self.values)

    def point(self, k: int) -> Fraction:
        return self.origin + k

    def points(self) -> list[Fraction]:
        return [self.origin + k for k in range(len(self.values))]

    def index_of(self, t: RationalLike) -> int:
        """Window index of the grid point t; t must lie on the grid."""
        offset = as_rational(t) - self.origin
        if offset.denominator != 1 or offset < 0 or offset >= len(self.values):
            raise DomainError(f"point {t} is not in this window")
        return int(offset)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        if not isinstance(other, GridFunction):
            return NotImplemented
        if self.origin != other.origin:
            raise DomainError("cannot add grid functions with different origins")
        n = min(len(self.values), len(other.values))
        return GridFunction(
            self.origin, [self.values[i] + other.values[i] for i in range(n)]
        )

    def __mul__(self, other) -> "GridFunction":
        if isinstance(other, GridFunction):
            if self.origin != other.origin:
                raise DomainError(
                    "cannot multiply grid functions with different origins"
                )
            n = min(len(self.values), len(other.values))
            return GridFunction(
                self.origin,
                [self.values[i] * other.values[i] for i in range(n)],
            )
        if isinstance(other, (int, Fraction)):
            return GridFunction(self.origin, [v * other for v in self.values])
        return NotImplemented

    __rmul__ = __mul__

    def to_json_dict(self) -> dict:
        return {
            "origin": str(self.origin),
            "values": [v.render() for v in self.values],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "GridFunction":
        return cls(
            parse_rational(doc["origin"]),
            [parse_gamma_polynomial(text) for text in doc["values"]],
        )


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


def _map_columns(values: tuple, length: int, row: Callable, scale: int = 1) -> list:
    """An integer linear map applied to each factor signature's column of a window.

    The column of signature s holds its coefficient in every value, 0 where s
    is absent, as int numerators over their lcm d.  Output n of s is
    row(numerators, n) / (d * scale), the one Fraction made per coefficient;
    output n of the map is the polynomial of those coefficients.
    """
    columns: dict[tuple, list] = defaultdict(lambda: [0] * len(values))
    for i, value in enumerate(values):
        for signature, coeff in value.terms().items():
            columns[signature][i] = coeff
    mapped = {}
    for signature, column in columns.items():
        den = math.lcm(*[q.denominator for q in column])
        numerators = [q.numerator * (den // q.denominator) for q in column]
        mapped[signature] = [Fraction(row(numerators, n), den * scale) for n in range(length)]
    return [GammaPolynomial({s: out[n] for s, out in mapped.items()}) for n in range(length)]


def delta_n(f: GridFunction, n: int) -> GridFunction:
    """n-th forward difference, as the binomial-weighted sum.

    The window shrinks by n; the origin stays put.  delta_n(f, 0) is f.
    Each output coefficient is one signed binomial dot product on ints.
    """
    if n < 0:
        raise DomainError("difference order must be a nonnegative integer")
    if n >= len(f):
        raise WindowTooShort(
            f"window of length {len(f)} cannot take a difference of order {n}"
        )
    if n == 0:
        return f
    signs = [(-1) ** (n - j) * math.comb(n, j) for j in range(n + 1)]
    values = _map_columns(
        f.values, len(f) - n, lambda column, k: sum(map(mul, signs, column[k:k + n + 1]))
    )
    return GridFunction(f.origin, values)
