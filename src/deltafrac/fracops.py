"""Discrete fractional sum and difference operators.

The central operator maps a window on {a, a+1, ...} to a window on
{a+nu, a+nu+1, ...} by convolving with the exact rational weights

    w_j = (nu)_j / j!

Positive orders are fractional sums, negative non-integer orders are
fractional differences; order zero and negative integers are excluded.
The convolution runs on integer columns.  The weights are int numerators
over one reduced denominator, and each (nu, L) table is computed once and
cached.  The window's split into one int column per Gamma factor
signature is computed once and kept on the window (gridfn), so every
operator on one window reads the same columns.  Every output coefficient
is an integer dot product, reduced by a single gcd when the output window
is materialized.  From 32 points on, the weights are packed eight to an
int (Kronecker substitution), so one big-int dot product makes eight
outputs, the same ints the plain dot products make.  Two classical
difference constructions are layered on top and agree on their common
domain; the stepped one takes its integer difference on the
convolution's unreduced columns, so it too materializes once.  A
nabla-kernel evaluation completes the set: its kernel over Gamma(-alpha)
is one exact._ratio_run, its sum of the summands' ratios to the first
one exact._ratio_sum, and its one Gamma value, (1)_p, comes from
pochhammer; only (1)_p can hold a pole, so only it is checked.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .errors import DomainError, SpecialValuePole, WindowTooShort
from .exact import (
    GammaPolynomial,
    RationalLike,
    _ratio_run,
    _ratio_sum,
    _term_ratios,
    as_rational,
    is_nonpositive_integer,
)
from .gridfn import GridFunction, _difference, _materialize
from .special import pochhammer

__all__ = [
    "frac_sum_diff",
    "mr_frac_diff",
    "ae_frac_diff",
    "nabla_poch_diff",
]

# windows of _PACKED_FROM points or more convolve _BLOCK outputs per big-int dot product
_PACKED_FROM = 32
_BLOCK = 8


@lru_cache(maxsize=128)
def _weight_numerators(nu: RationalLike, count: int) -> tuple[tuple[int, ...], int]:
    """The weights (nu)_j / j!, j < count, as int numerators over one reduced denominator.

    With nu = p/q and L = count, weight j is prod_{i<j}(p + i q) * q^(L-1-j)
    * (L-1)!/j! over q^(L-1) (L-1)!; one gcd then leaves the lcm of the
    weights' own denominators.  nu must not be 0, -1, -2, ...  Tables are
    cached per (nu, count) and returned as tuples, so a caller cannot alter
    a table that later calls share.
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
    return tuple([n // g for n in numerators]), den // g


def _convolve(columns: dict, nu: Fraction, length: int) -> dict:
    """Every int column convolved with the weights (nu)_j / j!, unreduced.

    Entry n of a column becomes sum_{i<=n} w_{n-i} numerators[i], over the
    column's denominator times the weights' one, for n < length.  A column
    may be longer than length: the outputs are those of its first length
    entries, so a caller convolves a prefix without cutting a copy of it.
    Windows shorter than _PACKED_FROM points take one int dot product per
    entry (_plain_dots); longer ones take _packed_dots, which makes the same
    ints _BLOCK at a time.  Its table costs a fixed share of each call, so
    it pays only on long windows.  Measured on a shared 2-vCPU container
    under CPython 3.11, the two paths broke even at about 24 points on
    rational windows and about 16 on three-column Gamma windows; at 32
    points the packed path took 0.66 and 0.59 of the plain path's time, at
    16 points on rational windows 1.4 times it.  32 sits above both
    crossovers, so the packed path runs only where it is the faster one.
    """
    weights, weight_den = _weight_numerators(nu, length)
    dots = (_packed_dots if length >= _PACKED_FROM else _plain_dots)(columns, weights, length)
    return {signature: (dots[signature], den * weight_den) for signature, (_, den) in columns.items()}


def _plain_dots(columns: dict, weights: tuple, length: int) -> dict:
    """{signature: outputs}, output n of a column being one int dot product with the weights."""
    reversed_weights = weights[::-1]
    return {
        signature: [sum(map(mul, reversed_weights[length - 1 - n:], numerators)) for n in range(length)]
        for signature, (numerators, _) in columns.items()
    }


def _packed_dots(columns: dict, weights: tuple, length: int) -> dict:
    """_plain_dots' outputs, _BLOCK of them from each big-int dot product.

    Kronecker substitution: slot t of the packed int P_m holds the weight
    w_{m+t-(_BLOCK-1)}, 0 outside 0..length-1, so the dot product of a
    column with P_{n+_BLOCK-1-i}, i = 0..n+_BLOCK-1, holds output n+t in
    slot t.  A slot is ceil((wbits + cbits + length.bit_length() + 1) / 8)
    bytes, wbits and cbits being the bit lengths of the largest weight and
    of the largest entry of any column.  An output sums at most length
    products, so it is below 2^(8 size - 1) in magnitude, and adding a bias
    of 2^(8 size - 1) to every slot leaves each slot a nonnegative field
    that carries nothing into the next; the slots are read back from the
    sum's bytes.  On a column longer than length the last block also reads
    entries from length on, but only into slots of outputs past length,
    which are not read back; cbits covers those entries too, so no slot
    spills.  The table is built on every call and not cached: at 256
    points it holds about 170 KB, and kept tables would add that to the
    peak memory for every (nu, length) they cover.
    """
    cbits = max([abs(x).bit_length() for numerators, _ in columns.values() for x in numerators], default=0)
    wbits = max([abs(w).bit_length() for w in weights])
    size = (wbits + cbits + length.bit_length() + 8) // 8
    shift = 8 * size
    half = 1 << (shift - 1)
    bias = int.from_bytes(half.to_bytes(size, "little") * _BLOCK, "little")
    # packed[k] is P_{length+_BLOCK-2-k}, so block n pairs numerators[i] with
    # packed[length-1-n+i].  From P_{length+_BLOCK-1} = 0 down, P_{m-1} drops
    # P_m's top slot, moves the rest up one slot and takes w_{m-_BLOCK} into
    # slot 0.
    padded = [0] * (_BLOCK - 1) + list(weights) + [0] * _BLOCK
    top = shift * (_BLOCK - 1)
    p, packed = 0, []
    for m in range(length + _BLOCK - 1, 0, -1):
        p = ((p - (padded[m + _BLOCK - 1] << top)) << shift) + padded[m - 1]
        packed.append(p)
    dots = {}
    for signature, (numerators, _) in columns.items():
        sums = b"".join([
            (sum(map(mul, packed[length - 1 - n:], numerators)) + bias).to_bytes(_BLOCK * size, "little")
            for n in range(0, length, _BLOCK)
        ])
        dots[signature] = [int.from_bytes(sums[k:k + size], "little") - half for k in range(0, length * size, size)]
    return dots


def frac_sum_diff(f: GridFunction, nu: RationalLike) -> GridFunction:
    """Fractional sum (nu > 0) or difference (nu < 0, non-integer) of f.

    Output index N holds sum(w_{N-i} * f_i for i <= N); the output window
    starts at f.origin + nu and has the same length as the input.  Each
    factor signature's int column of the window is convolved with the
    weights' numerators, so every output coefficient is normalized once.
    """
    nu = as_rational(nu)
    return _materialize(f.origin + nu, _convolve(f._columns, nu, len(f)), len(f))


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

    With n = ceil(mu), takes the n-th difference of a sum of order n - mu.
    The difference runs on the convolution's unreduced int columns, so the
    output is materialized once.  It lives on {a + n - mu, ...} and is n
    points shorter than the input, so the window must contain at least
    n + 1 values.
    """
    mu = as_rational(mu)
    if mu <= 0 or mu.denominator == 1:
        raise DomainError(f"mu must be a positive non-integer (got {mu})")
    n = math.ceil(mu)
    if len(f) < n + 1:
        raise WindowTooShort(
            f"window of length {len(f)} is too short for order {mu} (needs {n + 1})"
        )
    summed = _convolve(f._columns, n - mu, len(f))
    return _materialize(f.origin + n - mu, _difference(summed, n), len(f) - n)


def nabla_poch_diff(
    a: RationalLike, p: RationalLike, alpha: RationalLike, t_index: int
) -> GammaPolynomial:
    """Nabla-kernel fractional difference of the rising power (s - a)_p.

    Evaluates, at the point a + t_index with t_index >= 1,

        (1/Gamma(-alpha)) * sum_{j=1..t_index} (t_index-j+1)_{-alpha-1} (j)_p

    The shift a cancels from the summand, so only t_index enters the value.
    Summand 1's kernel over Gamma(-alpha) is rational,

        (t_index)_{-alpha-1} / Gamma(-alpha) = (-alpha)_{t_index-1} / (t_index-1)!,

    the last product of the run with ups [-alpha] over downs [1].  With
    x = t_index - j + 1, each later summand is the one before times

        (x - 1)(j + p) / ((x - 2 - alpha) j),

    the run with ups [1-t_index, 1+p] over downs [2+alpha-t_index, 1], so
    the sum is summand 1 times its exact._ratio_sum.  The value is (1)_p,
    from pochhammer, times those two rationals.  (1)_p is the only factor
    that can hold a pole, and a pole raises SpecialValuePole.
    """
    as_rational(a)
    p = as_rational(p)
    alpha = as_rational(alpha)
    if alpha.denominator == 1:
        raise DomainError(f"alpha must not be an integer (got {alpha})")
    if t_index < 1:
        raise DomainError(f"t_index must be at least 1 (got {t_index})")
    sample = pochhammer(1, p)
    if sample.is_pole:
        raise SpecialValuePole("summand at j=1 has an unresolved Gamma pole")
    # Only (1)_p can hold a pole.  alpha is not an integer, so no kernel ratio
    # and no x - 2 - alpha is 0; (j)_p has a pole only when j + p is 0, -1,
    # -2, ..., and if j = 1 misses that set so does every larger j.  So every
    # ratio below is finite and nonzero.
    for kernel_num, kernel_den in _ratio_run(_term_ratios([-alpha], [1], 1, t_index - 1)):
        pass
    total = _ratio_sum(_term_ratios([1 - t_index, p + 1], [alpha + (2 - t_index), 1], 1, t_index - 1))
    return sample.value * (Fraction(kernel_num, kernel_den) * total)
