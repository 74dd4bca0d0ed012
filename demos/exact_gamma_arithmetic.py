"""
Exact arithmetic with products of Gamma values
==============================================

Every scalar in deltafrac is a sum of terms q * Gamma(b1)^e1 * ... with
rational q and bases strictly between 0 and 1.  Shifting arguments into
that window makes equality decidable: two expressions agree exactly when
their difference normalizes to the empty term map.
"""
from fractions import Fraction as Q

from deltafrac import as_polynomial, gamma_of

# Gamma at a positive integer folds into the rational coefficient
print("Gamma(4) =", gamma_of(4))

# fractional arguments shift into (0, 1) through Gamma(x+1) = x Gamma(x)
print("Gamma(7/2) =", gamma_of(Q(7, 2)))
print("Gamma(-1/2) =", gamma_of(Q(-1, 2)))

# the same value reached along two routes has one canonical form
lhs = gamma_of(Q(3, 2))
rhs = Q(1, 2) * gamma_of(Q(1, 2))
print("Gamma(3/2) == (1/2) Gamma(1/2):", lhs == rhs)

# sums cancel exactly, not approximately; this pair of Pochhammer
# products is a finite Gamma combination that collapses to zero
a = gamma_of(Q(-1, 2)) * gamma_of(Q(3, 2))
b = gamma_of(Q(-3, 2)) * gamma_of(Q(5, 2))
total = a + b
print("Gamma(-1/2)Gamma(3/2) + Gamma(-3/2)Gamma(5/2) =", total)
print("is exactly zero:", total.is_zero)

# floats never decide equality; to_float gives a value's double, or None past one
half = gamma_of(Q(3, 2))
print("float(Gamma(3/2)) =", half.to_float())

# renders are a reversible encoding of the term map
from deltafrac import parse_gamma_polynomial

p = as_polynomial(3) + gamma_of(Q(1, 3))
text = p.render()
print("render:", text)
print("round-trips:", parse_gamma_polynomial(text) == p)
