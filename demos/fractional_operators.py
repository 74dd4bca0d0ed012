"""
Fractional sums and differences on uniform grids
================================================

A grid function lives on a + {0, 1, 2, ...}.  The fractional sum of
order nu convolves it with Pochhammer weights and lands on the shifted
grid starting at a + nu.  Negative non-integer orders give fractional
differences; there are two classical ways to take those, and they agree
wherever both are defined.
"""
from fractions import Fraction as Q

from deltafrac import GridFunction, ae_frac_diff, frac_sum_diff, mr_frac_diff

# half-order sum of the constant 1 on the natural numbers
f = GridFunction(0, [1] * 6)
half_sum = frac_sum_diff(f, Q(1, 2))
print("half sum of 1 starts at", half_sum.origin)
for point, value in zip(half_sum.points(), half_sum.values):
    print(f"  t = {point}: {value}")

# order 1 reproduces ordinary partial sums
print("order 1:", [str(v) for v in frac_sum_diff(f, 1).values])

# fractional difference, direct route: order -mu, one operator call
mu = Q(1, 2)
direct = mr_frac_diff(f, mu)
print("direct half difference starts at", direct.origin)

# fractional difference, stepped route: integer differences after a
# complementary fractional sum; the window shrinks by ceil(mu)
stepped = ae_frac_diff(f, mu)
print("stepped half difference starts at", stepped.origin)

# the two routes agree exactly on the shared domain, index shift and all
agree = all(
    stepped.values[k] == direct.values[k + 1] for k in range(len(stepped))
)
print("routes agree on the shared domain:", agree)

# orders above 1 also work through the stepped route, or through the
# direct convolution with a negative non-integer order
g = GridFunction(0, [Q(3, 7), Q(-2), Q(5, 3), 0, Q(9, 4), Q(1, 6)])
three_halves = ae_frac_diff(g, Q(3, 2))
via_order = frac_sum_diff(g, Q(-3, 2))
print(
    "order 3/2 agreement:",
    all(three_halves.values[k] == via_order.values[k + 2] for k in range(len(three_halves))),
)
