"""Generalized falling powers and Pochhammer symbols at rational arguments.

Both functions are Gamma ratios away from the integer special cases, and
both carry explicit zero and pole conventions.  The value is always one
of: a finite single Gamma term, an exact zero, or a pole marker.
"""
from fractions import Fraction as Q

from deltafrac import falling, falling_poch_bridge_check, index_law_check, pochhammer

# integer order: plain products, even at negative integer bases
print("falling(5, 2) =", falling(5, 2).render())
print("falling(-1, 2) =", falling(-1, 2).render())

# Gamma-ratio case
print("falling(1/2, 1/2) =", falling(Q(1, 2), Q(1, 2)).render())
print("poch(2, -5/2) =", pochhammer(2, Q(-5, 2)).render())

# zero convention: numerator Gamma finite, denominator Gamma at a pole
print("falling(1/2, 5/2) =", falling(Q(1, 2), Q(5, 2)).render())
print("poch(-2, 1/2) =", pochhammer(-2, Q(1, 2)).render())

# pole convention: everything else
print("falling(-1, 1/2) =", falling(-1, Q(1, 2)).render())
print("poch(3/2, -3/2) =", pochhammer(Q(3, 2), Q(-3, 2)).render())

# the two functions are one function in disguise:
#   poch(x, y) = falling(x + y - 1, y), cases included
for t, alpha in [(Q(1, 2), Q(5, 2)), (3, Q(1, 3)), (Q(-1, 2), 2), (Q(-1, 2), Q(1, 2))]:
    rep = falling_poch_bridge_check(t, alpha)
    print(f"bridge at t={t}, alpha={alpha}: {rep.status}")

# index law for falling powers: t^{beta} (t - beta)^{alpha} = t^{alpha+beta}
rep = index_law_check(Q(7, 2), Q(1, 2), Q(1, 3))
print("index law at (7/2, 1/2, 1/3):", rep.status, "=", rep.lhs)
