"""
Verification sweeps: power rule, product rule, closed-form series
=================================================================

Each identity registers a named sweep with seeded defaults.  A report has
status exact only when the formal difference of both computation routes
is the zero polynomial; floats never decide anything, they only grade
a formal failure.
"""
from collections import Counter
from fractions import Fraction as Q

from deltafrac import (
    GridFunction,
    leibniz_sweep,
    power_rule_sweep,
    run_identity,
    saalschutz_lhs,
    saalschutz_verify,
)

# power rule: the fractional sum of a falling power against its closed
# form, dual routes compared termwise along the window
reports = list(power_rule_sweep(0, Q(1, 2), [Q(1, 2)], 8))
print("power rule, mu = nu = 1/2:", Counter(r.status for r in reports))
print("  N = 2 value:", reports[2].lhs)

# product rule at one point: both sides of the expansion, exactly
f = GridFunction(0, [1] * 6)
g = GridFunction(0, [Q(k) for k in range(6)])
rep = list(leibniz_sweep(f, g, [Q(1, 2)]))[3]
print("product rule at t_index 3:", rep.status, "both sides", rep.lhs)

# terminating series closed form: a ratio of four Pochhammer products
print("series point value:", saalschutz_lhs(Q(1, 2), Q(1, 2), 2, 1))
print("closed form check:", saalschutz_verify(Q(1, 2), Q(1, 2), 2, 1).status)

# whole default sweeps, with honest bookkeeping of excluded points
for name in ("power-rule", "leibniz", "saalschutz", "form1"):
    counts = Counter(r.status for r in run_identity(name))
    print(f"{name}: {dict(counts)}")
