"""Mutation audit: every injected fault must flip a status in the default suite.

Each fault wraps one library function.  The runner patches the wrapper into
every deltafrac module that binds that function, runs the default suite in
process, restores the bindings, and compares each report's status with an
unpatched run.  A fault that leaves every status unchanged is a fault the
checks cannot see.

    python mutants/run.py

It prints one line per fault with the flipped reports per identity, and
exits 0 when every fault flips at least one status, 1 otherwise.
"""
from __future__ import annotations

import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from deltafrac import exact, fracops, gridfn, identities, special  # noqa: E402
from deltafrac.gridfn import GridFunction  # noqa: E402
from deltafrac.sweeps import default_suite, run_sweep  # noqa: E402


def _one_factor_long(original):
    return lambda x, k: original(x, k + 1)


def _gamma_of_doubled(original):
    return lambda x: original(x) * 2 if Fraction(x) > 3 else original(x)


def _weight_numerator_5(original):
    # The original's tables are cached and shared, so the fault doubles a copy.
    def faulty(nu, count):
        numerators, den = original(nu, count)
        if len(numerators) > 5:
            numerators = list(numerators)
            numerators[5] *= 2
        return numerators, den
    return faulty


def _difference_doubled_at(order, index):
    """The int-column difference of one order doubled at one index, in every column.

    delta_n and ae_frac_diff both take their differences through it.
    """
    def factory(original):
        def faulty(columns, n):
            out = original(columns, n)
            if n != order:
                return out
            doubled = {}
            for signature, (numerators, den) in out.items():
                numerators = list(numerators)
                if len(numerators) > index:
                    numerators[index] *= 2
                doubled[signature] = (numerators, den)
            return doubled
        return faulty
    return factory


def _product_doubled_at_1(original):
    """Entry 1 of every column the window product returns, doubled.

    f * g and the Leibniz expansion both multiply through it.
    """
    def faulty(pairs, length):
        return {
            signature: ([x * 2 if t == 1 else x for t, x in enumerate(column)], den)
            for signature, (column, den) in original(pairs, length).items()
        }
    return faulty


def _gen_binomial_n4(original):
    return lambda alpha, n: original(alpha, n) * 2 if n == 4 else original(alpha, n)


def _ratio_2_doubled(original):
    """The stepper with the numerator of ratio 2 doubled as it passes through."""
    return lambda ratios: original((n * 2 if k == 2 else n, d) for k, (n, d) in enumerate(ratios))


def _origin_plus_one(original):
    def faulty(*args):
        out = original(*args)
        return GridFunction(out.origin + 1, out.values)
    return faulty


def _sample_falling_power_origin(original):
    def faulty(a, mu, length):
        out = original(a, mu, length)
        return GridFunction(out.origin - Fraction(mu), out.values)
    return faulty


# name: (defining module, function, what the fault does, wrapper factory)
FAULTS = {
    "poch_int": (exact, "poch_int", "one factor long", _one_factor_long),
    "falling_int": (special, "falling_int", "one factor long", _one_factor_long),
    "gamma_of": (exact, "gamma_of", "doubled for x > 3", _gamma_of_doubled),
    "weight_numerators": (
        fracops, "_weight_numerators", "numerator 5 doubled", _weight_numerator_5
    ),
    "difference": (
        gridfn, "_difference", "order 2 doubled at index 1", _difference_doubled_at(2, 1)
    ),
    "difference-first": (
        gridfn, "_difference", "order 1 doubled at index 0", _difference_doubled_at(1, 0)
    ),
    "difference-third": (
        gridfn, "_difference", "order 3 doubled at index 2", _difference_doubled_at(3, 2)
    ),
    "difference-ninth": (
        gridfn, "_difference", "order 9 doubled at index 0", _difference_doubled_at(9, 0)
    ),
    "product": (gridfn, "_product", "entry 1 doubled", _product_doubled_at_1),
    "gen_binomial": (special, "gen_binomial", "doubled at n = 4", _gen_binomial_n4),
    "ratio_run": (exact, "_ratio_run", "ratio 2's numerator doubled", _ratio_2_doubled),
    "ratio_sum": (exact, "_ratio_sum", "ratio 2's numerator doubled", _ratio_2_doubled),
    "frac_sum_diff-origin": (
        fracops, "frac_sum_diff", "output origin moved by +1", _origin_plus_one
    ),
    "power_rule_closed-origin": (
        identities, "power_rule_closed", "window origin moved by +1", _origin_plus_one
    ),
    "sample_falling_power-origin": (
        gridfn, "sample_falling_power", "origin moved by -mu", _sample_falling_power_origin
    ),
}


def suite_statuses() -> list[tuple[str, str]]:
    """(identity, status) of every report of the default suite, in order."""
    return [(rep.identity, rep.status) for config in default_suite() for rep in run_sweep(config)]


def run_fault(name: str) -> list[tuple[str, str]]:
    """The suite's statuses with one fault patched into every module that binds its target."""
    home, target, _, factory = FAULTS[name]
    original = getattr(home, target)
    faulty = factory(original)
    bound = [
        module for key, module in list(sys.modules.items())
        if key.split(".")[0] == "deltafrac" and getattr(module, target, None) is original
    ]
    for module in bound:
        setattr(module, target, faulty)
    try:
        return suite_statuses()
    finally:
        for module in bound:
            setattr(module, target, original)


def flipped(baseline: list, mutated: list) -> Counter:
    """Flipped reports per identity; a report only one run has counts as flipped."""
    counts = Counter(
        identity for (identity, before), (_, after) in zip(baseline, mutated) if before != after
    )
    for identity, _ in baseline[len(mutated):] + mutated[len(baseline):]:
        counts[identity] += 1
    return counts


def main() -> int:
    baseline = suite_statuses()
    survivors = []
    for name in FAULTS:
        counts = flipped(baseline, run_fault(name))
        detail = ", ".join(f"{identity} {n}" for identity, n in counts.items()) or "nothing"
        print(f"{name} ({FAULTS[name][2]}): {sum(counts.values())} flipped: {detail}")
        if not counts:
            survivors.append(name)
    if survivors:
        print(f"FAIL: {len(survivors)} fault(s) flip no status: {', '.join(survivors)}")
        return 1
    print(f"OK: all {len(FAULTS)} faults flip a status")
    return 0


if __name__ == "__main__":
    sys.exit(main())
