"""Exact discrete fractional calculus over the rationals.

Values are Gamma monomials q*prod Gamma(b_i)^e_i with rational q and
bases in (0, 1); sums of these form GammaPolynomials with a decidable
zero test.  On top of that sit generalized falling/Pochhammer functions,
fractional sum and difference operators on uniform grids, and verifiers
that check the library's identities by exact cancellation.
"""
from types import ModuleType as _ModuleType

from .errors import (
    DeltafracError,
    DenominatorPochhammerZero,
    DomainError,
    GammaPole,
    SpecialValuePole,
    WindowTooShort,
)
from .exact import (
    GammaMonomial,
    GammaPolynomial,
    as_polynomial,
    as_rational,
    gamma_of,
    parse_gamma_polynomial,
    parse_rational,
    poch_int,
)
from .fracops import (
    ae_frac_diff,
    frac_sum_diff,
    mr_frac_diff,
    nabla_poch_diff,
)
from .gridfn import GridFunction, delta_n, sample_falling_power
from .identities import (
    alt_sum_lemma_check,
    binom_falling_check,
    binom_poch_check,
    corollary_closed,
    falling_poch_bridge_check,
    gamma_sum_check,
    hyp3f2_terminating,
    index_law_check,
    leibniz_sweep,
    nabla_zero_check,
    power_rule_closed,
    power_rule_verify,
    prop_form1_check,
    saalschutz_lhs,
    saalschutz_verify,
)
from .report import (
    DOMAIN_EXCLUDED,
    EXACT,
    FLOAT_ONLY,
    FLOAT_RTOL,
    MISMATCH,
    POLE,
    VerificationReport,
    report_compare,
)
from .special import (
    POLE_VALUE,
    ZERO,
    SpecialValue,
    falling,
    falling_int,
    gen_binomial,
    pochhammer,
)
from .sweeps import (
    DEFAULT_SEED,
    SweepConfig,
    default_suite,
    identity_names,
    load_config,
    rational_range,
    run_identity,
    run_sweep,
)

__version__ = "0.1.0"

# every public name bound above, in import order; submodules are not exports
__all__ = [
    name for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
