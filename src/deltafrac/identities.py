"""Machine checks for every identity the sweeps register.

Every verifier computes both sides of an identity along fully independent
paths (operator evaluation against closed form, product against series)
and returns a VerificationReport.  Checks are exact: a report says
``exact`` only when the formal difference of the two sides is the zero
Gamma polynomial.  A verifier raises DomainError for parameters outside
its identity's statement and reports ``domain_excluded`` for the points
the statement names.  The power-rule sweep skips swept orders off the rule
and refuses a pinned one; the Saalschutz sweep drops excluded points
unless pinned or ``force`` is set.  Every n-th forward difference a
verifier uses is gridfn's one int difference, which delta_n wraps, so
each order is checked.  Every run of term ratios here (the binomial
sums' rising and falling runs, the power rule's (mu+nu+1)_n / n!, the
Leibniz weights C(-alpha, n)) is exact._ratio_run on ints, and the
terminating 3F2 is exact._ratio_sum.  That stepper stays on one side of
each identity: the binomial checks' left sides are single products from
poch_int and falling_int, the power-rule and Leibniz left sides
frac_sum_diff windows, and the Saalschutz product side poch_int runs.  The
Leibniz right side and the alt-sum left side are sums of int columns.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

from .errors import DenominatorPochhammerZero, DomainError, WindowTooShort
from .exact import (
    GammaPolynomial,
    RationalLike,
    _ratio_run,
    _ratio_sum,
    as_polynomial,
    as_rational,
    gamma_of,
    is_integer,
    is_negative_integer,
    is_nonpositive_integer,
    is_positive_integer,
    poch_int,
    weighted_sum,
)
from .fracops import _convolve, ae_frac_diff, frac_sum_diff, nabla_poch_diff
from .gridfn import GridFunction, _difference, _materialize, _product, sample_falling_power
from .report import MISMATCH, POLE, VerificationReport, report_compare, report_excluded
from .special import falling, falling_int, gen_binomial, pochhammer

__all__ = [
    "falling_poch_bridge_check",
    "index_law_check",
    "binom_falling_check",
    "binom_poch_check",
    "power_rule_order_violation",
    "power_rule_closed",
    "power_rule_verify",
    "corollary_closed",
    "gamma_sum_check",
    "nabla_zero_check",
    "alt_sum_lemma_check",
    "mr_ae_sweep",
    "leibniz_sweep",
    "prop_form1_check",
    "hyp3f2_terminating",
    "saalschutz_lhs",
    "saalschutz_hypothesis_violation",
    "saalschutz_verify",
]


def _binomial_sum(x: Fraction, y: Fraction, n: int, step: int) -> Fraction:
    """sum(C(n,k) * x[n-k] * y[k] for k <= n), x[j] being x(x+step)...(x+(j-1)step).

    step +1 makes the powers rising products, step -1 falling ones.  With
    x = p/q and y = r/s, x[j] is xs[j] / (q s)^j, the run of the ratios
    (p + j step q) s / (q s), and y[k] likewise, so the sum is one int over
    (q s)^n, reduced once.
    """
    p, q = x.numerator, x.denominator
    r, s = y.numerator, y.denominator
    xs = [num for num, _ in _ratio_run(((p + j * step * q) * s, q * s) for j in range(n))]
    ys = [num for num, _ in _ratio_run(((r + j * step * s) * q, q * s) for j in range(n))]
    return Fraction(sum(math.comb(n, k) * xs[n - k] * ys[k] for k in range(n + 1)), (q * s) ** n)


def falling_poch_bridge_check(t: RationalLike, alpha: RationalLike) -> VerificationReport:
    """Check the bridge (t + alpha - 1) falling alpha = (t)_alpha.

    A pole on both sides reports ``pole``; on one side, ``mismatch``.
    """
    t = as_rational(t)
    alpha = as_rational(alpha)
    params = {"t": t, "alpha": alpha}
    lhs = falling(t + alpha - 1, alpha)
    rhs = pochhammer(t, alpha)
    if lhs.is_pole or rhs.is_pole:
        status = POLE if lhs.is_pole and rhs.is_pole else MISMATCH
        return VerificationReport("bridge", params, status, lhs.render(), rhs.render())
    return report_compare("bridge", params, lhs.as_polynomial(), rhs.as_polynomial())


def index_law_check(t: RationalLike, alpha: RationalLike, beta: RationalLike) -> VerificationReport:
    """Check falling(t, alpha+beta) = falling(t-beta, alpha)*falling(t, beta).

    Only claimed when all three factors are finite; a zero or pole on
    either side excludes the point and names the offending factor.
    """
    t = as_rational(t)
    alpha = as_rational(alpha)
    beta = as_rational(beta)
    params = {"t": t, "alpha": alpha, "beta": beta}
    whole = falling(t, alpha + beta)
    left = falling(t - beta, alpha)
    right = falling(t, beta)
    for label, value in (
        ("falling(t, alpha+beta)", whole),
        ("falling(t-beta, alpha)", left),
        ("falling(t, beta)", right),
    ):
        if not value.is_finite:
            return report_excluded(
                "index-law", params, f"{label} is not finite ({value.render()})"
            )
    return report_compare("index-law", params, whole.value, left.value * right.value)


def _binom_check(
    identity: str, power: Callable, step: int, x: RationalLike, y: RationalLike, n: int
) -> VerificationReport:
    x = as_rational(x)
    y = as_rational(y)
    if n < 0:
        raise DomainError("n must be a nonnegative integer")
    lhs = power(x + y, n)
    rhs = _binomial_sum(x, y, n, step)
    return report_compare(identity, {"x": x, "y": y, "n": n}, lhs, rhs)


def binom_falling_check(x: RationalLike, y: RationalLike, n: int) -> VerificationReport:
    """Binomial expansion of a falling power of a sum, order n >= 0."""
    return _binom_check("binom-falling", falling_int, -1, x, y, n)


def binom_poch_check(x: RationalLike, y: RationalLike, n: int) -> VerificationReport:
    """Binomial expansion of a rising power of a sum, order n >= 0."""
    return _binom_check("binom-poch", poch_int, 1, x, y, n)


def power_rule_order_violation(
    mu: RationalLike | None = None, nu: RationalLike | None = None
) -> str | None:
    """Name the order off the power rule, or None; an order left None is not checked."""
    if mu is not None and is_negative_integer(mu):
        return f"mu must not be a negative integer (got {mu})"
    if nu is not None and is_nonpositive_integer(nu):
        return f"nu must not be a nonpositive integer (got {nu})"
    return None


def _check_power_rule_orders(mu: Fraction, nu: Fraction) -> None:
    violation = power_rule_order_violation(mu, nu)
    if violation is not None:
        raise DomainError(violation)


def power_rule_closed(
    a: RationalLike, mu: RationalLike, nu: RationalLike, length: int
) -> GridFunction:
    """Closed form of the order-nu sum of a falling power, as a window.

    The window lies on the output grid {a+mu+nu, a+mu+nu+1, ...}; its value
    at offset n is Gamma(mu+1) * (mu+nu+1)_n / n!, a single Gamma monomial.
    With mu+nu+1 = p/q, (mu+nu+1)_n / n! is the run of the ratios
    (p + n q) / (q (n + 1)), and each offset makes one Fraction.
    """
    a = as_rational(a)
    mu = as_rational(mu)
    nu = as_rational(nu)
    _check_power_rule_orders(mu, nu)
    gamma = gamma_of(mu + 1)
    p, q = (mu + nu + 1).as_integer_ratio()
    # length - 1 ratios make length products; a length of 0 keeps none of them
    run = _ratio_run((p + n * q, q * (n + 1)) for n in range(length - 1))
    return GridFunction(a + mu + nu, [gamma * Fraction(num, den) for num, den in run][:length])


def corollary_closed(
    a: RationalLike, mu: RationalLike, nu: RationalLike, length: int
) -> GridFunction:
    """Falling-power form of the same closed window.

    When mu + nu is not a negative integer this is the falling power
    (t - a) falling (mu+nu) sampled on {a+mu+nu, ...}, scaled by
    Gamma(mu+1)/Gamma(mu+nu+1).  When mu + nu = -k, the form is defined only
    from t = a on, where it is zero: the window holds length - k zeros on a.
    """
    a = as_rational(a)
    mu = as_rational(mu)
    nu = as_rational(nu)
    _check_power_rule_orders(mu, nu)
    total_order = mu + nu
    if is_negative_integer(total_order):
        return GridFunction(a, [0] * (length + int(total_order)))
    prefactor = gamma_of(mu + 1) / gamma_of(total_order + 1)
    falling_power = sample_falling_power(a, total_order, length)
    return GridFunction(falling_power.origin, [v * prefactor for v in falling_power.values])


def power_rule_verify(
    a: RationalLike, mu: RationalLike, nu: RationalLike, n_max: int
) -> list[VerificationReport]:
    """Operator evaluation against the closed form, for every offset <= n_max.

    The left side runs the convolution over a sampled falling power; the
    right side is the closed window on the grid a+mu+nu.  The two paths
    share nothing past the weight recurrence, so exact agreement is meaningful.
    """
    a = as_rational(a)
    mu = as_rational(mu)
    nu = as_rational(nu)
    if n_max < 0:
        raise DomainError("n_max must be a nonnegative integer")
    closed = power_rule_closed(a, mu, nu, n_max + 1)
    return _compare_windows(
        "power-rule",
        lambda n: {"a": a, "mu": mu, "nu": nu, "N": n},
        frac_sum_diff(sample_falling_power(a, mu, n_max + 1), nu),
        closed,
    )


def gamma_sum_check(mu: RationalLike, nu: RationalLike, n: int) -> VerificationReport:
    """Vanishing binomial cross-sum of two Pochhammer families.

    Checks sum(C(n,k) (nu)_{n-k} (mu+1)_k) = 0, which requires mu + nu to
    be a negative integer and holds from n = -(mu+nu) on.  Below that
    threshold the point is excluded and the nonzero sum is attached.
    """
    mu = as_rational(mu)
    nu = as_rational(nu)
    params = {"mu": mu, "nu": nu, "n": n}
    total_order = mu + nu
    if not is_negative_integer(total_order):
        raise DomainError(f"mu+nu must be a negative integer (got {total_order})")
    _check_power_rule_orders(mu, nu)
    if n < 0:
        raise DomainError("n must be a nonnegative integer")
    total = _binomial_sum(nu, mu + 1, n, 1)
    if n < -total_order:
        return report_excluded(
            "gamma-sum", params, "n must be at least -(mu+nu)", boundary=total
        )
    return report_compare("gamma-sum", params, total, 0)


def nabla_zero_check(
    a: RationalLike, p: RationalLike, alpha: RationalLike, t_index: int
) -> VerificationReport:
    """Vanishing of the nabla-kernel difference of a rising power.

    When alpha - p is a positive integer m, the difference vanishes for
    t_index >= 1 + m.  Below that threshold the value is generally
    nonzero; such points are excluded with the boundary value attached.
    """
    a = as_rational(a)
    p = as_rational(p)
    alpha = as_rational(alpha)
    params = {"a": a, "p": p, "alpha": alpha, "t_index": t_index}
    m = alpha - p
    if not is_positive_integer(m):
        raise DomainError(f"alpha - p must be a positive integer (got {m})")
    value = nabla_poch_diff(a, p, alpha, t_index)
    if t_index < 1 + int(m):
        return report_excluded(
            "nabla-zero",
            params,
            "t_index must be at least 1 + (alpha - p)",
            boundary=value,
        )
    return report_compare("nabla-zero", params, value, 0)


def alt_sum_lemma_check(
    g: GridFunction, alpha: RationalLike, k: int, t_index: int
) -> VerificationReport:
    """Alternating binomial sum of forward differences telescopes to a shift.

    Checks sum((-1)^n C(k,n) (delta^n g)(t - alpha - n)) = g(t - alpha - k)
    at t = origin + alpha + t_index, which needs t_index >= k and a window
    reaching index t_index.  Each delta^n g is gridfn's int difference of
    g's columns, the one delta_n takes; the sum runs on ints, one per factor
    signature, and makes one Fraction per signature.
    """
    alpha = as_rational(alpha)
    if k < 0:
        raise DomainError("k must be a nonnegative integer")
    params = {"alpha": alpha, "k": k, "t_index": t_index}
    if t_index < 0 or t_index > len(g) - 1:
        raise WindowTooShort(
            f"window of length {len(g)} does not reach index {t_index}"
        )
    if t_index < k:
        return report_excluded(
            "alt-sum", params, "t must lie on the shifted grid (t_index >= k)"
        )
    columns = {signature: (xs[:t_index + 1], den) for signature, (xs, den) in g._columns.items()}
    sums = dict.fromkeys(columns, 0)
    for n in range(k + 1):
        weight = (-1) ** n * math.comb(k, n)
        for signature, (xs, _) in _difference(columns, n).items():
            sums[signature] += weight * xs[t_index - n]
    lhs = GammaPolynomial({signature: Fraction(sums[signature], den) for signature, (_, den) in columns.items()})
    rhs = g.values[t_index - k]
    return report_compare("alt-sum", params, lhs, rhs)


def _compare_windows(
    identity: str, params: Callable[[int], dict], lhs: GridFunction, rhs: GridFunction
) -> list[VerificationReport]:
    """One report per window index k, labelled params(k): grid points first, then values.

    Sides on different grid points are a ``mismatch`` naming both, with no float gap.
    """
    # both windows step by 1, so their points agree at every index or at none
    same_grid = lhs.origin == rhs.origin
    reports = []
    for k, (left, right) in enumerate(zip(lhs.values, rhs.values, strict=True)):
        if same_grid:
            reports.append(report_compare(identity, params(k), left, right))
        else:
            points = [f"t={side.point(k)}" for side in (lhs, rhs)]
            reports.append(VerificationReport(identity, params(k), MISMATCH, *points))
    return reports


def mr_ae_sweep(f: GridFunction, mu: RationalLike, window: int) -> list[VerificationReport]:
    """ae_frac_diff(f, mu) against the order -mu sum, ceil(mu) points on; window labels reports."""
    mu = as_rational(mu)
    n = math.ceil(mu)
    stepped = ae_frac_diff(f, mu)
    direct = frac_sum_diff(f, -mu)
    return _compare_windows(
        "mr-ae",
        lambda k: {"window": window, "mu": mu, "t": stepped.point(k)},
        stepped,
        GridFunction(direct.point(n), direct.values[n:]),
    )


def _leibniz_expansion(f: GridFunction, g: GridFunction, alpha: Fraction) -> GridFunction:
    """The right side sum_n C(-alpha, n) (Delta^-(alpha+n) f)(t-n) (Delta^n g)(t-n).

    It covers the points f and g share, on origin + alpha.  Order n pairs
    the convolution's columns of f at order alpha+n, weighted by
    C(-alpha, n), with g's n-th difference columns, both shifted n entries
    on; gridfn's column product sums the pairs, materialized once.  Only
    length - n entries of order n are kept, so f's columns are cut to them
    before they are convolved.  With alpha = a/b, C(-alpha, n) is the run
    of the ratios (-a - n b) / (b (n + 1)) and stays unreduced, as the
    columns do.
    """
    length = min(len(f), len(g))
    a, b = alpha.numerator, alpha.denominator
    weights = _ratio_run((-a - n * b, b * (n + 1)) for n in range(length - 1))
    pairs = []
    for n, (weight_num, weight_den) in enumerate(weights):
        kept = {signature: (xs[:length - n], den) for signature, (xs, den) in f._columns.items()}
        transform = _convolve(kept, alpha + n, length - n)
        pairs.append((
            {
                signature: ([0] * n + [weight_num * x for x in xs], den * weight_den)
                for signature, (xs, den) in transform.items()
            },
            {signature: ([0] * n + ys, den) for signature, (ys, den) in _difference(g._columns, n).items()},
        ))
    return _materialize(f.origin + alpha, _product(pairs, length), length)


def leibniz_sweep(
    f: GridFunction, g: GridFunction, alpha: RationalLike
) -> list[VerificationReport]:
    """Product-rule check at every point of the window f and g share.

    The left side transforms the pointwise product f * g once, through
    frac_sum_diff; the right side is _leibniz_expansion, on int columns
    throughout.  Tables are shared across the sweep.
    """
    alpha = as_rational(alpha)
    if is_nonpositive_integer(alpha):
        raise DomainError(f"alpha must not be a nonpositive integer (got {alpha})")
    lhs = frac_sum_diff(f * g, alpha)
    return _compare_windows(
        "leibniz",
        lambda t: {"alpha": alpha, "t_index": t},
        lhs,
        _leibniz_expansion(f, g, alpha),
    )


def prop_form1_check(
    alpha: RationalLike, beta: RationalLike, gamma: RationalLike, n: int
) -> VerificationReport:
    """Gamma-ratio closed form of a binomially weighted double family.

    Checks, at offset n >= 0 with t = alpha + beta + gamma + n,

        Gamma(beta+gamma+1)/(n! Gamma(beta+1)) * (alpha+beta+gamma+1)_n
          = sum_j C(-alpha,j) (alpha+beta+j+1)_{n-j}/(n-j)!
                  * falling(gamma,j) * falling(beta+gamma+n-j, gamma-j)

    requiring alpha not a nonpositive integer and beta, beta+gamma not
    negative integers.  No summand holds a pole: falling(x, y) has one only
    at a negative integer x, and x = beta+gamma+n-j is either not an
    integer or, with beta+gamma >= 0, at least n-j >= 0.
    """
    alpha = as_rational(alpha)
    beta = as_rational(beta)
    gamma = as_rational(gamma)
    params = {"alpha": alpha, "beta": beta, "gamma": gamma, "N": n}
    if is_nonpositive_integer(alpha):
        raise DomainError(f"alpha must not be a nonpositive integer (got {alpha})")
    if is_negative_integer(beta):
        raise DomainError(f"beta must not be a negative integer (got {beta})")
    if is_negative_integer(beta + gamma):
        raise DomainError(
            f"beta+gamma must not be a negative integer (got {beta + gamma})"
        )
    if n < 0:
        raise DomainError("n must be a nonnegative integer")
    prefactor = gamma_of(beta + gamma + 1) / gamma_of(beta + 1)
    scale = poch_int(alpha + beta + gamma + 1, n) / math.factorial(n)
    lhs = as_polynomial(prefactor * scale)
    summands = []
    for j in range(n + 1):
        coeff = (
            gen_binomial(-alpha, j)
            * poch_int(alpha + beta + j + 1, n - j)
            / math.factorial(n - j)
            * falling_int(gamma, j)
        )
        if coeff == 0:
            continue
        summands.append((falling(beta + gamma + n - j, gamma - j).as_polynomial(), coeff))
    return report_compare("form1", params, lhs, weighted_sum(summands))


def hyp3f2_terminating(
    a1: RationalLike,
    a2: RationalLike,
    m: int,
    b1: RationalLike,
    b2: RationalLike,
    z: RationalLike,
) -> Fraction:
    """Terminating 3F2 series: sum over k <= m of the Pochhammer ratio.

    The third upper parameter is -m, so the series stops after m+1 terms.
    Term k+1 is term k times (a1+k)(a2+k)(k-m)z / ((b1+k)(b2+k)(k+1)),
    taken on the parameters' int numerators and denominators and summed by
    exact._ratio_sum.  Both lower parameters must keep their
    Pochhammer factors nonzero through k = m; a hit raises
    DenominatorPochhammerZero naming the first offending k.
    """
    a1 = as_rational(a1)
    a2 = as_rational(a2)
    b1 = as_rational(b1)
    b2 = as_rational(b2)
    z = as_rational(z)
    if m < 0:
        raise DomainError("m must be a nonnegative integer")
    for name, b in (("b1", b1), ("b2", b2)):
        if is_integer(b) and -m < b <= 0:
            first_zero_k = int(1 - b)
            raise DenominatorPochhammerZero(
                f"({name})_k vanishes at k={first_zero_k} for {name}={b}"
            )
    p1, q1 = a1.numerator, a1.denominator
    p2, q2 = a2.numerator, a2.denominator
    r1, s1 = b1.numerator, b1.denominator
    r2, s2 = b2.numerator, b2.denominator
    zn, zd = z.numerator, z.denominator
    ups = ((p1 + k * q1) * (p2 + k * q2) * (k - m) * zn * s1 * s2 for k in range(m))
    downs = ((r1 + k * s1) * (r2 + k * s2) * (k + 1) * q1 * q2 * zd for k in range(m))
    return _ratio_sum(zip(ups, downs))


def saalschutz_lhs(
    a: RationalLike, b: RationalLike, c: RationalLike, m: int
) -> Fraction:
    """Product side of the terminating summation: four Pochhammer runs."""
    a = as_rational(a)
    b = as_rational(b)
    c = as_rational(c)
    if m < 0:
        raise DomainError("m must be a nonnegative integer")
    denom_c = poch_int(c, m)
    if denom_c == 0:
        raise ZeroDivisionError(f"(c)_m vanishes for c={c}, m={m}")
    denom_cab = poch_int(c - a - b, m)
    if denom_cab == 0:
        raise ZeroDivisionError(f"(c-a-b)_m vanishes for c-a-b={c - a - b}, m={m}")
    return poch_int(c - a, m) * poch_int(c - b, m) / (denom_c * denom_cab)


def saalschutz_hypothesis_violation(
    a: RationalLike, b: RationalLike, c: RationalLike, m: int
) -> str | None:
    """Name the violated hypothesis, or None when the point is claimed.

    A negative m is no point of the theorem's statement: it raises DomainError.
    """
    a = as_rational(a)
    b = as_rational(b)
    c = as_rational(c)
    if m < 0:
        raise DomainError("m must be a nonnegative integer")
    if is_nonpositive_integer(a):
        return "a must not be a nonpositive integer"
    if is_nonpositive_integer(c):
        return "c must not be a nonpositive integer"
    if is_negative_integer(c - a - 1):
        return "c-a-1 must not be a negative integer"
    if is_negative_integer(c - a - b - 1):
        return "c-a-b-1 must not be a negative integer"
    return None


def saalschutz_verify(
    a: RationalLike,
    b: RationalLike,
    c: RationalLike,
    m: int,
    force: bool = False,
) -> VerificationReport:
    """Product side against the terminating series, entirely in rationals.

    Outside the hypotheses the point is reported ``domain_excluded``,
    naming the violated hypothesis, unless ``force`` is set, in which case
    it is evaluated honestly and reported for whatever it turns out to be.
    """
    a = as_rational(a)
    b = as_rational(b)
    c = as_rational(c)
    params = {"a": a, "b": b, "c": c, "m": m}
    violation = saalschutz_hypothesis_violation(a, b, c, m)
    if violation is not None and not force:
        return report_excluded("saalschutz", params, violation)
    try:
        lhs = saalschutz_lhs(a, b, c, m)
        rhs = hyp3f2_terminating(a, b, m, c, 1 + a + b - c - m, 1)
    except ZeroDivisionError as exc:
        return report_excluded("saalschutz", params, str(exc))
    return report_compare("saalschutz", params, lhs, rhs)
