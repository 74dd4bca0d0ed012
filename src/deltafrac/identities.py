"""Machine checks for every identity the sweeps register.

Every verifier computes both sides of an identity along fully independent
paths (operator evaluation against closed form, product against series)
and returns a VerificationReport.  Checks are exact: a report says
``exact`` only when the formal difference of the two sides is the zero
Gamma polynomial.  A verifier raises DomainError for parameters outside
its identity's statement and reports ``domain_excluded`` for the points
the statement names.  Each window sweep (power-rule, mr-ae, leibniz)
takes its list of orders, builds what no order depends on once, and
yields each order's reports as it checks them; the power-rule runner
skips swept orders off the rule and refuses a pinned one.  form1 and
Saalschutz walk one line per (alpha, beta, gamma) or (a, b, c), over n
or m, in generators of the same shape: form1_sweep makes its domain
checks and its prefactor Gamma(beta+gamma+1)/Gamma(beta+1) once per
line and keeps C(-alpha, j) in a table grown by one gen_binomial call
per new j; saalschutz_sweep tests the four hypotheses once per line, in
saalschutz_hypothesis_violation, which takes (a, b, c) alone, and extends
one product run by one ratio per m.  prop_form1_check and
saalschutz_verify are their one-index lines.  The Saalschutz runner
drops excluded points unless pinned or ``force`` is set.  Every n-th
forward difference a verifier uses is gridfn's one int difference, which
delta_n wraps, so each order is checked.  Every hypergeometric run here
(the power rule's (mu+nu+1)_n / n!, the Leibniz weights C(-alpha, n),
form1's two right-side runs, the Saalschutz product side and the
terminating 3F2) is exact._term_ratios of the ups, downs and z its
function's docstring names, stepped by exact._ratio_run or, for the 3F2,
exact._ratio_sum; the binomial sums step their int numerators over one
shared denominator by exact._ratio_run.  That stepper stays on one side
of each identity: the binomial checks' left sides are single products
from poch_int and falling_int, the power-rule and Leibniz left sides
frac_sum_diff windows, form1's left scale poch_int's, and the Saalschutz
series _ratio_sum's.
The Leibniz right side and the alt-sum left side are sums of int columns,
made values by gridfn._materialize, as every operator's output is.  The
Leibniz right side is one gridfn._product of weighted, shifted terms, one
per order n.
No verifier sums Gamma polynomials term by term: form1's right side is
one Gamma value, from falling, times a rational sum.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterable, Iterator

from .errors import DenominatorPochhammerZero, DomainError, WindowTooShort
from .exact import (
    RationalLike,
    _check_index,
    _ratio_run,
    _ratio_sum,
    _term_ratios,
    as_rational,
    gamma_of,
    is_integer,
    is_negative_integer,
    is_nonpositive_integer,
    is_positive_integer,
    poch_int,
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
    "power_rule_sweep",
    "corollary_closed",
    "gamma_sum_check",
    "nabla_zero_check",
    "alt_sum_lemma_check",
    "mr_ae_sweep",
    "leibniz_sweep",
    "form1_sweep",
    "prop_form1_check",
    "hyp3f2_terminating",
    "saalschutz_lhs",
    "saalschutz_hypothesis_violation",
    "saalschutz_sweep",
    "saalschutz_verify",
]


def _binomial_sum(x: Fraction, y: Fraction, n: int, step: int) -> Fraction:
    """sum(C(n,k) * x[n-k] * y[k] for k <= n), x[j] being x(x+step)...(x+(j-1)step).

    step +1 makes the powers rising products, step -1 falling ones.  With
    x = p/q and y = r/s, x[j] is xs[j] / (q s)^j, xs being the run of the
    ints (p + j step q) s, and y[k] likewise, so the sum is one int over the
    one shared (q s)^n, reduced once.
    """
    p, q = x.numerator, x.denominator
    r, s = y.numerator, y.denominator
    xs = [num for num, _ in _ratio_run(((p + j * step * q) * s, 1) for j in range(n))]
    ys = [num for num, _ in _ratio_run(((r + j * step * s) * q, 1) for j in range(n))]
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
    _check_index("n", n)
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


def _check_power_rule_orders(mu: Fraction | None = None, nu: Fraction | None = None) -> None:
    violation = power_rule_order_violation(mu, nu)
    if violation is not None:
        raise DomainError(violation)


def power_rule_closed(
    a: RationalLike, mu: RationalLike, nu: RationalLike, length: int
) -> GridFunction:
    """Closed form of the order-nu sum of a falling power, as a window.

    The window lies on the output grid {a+mu+nu, a+mu+nu+1, ...}; its value
    at offset n is Gamma(mu+1) * (mu+nu+1)_n / n!, one Gamma term times
    entry n of the run with ups [mu+nu+1] over downs [1].
    """
    a = as_rational(a)
    mu = as_rational(mu)
    nu = as_rational(nu)
    _check_power_rule_orders(mu, nu)
    gamma = gamma_of(mu + 1)
    run = _ratio_run(_term_ratios([mu + nu + 1], [1], 1))
    return GridFunction(a + mu + nu, [gamma * Fraction(num, den) for num, den in islice(run, length)])


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


def power_rule_sweep(
    a: RationalLike, mu: RationalLike, nus: Iterable[RationalLike], n_max: int
) -> Iterator[VerificationReport]:
    """Operator evaluation against the closed form at each order nu, for every offset <= n_max.

    The left side runs the convolution over the falling power (t-a) falling
    mu, sampled once, at the first order, and shared by every order; the
    right side is each order's closed window on the grid a+mu+nu, built
    before the left side, so an order off the rule raises DomainError
    after the earlier orders' reports, and with nothing sampled when it is
    the first.  The two paths share nothing past the weight recurrence, so
    exact agreement is meaningful.
    """
    a = as_rational(a)
    mu = as_rational(mu)
    _check_index("n_max", n_max)
    falling_power = None
    for nu in map(as_rational, nus):
        closed = power_rule_closed(a, mu, nu, n_max + 1)
        if falling_power is None:
            falling_power = sample_falling_power(a, mu, n_max + 1)
        yield from _compare_windows(
            "power-rule",
            lambda n: {"a": a, "mu": mu, "nu": nu, "N": n},
            frac_sum_diff(falling_power, nu),
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
    _check_index("n", n)
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
    _check_index("k", k)
    if t_index < 0:
        raise DomainError(f"t_index must be a nonnegative integer (got {t_index})")
    params = {"alpha": alpha, "k": k, "t_index": t_index}
    if t_index > len(g) - 1:
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
    lhs = _materialize(
        g.origin, {signature: ([sums[signature]], den) for signature, (_, den) in columns.items()}, 1
    ).values[0]
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


def mr_ae_sweep(f: GridFunction, mus: Iterable[RationalLike], window: int) -> Iterator[VerificationReport]:
    """ae_frac_diff(f, mu) against the order -mu sum, ceil(mu) points on, per mu; window labels reports."""
    for mu in map(as_rational, mus):
        n = math.ceil(mu)
        stepped = ae_frac_diff(f, mu)
        direct = frac_sum_diff(f, -mu)
        yield from _compare_windows(
            "mr-ae",
            lambda k: {"window": window, "mu": mu, "t": stepped.point(k)},
            stepped,
            GridFunction._adopt(direct.point(n), direct.values[n:]),
        )


def leibniz_sweep(
    f: GridFunction, g: GridFunction, alphas: Iterable[RationalLike]
) -> Iterator[VerificationReport]:
    """Product-rule check at each order alpha, at every point of the window f and g share.

    The left side is frac_sum_diff of f * g.  The right side, on origin +
    alpha, is sum_n C(-alpha, n) (Delta^-(alpha+n) f)(t-n) (Delta^n g)(t-n)
    on int columns: order n is one term of gridfn's column product, f's
    columns convolved at order alpha+n over the length - n entries kept,
    times g's n-th difference columns, weighted by C(-alpha, n) and landed
    n entries on; the product sums the terms, materialized once.
    C(-alpha, n) is the run with ups [alpha] over downs [1] at z = -1,
    unreduced as the columns are.  f * g and g's difference columns depend
    on no order, so they are built once, before any order is checked.
    """
    product = f * g
    length = len(product)
    differences = [_difference(g._columns, n) for n in range(length)]
    for alpha in map(as_rational, alphas):
        if is_nonpositive_integer(alpha):
            raise DomainError(f"alpha must not be a nonpositive integer (got {alpha})")
        lhs = frac_sum_diff(product, alpha)
        weights = _ratio_run(_term_ratios([alpha], [1], -1))
        terms = [
            (_convolve(f._columns, alpha + n, length - n), difference, n, weight)
            for n, (difference, weight) in enumerate(zip(differences, weights))
        ]
        yield from _compare_windows(
            "leibniz",
            lambda t: {"alpha": alpha, "t_index": t},
            lhs,
            _materialize(f.origin + alpha, _product(terms, length), length),
        )


def form1_sweep(
    alpha: RationalLike, beta: RationalLike, gamma: RationalLike, ns: Iterable[int]
) -> Iterator[VerificationReport]:
    """Gamma-ratio closed form of a binomially weighted double family, at each offset n of ns.

    Checks, at offset n >= 0 with t = alpha + beta + gamma + n,

        Gamma(beta+gamma+1)/(n! Gamma(beta+1)) * (alpha+beta+gamma+1)_n
          = sum_j C(-alpha,j) (alpha+beta+j+1)_{n-j}/(n-j)!
                  * falling(gamma,j) * falling(beta+gamma+n-j, gamma-j)

    requiring alpha not a nonpositive integer and beta, beta+gamma not
    negative integers.  No summand's Gamma part is a pole or zero:
    falling(beta+gamma+n-j, gamma-j) is Gamma(beta+gamma+n-j+1) /
    Gamma(beta+n+1), and beta+gamma+n-j and beta+n are each either not an
    integer or at least 0.  So summand j's Gamma part is summand 0's,
    falling(beta+gamma+n, gamma), taken once, times the rational
    1/((beta+gamma+n)(beta+gamma+n-1)...(beta+gamma+n-j+1)), and the
    right side is that one value times the sum of the summands' rationals.
    The left scale is poch_int's.  On the right,
    (alpha+beta+j+1)_{n-j}/(n-j)! is entry n-j of the run with ups
    [-(alpha+beta+n)] over downs [1] at z = -1, falling(gamma, j) times the
    Gamma part's rational is entry j of the run with ups [-gamma] over
    downs [-(beta+gamma+n)], and C(-alpha, j) is gen_binomial's.

    The line (alpha, beta, gamma) makes its three domain checks, before any
    offset, and its prefactor Gamma(beta+gamma+1)/Gamma(beta+1) once, and
    keeps C(-alpha, j) in a table that grows by one gen_binomial call for
    each j an offset first reads.  The left scale, both right-side runs and
    falling(beta+gamma+n, gamma) are each offset's own, and a negative
    offset raises DomainError after the earlier offsets' reports.
    """
    alpha = as_rational(alpha)
    beta = as_rational(beta)
    gamma = as_rational(gamma)
    if is_nonpositive_integer(alpha):
        raise DomainError(f"alpha must not be a nonpositive integer (got {alpha})")
    if is_negative_integer(beta):
        raise DomainError(f"beta must not be a negative integer (got {beta})")
    if is_negative_integer(beta + gamma):
        raise DomainError(
            f"beta+gamma must not be a negative integer (got {beta + gamma})"
        )
    prefactor = gamma_of(beta + gamma + 1) / gamma_of(beta + 1)
    minus_ab, minus_bg, minus_gamma = -(alpha + beta), -(beta + gamma), -gamma
    binomials: list[Fraction] = []
    for n in ns:
        _check_index("n", n)
        binomials += [gen_binomial(-alpha, j) for j in range(len(binomials), n + 1)]
        scale = poch_int(alpha + beta + gamma + 1, n) / math.factorial(n)
        lhs = prefactor * scale
        first = falling(beta + gamma + n, gamma).as_polynomial()
        rises = list(_ratio_run(_term_ratios([minus_ab - n], [1], -1, n)))
        forwards = _ratio_run(_term_ratios([minus_gamma], [minus_bg - n], 1, n))
        total = Fraction(0)
        for binomial, (rise_num, rise_den), (num, den) in zip(binomials, reversed(rises), forwards):
            total += binomial * Fraction(rise_num * num, rise_den * den)
        params = {"alpha": alpha, "beta": beta, "gamma": gamma, "N": n}
        yield report_compare("form1", params, lhs, first * total)


def prop_form1_check(
    alpha: RationalLike, beta: RationalLike, gamma: RationalLike, n: int
) -> VerificationReport:
    """form1_sweep's report at the one offset n."""
    return next(form1_sweep(alpha, beta, gamma, [n]))


def hyp3f2_terminating(
    a1: RationalLike,
    a2: RationalLike,
    m: int,
    b1: RationalLike,
    b2: RationalLike,
    z: RationalLike,
) -> Fraction:
    """Terminating 3F2 series: sum over k <= m of the Pochhammer ratio.

    It is exact._ratio_sum of the run with ups [a1, a2, -m] over downs
    [b1, b2, 1] at z, which stops after m+1 terms.  Both lower parameters
    must keep their Pochhammer factors nonzero through k = m; a hit raises
    DenominatorPochhammerZero naming the first offending k.
    """
    a1 = as_rational(a1)
    a2 = as_rational(a2)
    b1 = as_rational(b1)
    b2 = as_rational(b2)
    z = as_rational(z)
    _check_index("m", m)
    for name, b in (("b1", b1), ("b2", b2)):
        if is_integer(b) and -m < b <= 0:
            first_zero_k = int(1 - b)
            raise DenominatorPochhammerZero(
                f"({name})_k vanishes at k={first_zero_k} for {name}={b}"
            )
    return _ratio_sum(_term_ratios([a1, a2, -m], [b1, b2, 1], z, m))


def _saalschutz_products(a: Fraction, b: Fraction, c: Fraction) -> Callable[[int], Fraction]:
    """m -> the product side (c-a)_m (c-b)_m / ((c)_m (c-a-b)_m) at m.

    It is entry m of the run with ups [c-a, c-b] over downs [c, c-a-b].  A
    call raises DenominatorPochhammerZero naming a vanishing (c)_m, then
    (c-a-b)_m; otherwise it steps the run on to m, so no ratio is taken
    before an m reads it.  An m below the last one read starts the run over.
    """
    cab = c - a - b
    run, index, product = None, 0, None

    def at(m: int) -> Fraction:
        nonlocal run, index, product
        # (x)_m vanishes when x is an integer with -m < x <= 0
        for name, x in (("c", c), ("c-a-b", cab)):
            if x.denominator == 1 and -m < x.numerator <= 0:
                raise DenominatorPochhammerZero(f"({name})_m vanishes for {name}={x}, m={m}")
        if run is None or m < index:
            run = _ratio_run(_term_ratios([c - a, c - b], [c, cab], 1))
            index, product = 0, next(run)
        for _ in range(m - index):
            product = next(run)
        index = m
        return Fraction(*product)

    return at


def saalschutz_lhs(
    a: RationalLike, b: RationalLike, c: RationalLike, m: int
) -> Fraction:
    """Product side of the terminating summation: one hypergeometric run.

    The run and its zero checks are _saalschutz_products', which names a
    vanishing (c)_m, then (c-a-b)_m, in a DenominatorPochhammerZero.
    """
    a = as_rational(a)
    b = as_rational(b)
    c = as_rational(c)
    _check_index("m", m)
    return _saalschutz_products(a, b, c)(m)


def saalschutz_hypothesis_violation(a: RationalLike, b: RationalLike, c: RationalLike) -> str | None:
    """Name the first of the theorem's four hypotheses that (a, b, c) violates, or None.

    The hypotheses are on a, b and c alone, so no index m is taken here;
    saalschutz_sweep refuses a negative m at each point.
    """
    a = as_rational(a)
    b = as_rational(b)
    c = as_rational(c)
    if is_nonpositive_integer(a):
        return "a must not be a nonpositive integer"
    if is_nonpositive_integer(c):
        return "c must not be a nonpositive integer"
    if is_negative_integer(c - a - 1):
        return "c-a-1 must not be a negative integer"
    if is_negative_integer(c - a - b - 1):
        return "c-a-b-1 must not be a negative integer"
    return None


def saalschutz_sweep(
    a: RationalLike,
    b: RationalLike,
    c: RationalLike,
    ms: Iterable[int],
    force: bool = False,
) -> Iterator[VerificationReport]:
    """Product side against the terminating series at each m of ms, entirely in rationals.

    The line (a, b, c) tests the four hypotheses once, through
    saalschutz_hypothesis_violation, and its product side is one run
    extended by one ratio per m (_saalschutz_products).  Each m keeps its
    own refusal of a negative m, made before any exclusion, its test for a
    vanishing (c)_m or (c-a-b)_m, and its series.  Outside the hypotheses a
    point is reported ``domain_excluded``, naming the violated hypothesis,
    unless ``force`` is set, in which case it is evaluated honestly and
    reported for whatever it turns out to be.
    """
    a = as_rational(a)
    b = as_rational(b)
    c = as_rational(c)
    violation = saalschutz_hypothesis_violation(a, b, c)
    products = _saalschutz_products(a, b, c)
    for m in ms:
        params = {"a": a, "b": b, "c": c, "m": m}
        _check_index("m", m)
        if violation is not None and not force:
            yield report_excluded("saalschutz", params, violation)
            continue
        try:
            lhs = products(m)
            rhs = hyp3f2_terminating(a, b, m, c, 1 + a + b - c - m, 1)
        except DenominatorPochhammerZero as exc:
            yield report_excluded("saalschutz", params, str(exc))
        else:
            yield report_compare("saalschutz", params, lhs, rhs)


def saalschutz_verify(
    a: RationalLike,
    b: RationalLike,
    c: RationalLike,
    m: int,
    force: bool = False,
) -> VerificationReport:
    """saalschutz_sweep's report at the one m."""
    return next(saalschutz_sweep(a, b, c, [m], force))
