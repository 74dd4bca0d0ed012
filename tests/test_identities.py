"""Identity verifiers: frozen oracles plus structural properties."""
import ast
import math
import re
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from deltafrac import (
    DenominatorPochhammerZero,
    DomainError,
    GammaPolynomial,
    GridFunction,
    WindowTooShort,
    alt_sum_lemma_check,
    as_polynomial,
    binom_falling_check,
    binom_poch_check,
    corollary_closed,
    delta_n,
    form1_sweep,
    frac_sum_diff,
    gamma_of,
    gamma_sum_check,
    gen_binomial,
    hyp3f2_terminating,
    leibniz_sweep,
    nabla_zero_check,
    parse_gamma_polynomial,
    poch_int,
    power_rule_closed,
    power_rule_sweep,
    prop_form1_check,
    saalschutz_lhs,
    saalschutz_sweep,
    saalschutz_verify,
)
from deltafrac import fracops, gridfn, identities
from deltafrac.exact import _ratio_run, weighted_sum
from deltafrac.identities import mr_ae_sweep, power_rule_order_violation, saalschutz_hypothesis_violation
from deltafrac.report import report_compare, report_excluded
from deltafrac.special import falling, falling_int
from deltafrac.sweeps import default_suite, run_identity, run_sweep

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=5)
orders = rationals.filter(lambda q: not (q.denominator == 1 and q <= 0))
# integers too, where a rising or falling run of factors reaches zero
run_starts = st.one_of(rationals, st.integers(min_value=-6, max_value=6).map(Q))


class TestBinomialChecks:
    def test_falling_point(self):
        rep = binom_falling_check(3, 4, 2)
        assert rep.status == "exact"
        assert rep.identity == "binom-falling"
        assert rep.lhs == "42"

    def test_poch_point(self):
        rep = binom_poch_check(1, 1, 2)
        assert rep.status == "exact"
        assert rep.lhs == "6"

    @given(rationals, rationals, st.integers(min_value=0, max_value=12))
    @settings(max_examples=60)
    def test_always_exact(self, x, y, n):
        assert binom_falling_check(x, y, n).status == "exact"
        assert binom_poch_check(x, y, n).status == "exact"

    @pytest.mark.parametrize("step, power", [(1, poch_int), (-1, falling_int)])
    @given(x=run_starts, y=run_starts, n=st.integers(min_value=0, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_the_int_sum_matches_the_termwise_sum(self, step, power, x, y, n):
        termwise = sum(math.comb(n, k) * power(x, n - k) * power(y, k) for k in range(n + 1))
        assert identities._binomial_sum(x, y, n, step) == termwise


class TestPowerRule:
    def test_closed_form_values(self):
        window = power_rule_closed(0, 0, Q(1, 2), 3)
        assert [v.render() for v in window.values] == ["1", "3/2", "15/8"]
        assert power_rule_closed(0, Q(1, 2), Q(1, 2), 1).values == (gamma_of(Q(3, 2)) * 1,)

    @given(
        rationals.filter(lambda q: not (q.denominator == 1 and q < 0)),
        st.one_of(rationals, st.sampled_from([Q(0), Q(-1), Q(-2)])),
        st.integers(min_value=1, max_value=14),
    )
    @settings(max_examples=60)
    def test_closed_window_matches_the_rising_products(self, mu, total, length):
        # total = mu+nu+1; at 0, -1 and -2 the rising product reaches zero
        nu = total - 1 - mu
        assume(power_rule_order_violation(mu, nu) is None)
        values = [gamma_of(mu + 1) * (poch_int(total, n) / math.factorial(n)) for n in range(length)]
        assert power_rule_closed(0, mu, nu, length) == GridFunction(mu + nu, values)

    def test_closed_windows_lie_on_a_plus_mu_plus_nu(self):
        a, mu, nu = Q(1, 4), Q(1, 2), Q(1, 3)
        assert power_rule_closed(a, mu, nu, 4).points() == [a + mu + nu + n for n in range(4)]
        assert corollary_closed(a, mu, nu, 4).points() == [a + mu + nu + n for n in range(4)]

    def test_vanishing_corollary_starts_on_a(self):
        # mu + nu = -2: the closed window starts on a - 2, the zeros on a
        a, mu, nu = Q(1, 4), Q(1, 2), Q(-5, 2)
        assert power_rule_closed(a, mu, nu, 5).origin == a - 2
        zeros = corollary_closed(a, mu, nu, 5)
        assert zeros.origin == a
        assert [v.is_zero for v in zeros.values] == [True] * 3

    @pytest.mark.parametrize(
        "closed, mu, nu, length",
        [
            (power_rule_closed, Q(1, 2), Q(1, 2), 0),
            (corollary_closed, Q(1, 2), Q(1, 2), 0),
            (corollary_closed, Q(1, 2), Q(-5, 2), 2),
            (corollary_closed, Q(1, 2), Q(-5, 2), 1),
        ],
    )
    def test_an_empty_window_is_too_short(self, closed, mu, nu, length):
        with pytest.raises(WindowTooShort, match="^a grid function needs at least one value$"):
            closed(0, mu, nu, length)

    def test_one_order_check_and_one_gamma_per_point(self, monkeypatch):
        calls = {"gamma_of": 0, "power_rule_order_violation": 0}

        def counted(name):
            original = getattr(identities, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(identities, name, counted(name))
        assert len(list(power_rule_sweep(0, Q(1, 2), [Q(1, 2)], 12))) == 13
        assert calls == {"gamma_of": 1, "power_rule_order_violation": 1}

    def test_verify_sweep_all_exact(self):
        reports = list(power_rule_sweep(0, Q(1, 2), [Q(1, 2)], 8))
        assert len(reports) == 9
        assert all(r.status == "exact" for r in reports)
        assert reports[0].identity == "power-rule"
        assert reports[0].params["N"] == 0

    def test_vanishing_when_total_order_is_negative_integer(self):
        # mu + nu = -1: the transform must vanish from N = 1 on
        reports = list(power_rule_sweep(Q(1, 4), Q(1, 2), [Q(-3, 2)], 5))
        assert all(r.status == "exact" for r in reports)
        assert reports[1].lhs == "0" and reports[1].rhs == "0"
        assert reports[0].lhs != "0"

    def test_corollary_closed_matches_transform(self):
        closed = corollary_closed(0, Q(1, 3), Q(1, 2), 6)
        direct = power_rule_closed(0, Q(1, 3), Q(1, 2), 6)
        assert closed == direct

    def test_corollary_closed_vanishing_branch(self):
        # mu + nu = -2: zero from t = 0 on, two points into the closed window
        zeros = corollary_closed(0, Q(1, 2), Q(-5, 2), 8)
        direct = power_rule_closed(0, Q(1, 2), Q(-5, 2), 8)
        assert zeros.points() == direct.points()[2:]
        assert [v.is_zero for v in zeros.values] == [True] * 6
        assert direct.values[2:] == zeros.values

    def test_integer_mu_gives_plain_numbers(self):
        # mu = 0, nu = 1: running sums of t^0 are N + 1
        window = corollary_closed(0, 0, 1, 5)
        assert window.origin == 1
        assert list(window.values) == [n + 1 for n in range(5)]

    def test_parameter_validation(self):
        with pytest.raises(DomainError, match=r"mu must not be a negative integer \(got -2\)"):
            list(power_rule_sweep(0, -2, [Q(1, 2)], 3))  # mu negative integer
        with pytest.raises(DomainError):
            list(power_rule_sweep(0, Q(1, 2), [-1], 3))  # nu nonpositive integer
        with pytest.raises(DomainError, match="n_max must be a nonnegative integer"):
            list(power_rule_sweep(0, Q(1, 2), [Q(1, 2)], -1))

    @given(
        a=rationals,
        mu=rationals.filter(lambda q: not (q.denominator == 1 and q < 0)),
        nus=st.lists(orders, min_size=1, max_size=4),
        n_max=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_a_sweep_reports_as_its_orders_checked_one_by_one(self, a, mu, nus, n_max):
        swept = [rep.to_json_dict() for rep in power_rule_sweep(a, mu, nus, n_max)]
        one_by_one = [rep.to_json_dict() for nu in nus for rep in power_rule_sweep(a, mu, [nu], n_max)]
        assert swept == one_by_one

    @pytest.mark.parametrize(
        "mu, nu, message",
        [
            (-1, Q(1, 2), r"^mu must not be a negative integer \(got -1\)$"),
            (Q(1, 2), -1, r"^nu must not be a nonpositive integer \(got -1\)$"),
        ],
    )
    def test_the_order_check_runs_before_sampling(self, monkeypatch, mu, nu, message):
        def never(*args):
            raise AssertionError("sampled an order off the power rule")

        monkeypatch.setattr(identities, "sample_falling_power", never)
        with pytest.raises(DomainError, match=message):
            list(power_rule_sweep(0, mu, [nu], 2))


class TestCompareWindows:
    def label(self, k):
        return {"k": k}

    def test_different_origins_name_both_points(self):
        lhs = GridFunction(Q(5, 2), [1, 2, 3])
        rhs = GridFunction(Q(3, 2), [1, 2, 3])
        reports = identities._compare_windows("demo", self.label, lhs, rhs)
        assert [r.status for r in reports] == ["mismatch"] * 3
        assert [(r.lhs, r.rhs) for r in reports] == [
            ("t=5/2", "t=3/2"), ("t=7/2", "t=5/2"), ("t=9/2", "t=7/2")
        ]
        assert [r.params for r in reports] == [{"k": 0}, {"k": 1}, {"k": 2}]
        assert all(r.abs_float_gap is None for r in reports)

    def test_equal_origins_compare_values(self):
        lhs = GridFunction(Q(1, 2), [1, gamma_of(Q(1, 3)), 3])
        rhs = GridFunction(Q(1, 2), [1, gamma_of(Q(1, 3)), 4])
        reports = identities._compare_windows("demo", self.label, lhs, rhs)
        assert [r.status for r in reports] == ["exact", "exact", "mismatch"]
        assert (reports[1].lhs, reports[1].rhs) == ("1*G(1/3)^1", "1*G(1/3)^1")
        assert (reports[2].lhs, reports[2].rhs, reports[2].abs_float_gap) == ("3", "4", 1.0)


class TestGammaSum:
    def test_zero_identity_point(self):
        rep = gamma_sum_check(Q(1, 2), Q(-5, 2), 2)
        assert rep.status == "exact"
        assert rep.rhs == "0"

    def test_below_threshold_is_excluded(self):
        rep = gamma_sum_check(Q(1, 2), Q(-5, 2), 1)
        assert rep.status == "domain_excluded"
        assert "n must be at least" in rep.excluded_by
        # the boundary sum is attached and is not zero there
        assert rep.lhs not in ("", "0")

    def test_hypothesis_validation(self):
        with pytest.raises(DomainError):
            gamma_sum_check(Q(1, 2), Q(-1, 2), 2)  # mu + nu not a negative integer

    def test_full_sweep(self):
        for mu in (Q(1, 2), Q(1, 3)):
            for m in (1, 2, 3):
                nu = -m - mu
                for n in range(m, m + 9):
                    assert gamma_sum_check(mu, nu, n).status == "exact"


class TestNablaZero:
    def test_vanishing_points(self):
        for t_index in range(2, 9):
            assert nabla_zero_check(0, Q(1, 2), Q(3, 2), t_index).status == "exact"

    def test_below_threshold_is_excluded_with_boundary(self):
        rep = nabla_zero_check(0, Q(1, 2), Q(3, 2), 1)
        assert rep.status == "domain_excluded"
        assert "t_index must be at least" in rep.excluded_by
        assert rep.lhs == "1/2*G(1/2)^1"  # the nonzero counterexample value

    def test_hypothesis_validation(self):
        with pytest.raises(DomainError, match="alpha - p must be a positive integer"):
            nabla_zero_check(0, Q(1, 2), Q(1, 3), 2)


class TestAltSum:
    def test_lemma_point(self):
        g = GridFunction(0, [Q(k) for k in range(6)])
        rep = alt_sum_lemma_check(g, Q(1, 2), 2, 4)
        assert rep.status == "exact"

    def test_shifted_grid_exclusion(self):
        g = GridFunction(0, [1, 2, 3, 4])
        rep = alt_sum_lemma_check(g, Q(1, 2), 3, 1)
        assert rep.status == "domain_excluded"

    def test_window_too_short(self):
        g = GridFunction(0, [1, 2])
        with pytest.raises(WindowTooShort):
            alt_sum_lemma_check(g, Q(1, 2), 1, 5)

    def test_negative_t_index_is_a_domain_error(self):
        g = GridFunction(0, [1, 2])
        with pytest.raises(DomainError, match=r"t_index must be a nonnegative integer \(got -1\)"):
            alt_sum_lemma_check(g, Q(1, 2), 0, -1)

    @given(st.data(), rationals, rationals)
    @settings(max_examples=60, deadline=None)
    def test_left_side_matches_the_delta_n_windows(self, data, origin, alpha):
        g = data.draw(_gamma_windows(origin, most_signatures=3))
        k = data.draw(st.integers(min_value=0, max_value=len(g) - 1))
        t_index = data.draw(st.integers(min_value=k, max_value=len(g) - 1))
        lhs = weighted_sum(
            (delta_n(g, n).values[t_index - n], (-1) ** n * math.comb(k, n)) for n in range(k + 1)
        )
        rep = alt_sum_lemma_check(g, alpha, k, t_index)
        assert rep.status == "exact"
        assert rep.lhs == lhs.render()


class TestLeibniz:
    def test_product_with_constant(self):
        f = GridFunction(0, [1] * 6)
        g = GridFunction(0, [Q(k) for k in range(6)])
        rep = list(leibniz_sweep(f, g, [Q(1, 2)]))[3]
        assert rep.status == "exact"
        assert rep.lhs == "35/8"

    def test_sweep_is_exact_for_gamma_valued_windows(self):
        f = GridFunction(0, [gamma_of(Q(1, 2)), 1, Q(-2, 3), 2, Q(1, 5)])
        g = GridFunction(0, [Q(2), Q(-1), Q(1, 3), Q(4), Q(-5, 2)])
        for rep in leibniz_sweep(f, g, [Q(5, 2)]):
            assert rep.status == "exact"

    def test_orders_cover_the_window(self):
        f = GridFunction(0, [1] * 4)
        g = GridFunction(0, [1] * 4)
        reports = list(leibniz_sweep(f, g, [Q(1, 3)]))
        assert [r.params["t_index"] for r in reports] == [0, 1, 2, 3]

    def test_rejects_different_origins(self):
        f = GridFunction(0, [1] * 4)
        g = GridFunction(Q(1, 2), [1] * 4)
        with pytest.raises(DomainError, match="^cannot multiply grid functions with different origins$"):
            list(leibniz_sweep(f, g, [Q(1, 2)]))

    @pytest.mark.parametrize("alpha", [0, -1, -2])
    def test_rejects_a_nonpositive_integer_order(self, alpha):
        f = GridFunction(0, [1] * 4)
        with pytest.raises(DomainError, match=rf"^alpha must not be a nonpositive integer \(got {alpha}\)$"):
            list(leibniz_sweep(f, f, [alpha]))


def _expansion_from_windows(f, g, alpha):
    """The Leibniz right side built from windows: frac_sum_diff values times delta_n values,
    weighted by gen_binomial through weighted_sum."""
    length = min(len(f), len(g))
    transforms = [frac_sum_diff(f, alpha + n) for n in range(length)]
    differences = [delta_n(g, n) for n in range(length)]
    return GridFunction(f.origin + alpha, [
        weighted_sum(
            (transforms[n].values[t - n] * differences[n].values[t - n], gen_binomial(-alpha, n))
            for n in range(t + 1)
        )
        for t in range(length)
    ])


# four factor signatures: G(1/2) times G(1/2)^-1 merges into (), and so does () times ()
_SIGNATURES = [(), ((Q(1, 2), 1),), ((Q(1, 2), -1),), ((Q(1, 3), 1), (Q(1, 2), -1))]


@st.composite
def _gamma_windows(draw, origin, lengths=st.integers(min_value=1, max_value=8), most_signatures=2):
    """A window of lengths values on origin, each a combination of the same 1 to most_signatures signatures."""
    signatures = draw(st.lists(st.sampled_from(_SIGNATURES), min_size=1, max_size=most_signatures, unique=True))
    length = draw(lengths)
    return GridFunction(origin, [
        GammaPolynomial({signature: draw(rationals) for signature in signatures})
        for _ in range(length)
    ])


@given(st.data(), rationals)
@settings(max_examples=60, deadline=None)
def test_the_window_product_is_the_product_of_values(data, origin):
    # leibniz's two sides share the column product, so a fault in it that
    # scaled every product alike would cancel there; the value products see it
    f = data.draw(_gamma_windows(origin))
    g = data.draw(_gamma_windows(origin))
    assert f * g == GridFunction(origin, [a * b for a, b in zip(f.values, g.values)])


def _assert_right_sides_match_the_windows(f, g, alpha):
    """Each report's right side is the expansion built from windows, by its rendering."""
    reports = list(leibniz_sweep(f, g, [alpha]))
    expansion = _expansion_from_windows(f, g, alpha)
    assert [rep.rhs for rep in reports] == [value.render() for value in expansion.values]
    return reports


class TestLeibnizExpansion:
    def test_signature_pairs_that_merge_are_added(self):
        half = as_polynomial(gamma_of(Q(1, 2)))
        inverse = as_polynomial(1) / gamma_of(Q(1, 2))
        f = GridFunction(Q(1, 3), [half + 1, 2 * half - Q(1, 3), Q(5, 2), 4 - half, half, 3])
        g = GridFunction(Q(1, 3), [inverse - 2, 2 * inverse + 1, inverse, -3, 3 * inverse, 1])
        alpha = Q(3, 2)
        reports = _assert_right_sides_match_the_windows(f, g, alpha)
        # (G(1/2), G(1/2)^-1) and ((), ()) both land on the rational signature
        assert set().union(*[parse_gamma_polynomial(rep.rhs).terms() for rep in reports]) == {
            (), ((Q(1, 2), 1),), ((Q(1, 2), -1),)
        }
        assert {rep.status for rep in reports} == {"exact"}

    @given(st.data(), rationals, orders)
    @settings(max_examples=60, deadline=None)
    def test_matches_the_expansion_built_from_windows(self, data, origin, alpha):
        f = data.draw(_gamma_windows(origin))
        g = data.draw(_gamma_windows(origin))
        reports = _assert_right_sides_match_the_windows(f, g, alpha)
        assert {rep.status for rep in reports} == {"exact"}

    @given(st.data(), rationals, orders, st.sampled_from([(30, 40), (57, 63)]))
    @settings(max_examples=10, deadline=None)
    def test_long_windows_match_the_expansion_built_from_windows(self, data, origin, alpha, bounds):
        # order n convolves length - n points, so the orders cross the packed
        # kernel's threshold; f may be the longer window, whose columns are cut
        lengths = st.integers(min_value=bounds[0], max_value=bounds[1])
        f = data.draw(_gamma_windows(origin, lengths))
        g = data.draw(_gamma_windows(origin, lengths))
        _assert_right_sides_match_the_windows(f, g, alpha)

    def test_order_free_work_is_done_once_per_window(self, monkeypatch):
        # f * g and g's difference columns depend on no order: three orders
        # over one window take L differences and one product, not 3 L and 3
        calls = {"_difference": 0, "__mul__": 0}

        def counted(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        monkeypatch.setattr(identities, "_difference", counted("_difference", identities._difference))
        monkeypatch.setattr(GridFunction, "__mul__", counted("__mul__", GridFunction.__mul__))
        length = 7
        f = GridFunction(Q(1, 3), [Q(k % 4 - 1, 1 + k % 3) for k in range(length)])
        g = GridFunction(Q(1, 3), [Q(k**2 - 5, 2) + (k % 2) * as_polynomial(gamma_of(Q(1, 2))) for k in range(length)])
        reports = list(leibniz_sweep(f, g, [Q(1, 2), Q(-1, 3), Q(5, 2)]))
        assert [rep.params["alpha"] for rep in reports] == [Q(1, 2)] * length + [Q(-1, 3)] * length + [Q(5, 2)] * length
        assert {rep.status for rep in reports} == {"exact"}
        assert calls == {"_difference": length, "__mul__": 1}


def test_a_fault_at_difference_order_3_is_a_mismatch(monkeypatch):
    # alt-sum takes order 3 through delta_n, which calls gridfn's binding, and
    # leibniz takes it from the binding in identities; the fault patches both
    original = gridfn._difference

    def faulty(columns, n):
        out = original(columns, n)
        if n != 3:
            return out
        return {
            signature: ([x * 2 if k == 2 else x for k, x in enumerate(numerators)], den)
            for signature, (numerators, den) in out.items()
        }

    monkeypatch.setattr(gridfn, "_difference", faulty)
    monkeypatch.setattr(identities, "_difference", faulty)
    g = GridFunction(0, [Q(k**4) for k in range(7)])
    alt_sum = alt_sum_lemma_check(g, Q(1, 2), 4, 5)
    leibniz = leibniz_sweep(GridFunction(0, [1] * 7), g, [Q(1, 2)])
    assert alt_sum.status == "mismatch"
    assert "mismatch" in [rep.status for rep in leibniz]


def test_a_fault_in_the_packed_kernel_is_a_mismatch(monkeypatch):
    # windows of 32 points or more take the packed convolution, which no window
    # of the default suite reaches; the fault doubles one output slot per block
    original = fracops._packed_dots

    def faulty(columns, weights, length):
        return {
            signature: [x * 2 if k % fracops._BLOCK == 3 else x for k, x in enumerate(outputs)]
            for signature, outputs in original(columns, weights, length).items()
        }

    f = GridFunction(0, [Q(k % 5 - 2, 1 + k % 3) for k in range(40)])
    g = GridFunction(0, [Q(k**2 - 7, 3) + (k % 2) * as_polynomial(gamma_of(Q(1, 2))) for k in range(40)])

    def statuses():
        power_rule = power_rule_sweep(Q(1, 3), Q(1, 2), [Q(-1, 3)], 63)
        return {rep.status for rep in power_rule}, {rep.status for rep in leibniz_sweep(f, g, [Q(1, 2)])}

    assert statuses() == ({"exact"}, {"exact"})
    monkeypatch.setattr(fracops, "_packed_dots", faulty)
    power_rule, leibniz = statuses()
    assert "mismatch" in power_rule
    assert "mismatch" in leibniz


def test_a_fault_in_the_ratio_stepper_is_a_mismatch(monkeypatch):
    # the binomial sums, the power rule's closed side and the Leibniz weights run
    # through identities' binding of _ratio_run; the 3F2 and the nabla sum through
    # the bindings of _ratio_sum in identities and fracops
    def ratio_2_doubled(original):
        return lambda ratios: original((n * 2 if k == 2 else n, d) for k, (n, d) in enumerate(ratios))

    configs = {config.identity: config for config in default_suite()}

    def statuses(identity):
        return {rep.status for rep in run_sweep(configs[identity])}

    checked = ("gamma-sum", "nabla-zero", "saalschutz")
    assert all("mismatch" not in statuses(identity) for identity in checked)
    for module, name in ((identities, "_ratio_run"), (identities, "_ratio_sum"), (fracops, "_ratio_sum")):
        monkeypatch.setattr(module, name, ratio_2_doubled(getattr(module, name)))
    for identity in checked:
        assert "mismatch" in statuses(identity)


def test_a_fault_in_the_ratio_run_alone_reaches_saalschutz_and_form1(monkeypatch):
    # the Saalschutz product side and form1's right-side coefficients step through
    # identities' binding of _ratio_run; the 3F2 side keeps _ratio_sum, and form1's
    # left scale poch_int, so the fault sits on one side of each identity
    original = identities._ratio_run
    configs = {config.identity: config for config in default_suite()}

    def statuses(identity):
        return {rep.status for rep in run_sweep(configs[identity])}

    checked = ("saalschutz", "form1")
    assert all("mismatch" not in statuses(identity) for identity in checked)
    monkeypatch.setattr(
        identities,
        "_ratio_run",
        lambda ratios: original((n * 2 if k == 2 else n, d) for k, (n, d) in enumerate(ratios)),
    )
    for identity in checked:
        assert "mismatch" in statuses(identity)


class TestMrAe:
    f = GridFunction(Q(1, 3), [Q(2), Q(-1), Q(1, 3), gamma_of(Q(1, 2)), Q(-5, 2), Q(4)])

    @pytest.mark.parametrize("mu", [Q(1, 3), Q(1, 2), Q(3, 2), Q(7, 3)])
    def test_exact_at_every_output_point(self, mu):
        reports = list(mr_ae_sweep(self.f, [mu], 7))
        assert len(reports) == len(self.f) - math.ceil(mu)
        assert {r.status for r in reports} == {"exact"}
        assert reports[0].params == {"window": 7, "mu": mu, "t": self.f.origin + math.ceil(mu) - mu}

    def test_a_perturbed_direct_side_is_a_mismatch(self, monkeypatch):
        frac_sum_diff = identities.frac_sum_diff

        def perturbed(f, order):
            out = frac_sum_diff(f, order)
            return GridFunction(out.origin, out.values[:-1] + (out.values[-1] + 1,))

        monkeypatch.setattr(identities, "frac_sum_diff", perturbed)
        statuses = [r.status for r in mr_ae_sweep(self.f, [Q(1, 2)], 0)]
        assert statuses == ["exact"] * 4 + ["mismatch"]


@pytest.mark.parametrize(
    "sweep, orders, message",
    [
        (
            lambda orders: leibniz_sweep(TestMrAe.f, TestMrAe.f, orders),
            [Q(1, 2), 0],
            r"^alpha must not be a nonpositive integer \(got 0\)$",
        ),
        (
            lambda orders: mr_ae_sweep(TestMrAe.f, orders, 0),
            [Q(1, 2), 1],
            r"^mu must be a positive non-integer \(got 1\)$",
        ),
        (
            lambda orders: power_rule_sweep(0, Q(1, 2), orders, 5),
            [Q(1, 2), -1],
            r"^nu must not be a nonpositive integer \(got -1\)$",
        ),
    ],
    ids=["leibniz", "mr-ae", "power-rule"],
)
def test_each_order_streams_before_the_next_is_checked(sweep, orders, message):
    # a good order, then one off the rule: the good order's reports come out
    # first, and the bad order raises only when its turn comes
    expected = [rep.to_json_dict() for rep in sweep(orders[:1])]
    assert expected and {doc["status"] for doc in expected} == {"exact"}
    reports = sweep(orders)
    assert [next(reports).to_json_dict() for _ in expected] == expected
    with pytest.raises(DomainError, match=message):
        next(reports)


def per_summand_form1(alpha, beta, gamma, n):
    """form1's report with every summand's Gamma part from falling, summed by weighted_sum."""
    lhs = gamma_of(beta + gamma + 1) / gamma_of(beta + 1) * (
        poch_int(alpha + beta + gamma + 1, n) / math.factorial(n)
    )
    summands = [
        (
            falling(beta + gamma + n - j, gamma - j).as_polynomial(),
            gen_binomial(-alpha, j) * poch_int(alpha + beta + j + 1, n - j)
            / math.factorial(n - j) * falling_int(gamma, j),
        )
        for j in range(n + 1)
    ]
    params = {"alpha": alpha, "beta": beta, "gamma": gamma, "N": n}
    return report_compare("form1", params, lhs, weighted_sum(summands))


class TestForm1:
    def test_integer_gamma_point(self):
        rep = prop_form1_check(Q(3, 2), Q(1, 2), 2, 4)
        assert rep.status == "exact"
        assert rep.lhs == "525/2"

    def test_fractional_point(self):
        assert prop_form1_check(Q(1, 2), Q(1, 4), Q(1, 3), 0).status == "exact"

    def test_sweep_never_mismatches(self):
        for alpha in (Q(1, 2), Q(3, 2)):
            for beta in (Q(1, 4), Q(1, 2)):
                for gamma in (Q(1, 3), Q(2), Q(5, 2)):
                    for n in range(9):
                        rep = prop_form1_check(alpha, beta, gamma, n)
                        assert rep.status == "exact"

    def test_integer_gamma_below_n_holds_no_pole(self):
        # gamma = 1 with N = 3 gives falling orders 1, 0, -1, -2, but its base
        # beta + gamma + N - j is never a negative integer, so no summand has a pole
        rep = prop_form1_check(Q(1, 2), Q(1, 4), 1, 3)
        assert rep.status == "exact"

    def test_hypothesis_validation(self):
        with pytest.raises(DomainError):
            prop_form1_check(0, Q(1, 4), Q(1, 3), 1)  # alpha a nonpositive integer
        with pytest.raises(DomainError):
            prop_form1_check(Q(1, 2), -1, Q(1, 3), 1)  # beta a negative integer
        with pytest.raises(DomainError):
            prop_form1_check(Q(1, 2), Q(1, 2), Q(-5, 2), 1)  # beta + gamma = -2

    # gamma = 2 with n = 5: falling(gamma, j) vanishes for j >= 3, so those summands are skipped
    @example(Q(1, 2), Q(1, 4), Q(2), 5)
    @example(Q(7, 3), Q(0), Q(0), 10)
    @given(orders, run_starts, run_starts, st.integers(min_value=0, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_exact_inside_the_hypotheses(self, alpha, beta, gamma, n):
        assume(not (beta.denominator == 1 and beta < 0))
        assume(not ((beta + gamma).denominator == 1 and beta + gamma < 0))
        assert prop_form1_check(alpha, beta, gamma, n).status == "exact"

    # beta + gamma = 0 with a non-integer and an integer gamma, where the run of the
    # Gamma part's ratios s / (r + (n-i) s) starts from r = 0; then an integer gamma below n
    @example(Q(7, 3), Q(1, 2), Q(-1, 2), 12)
    @example(Q(1, 2), Q(3), Q(-3), 12)
    @example(Q(5, 2), Q(1, 3), Q(4), 12)
    @given(orders, run_starts, st.one_of(run_starts, st.none()), st.integers(min_value=0, max_value=12))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_per_summand_path(self, alpha, beta, gamma, n):
        # gamma None draws beta + gamma = 0
        gamma = -beta if gamma is None else gamma
        assume(not (beta.denominator == 1 and beta < 0))
        assume(not ((beta + gamma).denominator == 1 and beta + gamma < 0))
        reference = per_summand_form1(alpha, beta, gamma, n)
        assert prop_form1_check(alpha, beta, gamma, n).json_line() == reference.json_line()

    def test_one_falling_per_report_and_no_weighted_sum(self, monkeypatch):
        calls = []

        def counted(x, y):
            calls.append((x, y))
            return falling(x, y)

        monkeypatch.setattr(identities, "falling", counted)
        assert prop_form1_check(Q(3, 2), Q(1, 4), Q(5, 2), 8).status == "exact"
        assert calls == [(Q(1, 4) + Q(5, 2) + 8, Q(5, 2))]
        assert "weighted_sum" not in _imported_names("identities")


class TestHyp3F2:
    def test_two_term_sum(self):
        assert hyp3f2_terminating(Q(1, 2), Q(1, 2), 1, 2, -1, 1) == Q(9, 8)

    def test_truncation_zero(self):
        assert hyp3f2_terminating(Q(1, 3), Q(1, 5), 0, Q(7, 4), Q(3, 2), Q(1, 2)) == 1

    def test_zero_argument(self):
        assert hyp3f2_terminating(Q(1, 2), Q(2, 3), 4, Q(5, 4), Q(7, 3), 0) == 1

    @given(rationals, rationals, st.integers(min_value=0, max_value=6))
    @settings(max_examples=40)
    def test_symmetric_in_upper_parameters(self, a1, a2, m):
        b1, b2, z = Q(9, 4), Q(13, 5), Q(1, 2)
        assert hyp3f2_terminating(a1, a2, m, b1, b2, z) == hyp3f2_terminating(
            a2, a1, m, b1, b2, z
        )

    def test_symmetric_in_lower_parameters(self):
        value = hyp3f2_terminating(Q(1, 2), Q(1, 3), 3, Q(5, 4), Q(7, 3), Q(2, 5))
        swapped = hyp3f2_terminating(Q(1, 2), Q(1, 3), 3, Q(7, 3), Q(5, 4), Q(2, 5))
        assert value == swapped

    def test_vanishing_denominator_is_named(self):
        with pytest.raises(DenominatorPochhammerZero, match="vanishes at k="):
            hyp3f2_terminating(Q(1, 2), Q(1, 2), 3, -2, Q(1, 2), 1)

    @given(rationals, rationals, rationals, rationals, rationals, st.integers(min_value=0, max_value=8))
    @settings(max_examples=60)
    def test_matches_the_termwise_pochhammer_sum(self, a1, a2, b1, b2, z, m):
        # the term-ratio recurrence against every term built from its own products
        assume(not any(b.denominator == 1 and -m < b <= 0 for b in (b1, b2)))
        termwise = sum(
            poch_int(a1, k) * poch_int(a2, k) * poch_int(-m, k) * z**k
            / (poch_int(b1, k) * poch_int(b2, k) * math.factorial(k))
            for k in range(m + 1)
        )
        assert hyp3f2_terminating(a1, a2, m, b1, b2, z) == termwise


# z off 0 and 1, where a series that drops z or steps it wrongly still agrees
off_unit = rationals.filter(lambda z: z not in (0, 1))
sizes = st.integers(min_value=0, max_value=10)


def _hyp3f2_term(a1, a2, m, b1, b2, z, k):
    """Term k of the terminating 3F2, from its own rising products."""
    return (
        poch_int(a1, k) * poch_int(a2, k) * poch_int(-m, k) * z**k
        / (poch_int(b1, k) * poch_int(b2, k) * math.factorial(k))
    )


def _vanishes_before(m):
    """True for a parameter whose rising product hits zero within m factors."""
    return lambda b: b.denominator == 1 and -m < b <= 0


class TestHyp3F2OffUnitArgument:
    @given(rationals, rationals, rationals, rationals, off_unit, sizes)
    @settings(max_examples=60)
    def test_matches_the_termwise_sum(self, a1, a2, b1, b2, z, m):
        assume(not any(map(_vanishes_before(m), (b1, b2))))
        termwise = sum(_hyp3f2_term(a1, a2, m, b1, b2, z, k) for k in range(m + 1))
        assert hyp3f2_terminating(a1, a2, m, b1, b2, z) == termwise

    @given(rationals, rationals, rationals, rationals, off_unit, sizes)
    @settings(max_examples=60)
    def test_reversal(self, a1, a2, b1, b2, z, m):
        # k -> m-k: 3F2(-m, a1, a2; b1, b2; z) = t_m 3F2(-m, 1-b1-m, 1-b2-m; 1-a1-m, 1-a2-m; 1/z),
        # with t_m the last term; both series need nonvanishing lower products
        assume(not any(map(_vanishes_before(m), (a1, a2, b1, b2))))
        last = _hyp3f2_term(a1, a2, m, b1, b2, z, m)
        reversed_series = hyp3f2_terminating(
            1 - b1 - m, 1 - b2 - m, m, 1 - a1 - m, 1 - a2 - m, 1 / z
        )
        assert hyp3f2_terminating(a1, a2, m, b1, b2, z) == last * reversed_series


class TestSaalschutz:
    def test_lhs_point(self):
        assert saalschutz_lhs(Q(1, 2), Q(1, 2), 2, 1) == Q(9, 8)
        assert saalschutz_lhs(Q(1, 3), Q(1, 5), Q(7, 4), 0) == 1

    def test_lhs_names_vanishing_denominator(self):
        with pytest.raises(ZeroDivisionError, match="vanishes"):
            saalschutz_lhs(Q(1, 2), Q(1, 2), 0, 1)

    def test_lhs_refuses_a_negative_m(self):
        with pytest.raises(DomainError, match="m must be a nonnegative integer"):
            saalschutz_lhs(Q(1, 2), Q(1, 2), Q(3, 2), -1)

    @given(run_starts, run_starts, run_starts, st.integers(min_value=0, max_value=12))
    @settings(max_examples=100)
    def test_lhs_matches_four_rising_products(self, a, b, c, m):
        denom_c = poch_int(c, m)
        denom_cab = poch_int(c - a - b, m)
        if denom_c == 0:
            message = f"(c)_m vanishes for c={c}, m={m}"
        elif denom_cab == 0:
            message = f"(c-a-b)_m vanishes for c-a-b={c - a - b}, m={m}"
        else:
            expected = poch_int(c - a, m) * poch_int(c - b, m) / (denom_c * denom_cab)
            assert saalschutz_lhs(a, b, c, m) == expected
            return
        with pytest.raises(ZeroDivisionError, match=f"^{re.escape(message)}$"):
            saalschutz_lhs(a, b, c, m)

    def test_lhs_names_the_vanishing_denominators_in_order(self):
        # c = 0 and c - a - b = 0 both vanish at m = 1: (c)_m is named first
        with pytest.raises(ZeroDivisionError, match=r"^\(c\)_m vanishes for c=0, m=1$"):
            saalschutz_lhs(Q(1, 2), Q(-1, 2), 0, 1)
        # c - a - b = -2 vanishes from m = 3 on, not before
        with pytest.raises(ZeroDivisionError, match=r"^\(c-a-b\)_m vanishes for c-a-b=-2, m=3$"):
            saalschutz_lhs(Q(3, 2), Q(3, 2), 1, 3)
        assert saalschutz_lhs(Q(3, 2), Q(3, 2), 1, 2) == Q(1, 64)

    def test_verify_point(self):
        rep = saalschutz_verify(Q(1, 2), Q(1, 2), 2, 1)
        assert rep.status == "exact"
        assert rep.lhs == "9/8" and rep.rhs == "9/8"

    def test_verify_m_sweep(self):
        for m in range(9):
            assert saalschutz_verify(Q(1, 3), Q(1, 5), Q(7, 4), m).status == "exact"

    def test_m_zero_trivial(self):
        rep = saalschutz_verify(Q(2, 3), Q(-1, 5), Q(9, 4), 0)
        assert rep.status == "exact" and rep.lhs == "1"

    def test_symmetry_in_a_b(self):
        one = saalschutz_verify(Q(1, 3), Q(3, 2), Q(7, 4), 4)
        two = saalschutz_verify(Q(3, 2), Q(1, 3), Q(7, 4), 4)
        assert one.status == two.status == "exact"
        assert one.lhs == two.lhs

    def test_hypothesis_violations_detected(self):
        assert saalschutz_hypothesis_violation(0, Q(1, 2), 2, 1) is not None
        assert saalschutz_hypothesis_violation(Q(1, 2), Q(1, 2), -1, 1) is not None
        # c - a - 1 a negative integer or lower
        assert saalschutz_hypothesis_violation(Q(3, 2), Q(1, 5), Q(3, 2), 1) is not None
        assert saalschutz_hypothesis_violation(Q(1, 2), Q(1, 2), 2, 1) is None
        # a negative m is no point of the theorem
        with pytest.raises(DomainError, match="^m must be a nonnegative integer$"):
            saalschutz_hypothesis_violation(Q(1, 2), Q(1, 2), 2, -1)

    def test_verify_enforces_hypotheses(self):
        rep = saalschutz_verify(0, Q(1, 2), 2, 1)
        assert rep.status == "domain_excluded"
        assert rep.params == {"a": 0, "b": Q(1, 2), "c": 2, "m": 1}
        assert rep.excluded_by == "a must not be a nonpositive integer"

    def test_force_evaluates_anyway(self):
        rep = saalschutz_verify(Q(1, 2), Q(1, 2), Q(3, 2), 1, force=True)
        assert rep.status in ("exact", "mismatch", "domain_excluded")

    def test_force_handles_vanishing_denominators(self):
        rep = saalschutz_verify(Q(1, 2), Q(1, 2), 0, 1, force=True)
        assert rep.status == "domain_excluded"
        assert "vanishes" in rep.excluded_by


def per_point_saalschutz(a, b, c, m, force):
    """Saalschutz's report at one point from its own parts: four rising products and the series."""
    params = {"a": a, "b": b, "c": c, "m": m}
    violation = saalschutz_hypothesis_violation(a, b, c, m)
    if violation is not None and not force:
        return report_excluded("saalschutz", params, violation)
    for name, base in (("c", c), ("c-a-b", c - a - b)):
        if poch_int(base, m) == 0:
            return report_excluded("saalschutz", params, f"({name})_m vanishes for {name}={base}, m={m}")
    lhs = poch_int(c - a, m) * poch_int(c - b, m) / (poch_int(c, m) * poch_int(c - a - b, m))
    try:
        rhs = hyp3f2_terminating(a, b, m, c, 1 + a + b - c - m, 1)
    except ZeroDivisionError as exc:
        return report_excluded("saalschutz", params, str(exc))
    return report_compare("saalschutz", params, lhs, rhs)


# offsets and sizes in any order, repeats included, so a line may step back
line_indices = st.lists(st.integers(min_value=0, max_value=10), max_size=6)


class TestLineSweeps:
    """form1 and Saalschutz, one line per (alpha, beta, gamma) or (a, b, c), against each point alone."""

    @example(Q(1, 2), Q(1, 4), Q(1, 3), list(range(9)))
    @example(Q(3, 2), Q(1, 2), Q(2), [8, 3, 3, 0, 5])
    @given(orders, run_starts, run_starts, line_indices)
    @settings(max_examples=60, deadline=None)
    def test_form1_line_matches_each_point(self, alpha, beta, gamma, ns):
        assume(not (beta.denominator == 1 and beta < 0))
        assume(not ((beta + gamma).denominator == 1 and beta + gamma < 0))
        line = [rep.json_line() for rep in form1_sweep(alpha, beta, gamma, ns)]
        assert line == [per_summand_form1(alpha, beta, gamma, n).json_line() for n in ns]
        assert line == [prop_form1_check(alpha, beta, gamma, n).json_line() for n in ns]

    @example(Q(1, 2), Q(1, 2), Q(2), list(range(11)), False)
    @example(Q(3, 2), Q(3, 2), Q(1), [6, 2, 0, 3, 4], True)
    @given(run_starts, run_starts, run_starts, line_indices, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_saalschutz_line_matches_each_point(self, a, b, c, ms, force):
        line = [rep.json_line() for rep in saalschutz_sweep(a, b, c, ms, force)]
        assert line == [per_point_saalschutz(a, b, c, m, force).json_line() for m in ms]
        assert line == [saalschutz_verify(a, b, c, m, force).json_line() for m in ms]

    def test_hypothesis_exclusions_and_force(self):
        # a = 0 violates the first hypothesis at every m of its line
        excluded = list(saalschutz_sweep(0, Q(1, 2), 2, range(4)))
        assert {rep.excluded_by for rep in excluded} == {"a must not be a nonpositive integer"}
        forced = list(saalschutz_sweep(0, Q(1, 2), 2, range(4), force=True))
        assert [rep.status for rep in forced] == ["exact"] * 4
        for line, force in ((excluded, False), (forced, True)):
            assert [rep.json_line() for rep in line] == [
                per_point_saalschutz(Q(0), Q(1, 2), Q(2), m, force).json_line() for m in range(4)
            ]

    @pytest.mark.parametrize(
        "a, b, c, message",
        [
            (Q(1, 2), Q(1, 3), Q(-2), "(c)_m vanishes for c=-2, m="),
            (Q(3, 2), Q(3, 2), Q(1), "(c-a-b)_m vanishes for c-a-b=-2, m="),
        ],
    )
    def test_a_product_that_vanishes_mid_line(self, a, b, c, message):
        # both vanish from m = 3 on; the hypotheses exclude both lines unless forced
        reports = list(saalschutz_sweep(a, b, c, range(6), force=True))
        assert [rep.status for rep in reports] == ["exact"] * 3 + ["domain_excluded"] * 3
        assert [rep.excluded_by for rep in reports[3:]] == [f"{message}{m}" for m in (3, 4, 5)]
        assert [rep.json_line() for rep in reports] == [
            per_point_saalschutz(a, b, c, m, True).json_line() for m in range(6)
        ]

    def test_a_series_denominator_that_vanishes_mid_line(self, monkeypatch):
        # the product side's vanishing test names every point where the true series'
        # lower products vanish, so the series is made to raise at m = 2 here
        def series(a1, a2, m, b1, b2, z):
            if m == 2:
                raise DenominatorPochhammerZero("(b2)_k vanishes at k=1 for b2=0")
            return hyp3f2_terminating(a1, a2, m, b1, b2, z)

        monkeypatch.setattr(identities, "hyp3f2_terminating", series)
        reports = list(saalschutz_sweep(Q(1, 3), Q(1, 5), Q(7, 4), range(5)))
        assert [rep.status for rep in reports] == ["exact", "exact", "domain_excluded", "exact", "exact"]
        assert reports[2].excluded_by == "(b2)_k vanishes at k=1 for b2=0"
        assert [rep.json_line() for rep in reports] == [
            saalschutz_verify(Q(1, 3), Q(1, 5), Q(7, 4), m).json_line() for m in range(5)
        ]

    def test_a_negative_index_raises_before_any_exclusion(self):
        # a = 0 excludes its whole line, yet a negative m is refused, not excluded
        with pytest.raises(DomainError, match="^m must be a nonnegative integer$"):
            next(saalschutz_sweep(0, Q(1, 2), 2, [-1]))
        line = saalschutz_sweep(0, Q(1, 2), 2, [0, 1, -1])
        assert [next(line).status for _ in range(2)] == ["domain_excluded"] * 2
        with pytest.raises(DomainError, match="^m must be a nonnegative integer$"):
            next(line)
        with pytest.raises(DomainError, match="^m must be a nonnegative integer$"):
            list(run_identity("saalschutz", {"a": "0", "b": "1/2", "c": "2", "m": -1}))
        with pytest.raises(DomainError, match="^n must be a nonnegative integer$"):
            next(form1_sweep(Q(1, 2), Q(1, 4), Q(1, 3), [-1]))
        # form1's line checks come before its first index
        with pytest.raises(DomainError, match="^alpha must not be a nonpositive integer"):
            next(form1_sweep(0, Q(1, 4), Q(1, 3), [-1]))

    def test_a_bad_alpha_on_a_later_line_raises_after_the_earlier_lines(self):
        reports = run_identity("form1", {"alpha": ["1/2", "0"], "n_max": 2})
        # two betas, three gammas and three offsets on the good alpha
        earlier = [next(reports) for _ in range(2 * 3 * 3)]
        assert {(rep.params["alpha"], rep.status) for rep in earlier} == {(Q(1, 2), "exact")}
        with pytest.raises(DomainError, match=r"^alpha must not be a nonpositive integer \(got 0\)$"):
            next(reports)

    def test_a_form1_line_builds_each_binomial_once(self, monkeypatch):
        calls = []

        def counted(alpha, j):
            calls.append(j)
            return gen_binomial(alpha, j)

        monkeypatch.setattr(identities, "gen_binomial", counted)
        reports = run_identity("form1")
        next(reports)
        # the default first line's first report is n = 0, which reads C(-alpha, 0) only
        assert len(calls) <= 1
        for _ in range(8):
            next(reports)
        assert calls == list(range(9))

    def test_a_saalschutz_line_steps_one_product_run(self, monkeypatch):
        runs = []

        def counted(ratios):
            runs.append(ratios)
            return _ratio_run(ratios)

        monkeypatch.setattr(identities, "_ratio_run", counted)
        assert {rep.status for rep in saalschutz_sweep(Q(1, 3), Q(1, 5), Q(7, 4), range(11))} == {"exact"}
        assert len(runs) == 1


def _imported_names(module: str) -> set[str]:
    """The last part of every module a deltafrac module imports, and every name it imports."""
    tree = ast.parse((Path(identities.__file__).parent / f"{module}.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.add((node.module or "").rpartition(".")[2])
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
    return names


@pytest.mark.parametrize(
    "module, forbidden",
    [
        # the special functions know nothing of reports or checks
        ("special", {"report", "identities", "sweeps"}),
        # the sweeps run the checks in identities and compare nothing themselves
        ("sweeps", {"fracops", "report_compare"}),
    ],
)
def test_every_comparison_is_in_identities(module, forbidden):
    assert _imported_names(module) & forbidden == set()
