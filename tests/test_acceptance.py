"""Acceptance suite: one test per primary criterion, at stated tolerances.

Each test prints a single line

    ACCEPTANCE PASS: <name> (<elapsed>s, <count> reports)

or an ACCEPTANCE FAIL line before raising.  Exactness criteria assert
status == "exact" for every report, which means the formal difference of
the two computation routes is the zero polynomial; no tolerance is
involved anywhere except the stated float cross-check gate.
"""
import subprocess
import sys
import time
from fractions import Fraction as Q

import pytest
from click.testing import CliRunner

from deltafrac import (
    FLOAT_RTOL,
    corollary_closed,
    default_suite,
    power_rule_closed,
    run_sweep,
    saalschutz_verify,
)
from deltafrac.cli import main
from deltafrac.exact import is_negative_integer


@pytest.fixture(scope="module")
def suite():
    """Run every default sweep once, keeping reports and per-sweep runtime."""
    results = {}
    for cfg in default_suite():
        start = time.perf_counter()
        reports = list(run_sweep(cfg))
        results[cfg.identity] = (reports, time.perf_counter() - start)
    return results


def announce(capsys, name, elapsed, count):
    with capsys.disabled():
        print(f"ACCEPTANCE PASS: {name} ({elapsed:.2f}s, {count} reports)")


def check(capsys, name, budget_s, fn):
    start = time.perf_counter()
    try:
        count, sweep_elapsed = fn()
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE FAIL: {name}")
        raise
    elapsed = (time.perf_counter() - start) + sweep_elapsed
    if elapsed >= budget_s:
        with capsys.disabled():
            print(f"ACCEPTANCE FAIL: {name} (took {elapsed:.2f}s, budget {budget_s}s)")
        raise AssertionError(f"{name} exceeded its runtime budget")
    announce(capsys, name, elapsed, count)


def test_nabla_first_point_value(capsys):
    """The composed nabla difference of a power is nonzero at the first point."""

    def fn():
        runner = CliRunner()
        result = runner.invoke(
            main,
            ["eval", "nabla", "--a", "0", "--p", "1/2", "--alpha", "3/2", "--t-index", "1"],
        )
        assert result.exit_code == 0
        assert result.output == "1/2*G(1/2)^1\n"
        return 1, 0.0

    check(capsys, "nabla-first-point-value", 1.0, fn)


def test_nabla_vanishing_tail(capsys, suite):
    def fn():
        reports, elapsed = suite["nabla-zero"]
        assert len(reports) == 126  # 3 origins x 2 powers x 3 orders x 7 points
        for rep in reports:
            assert rep.status == "exact"
            assert rep.lhs == "0" and rep.rhs == "0"
        return len(reports), elapsed

    check(capsys, "nabla-vanishing-tail", 5.0, fn)


def test_power_rule_dual_path(capsys, suite):
    def fn():
        reports, elapsed = suite["power-rule"]
        assert len(reports) == 975  # 3 origins x 5 mu x 5 nu x 13 N
        assert all(rep.status == "exact" for rep in reports)
        # the vanishing branch is genuinely exercised inside the sweep
        vanishing = [
            rep
            for rep in reports
            if is_negative_integer(Q(rep.params["mu"]) + Q(rep.params["nu"]))
            and rep.params["N"] >= -(Q(rep.params["mu"]) + Q(rep.params["nu"]))
        ]
        assert vanishing and all(rep.lhs == "0" for rep in vanishing)
        # closed-form consistency: the ratio form agrees with the product form
        mu_grid = [Q(0), Q(1, 2), Q(1, 3), Q(5, 2), Q(-1, 2)]
        nu_grid = [Q(1, 2), Q(3, 2), Q(-1, 2), Q(-5, 2), Q(2)]
        pairs = 0
        for mu in mu_grid:
            for nu in nu_grid:
                total = mu + nu
                closed = power_rule_closed(0, mu, nu, 13)
                ratio = corollary_closed(0, mu, nu, 13)
                # the ratio form starts where it is defined: on 0 when it vanishes
                assert ratio.origin == (0 if is_negative_integer(total) else total)
                start = closed.points().index(ratio.origin)
                assert closed.values[start:] == ratio.values
                pairs += len(ratio)
        return len(reports) + pairs, elapsed

    check(capsys, "power-rule-dual-path", 30.0, fn)


def test_mr_ae_agreement(capsys, suite):
    def fn():
        reports, elapsed = suite["mr-ae"]
        assert all(rep.status == "exact" for rep in reports)
        windows = {rep.params["window"] for rep in reports}
        assert windows == set(range(50))
        orders = {rep.params["mu"] for rep in reports}
        assert orders == {Q(1, 2), Q(1, 3), Q(2, 3), Q(3, 2)}
        return len(reports), elapsed

    check(capsys, "mr-ae-agreement", 10.0, fn)


def test_leibniz_rule(capsys, suite):
    def fn():
        reports, elapsed = suite["leibniz"]
        assert len(reports) == 1500  # 50 pairs x 3 orders x 10 points
        assert all(rep.status == "exact" for rep in reports)
        return len(reports), elapsed

    check(capsys, "leibniz-rule", 30.0, fn)


def test_binomials_and_shift_lemma(capsys, suite):
    def fn():
        total, elapsed = 0, 0.0
        for name in ("binom-falling", "binom-poch", "alt-sum"):
            reports, dt = suite[name]
            assert len(reports) == 200
            assert all(rep.status == "exact" for rep in reports)
            total += len(reports)
            elapsed += dt
        return total, elapsed

    check(capsys, "binomials-and-shift-lemma", 10.0, fn)


def test_form1_sweep(capsys, suite):
    def fn():
        reports, elapsed = suite["form1"]
        assert len(reports) == 108  # 2 x 2 x 3 parameter triples x 9 N values
        for rep in reports:
            assert rep.status in ("exact", "domain_excluded")
        assert sum(rep.status == "exact" for rep in reports) > 0
        return len(reports), elapsed

    check(capsys, "form1-sweep", 10.0, fn)


def test_saalschutz_closed_form(capsys, suite):
    def fn():
        reports, elapsed = suite["saalschutz"]
        assert all(rep.status == "exact" for rep in reports)
        assert len(reports) > 500
        point = saalschutz_verify(Q(1, 2), Q(1, 2), Q(2), 1)
        assert point.status == "exact"
        assert point.lhs == "9/8" and point.rhs == "9/8"
        return len(reports) + 1, elapsed

    check(capsys, "saalschutz-closed-form", 20.0, fn)


def test_gamma_sum_vanishing(capsys, suite):
    def fn():
        reports, elapsed = suite["gamma-sum"]
        assert len(reports) == 54  # 2 mu x 3 total orders x 9 n values
        for rep in reports:
            assert rep.status == "exact"
            assert rep.rhs == "0"
        return len(reports), elapsed

    check(capsys, "gamma-sum-vanishing", 5.0, fn)


def test_float_cross_check(capsys, suite):
    """Every exact report's float gap sits inside the relative gate."""

    def fn():
        checked = 0
        for reports, _ in suite.values():
            for rep in reports:
                if rep.status != "exact":
                    continue
                assert rep.abs_float_gap is not None and rep.lhs_float is not None
                assert rep.abs_float_gap <= FLOAT_RTOL * (1 + abs(rep.lhs_float))
                checked += 1
        assert checked > 5000
        return checked, 0.0

    check(capsys, "float-cross-check", 30.0, fn)


def test_verify_all_cli(capsys):
    """The whole suite through the real command line: exit code 0."""

    def fn():
        proc = subprocess.run(
            [sys.executable, "-m", "deltafrac.cli", "verify", "all"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert " 0 mismatch" in proc.stderr and " 0 float_only" in proc.stderr
        count = len(proc.stdout.strip().splitlines())
        assert count > 5000
        return count, 0.0

    check(capsys, "verify-all-cli", 180.0, fn)
