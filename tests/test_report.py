"""Report classification: exact, float_only, mismatch and serialization."""
import csv
import io
import json
import math
from fractions import Fraction as Q

from hypothesis import given, strategies as st

from deltafrac import (
    EXACT,
    FLOAT_ONLY,
    FLOAT_RTOL,
    MISMATCH,
    as_polynomial,
    default_suite,
    falling_poch_bridge_check,
    gamma_of,
    report_compare,
    run_sweep,
)
from deltafrac.report import CSV_HEADER, DOMAIN_EXCLUDED, POLE, VerificationReport, report_excluded


def test_exact_means_formal_zero():
    rep = report_compare("t", {"x": 1}, as_polynomial(gamma_of(Q(1, 2))), as_polynomial(gamma_of(Q(1, 2))))
    assert rep.status == EXACT
    assert rep.abs_float_gap == 0.0
    assert not rep.is_failure


def test_exact_across_different_routes():
    # Gamma(3/2) vs (1/2) Gamma(1/2): same canonical form
    lhs = as_polynomial(gamma_of(Q(3, 2)))
    rhs = Q(1, 2) * as_polynomial(gamma_of(Q(1, 2)))
    assert report_compare("t", {}, lhs, rhs).status == EXACT


def test_float_only_when_formally_distinct_but_numerically_close():
    # differ by 1e-30 relatively: formally nonzero, below the float gate
    rep = report_compare("t", {}, 1, Q(10**30 + 1, 10**30))
    assert rep.status == FLOAT_ONLY
    assert rep.is_failure
    assert rep.abs_float_gap <= FLOAT_RTOL * 2


def test_mismatch_when_values_differ():
    rep = report_compare("t", {}, 1, 2)
    assert rep.status == MISMATCH
    assert rep.is_failure
    assert rep.abs_float_gap == 1.0


def test_value_beyond_a_double_has_no_float_gap():
    # 10**400 overflows float(); 10**308 * Gamma(1/4) comes out as inf
    for big in (Q(10**400), Q(10**308) * as_polynomial(gamma_of(Q(1, 4)))):
        rep = report_compare("t", {}, big, big)
        assert rep.status == EXACT
        assert rep.abs_float_gap is None
        assert rep.to_json_dict()["abs_float_gap"] is None


def test_formal_difference_without_a_float_gap_is_mismatch():
    assert report_compare("t", {}, Q(10**400), Q(10**400) + 1).status == MISMATCH
    # both sides fit in a double, their difference does not
    rep = report_compare("t", {}, Q(10**308), -Q(10**308))
    assert rep.status == MISMATCH
    assert rep.abs_float_gap is None


def test_accepts_bare_rationals_and_monomials():
    assert report_compare("t", {}, Q(3, 2), as_polynomial(Q(3, 2))).status == EXACT
    # gamma_of's one-term value is taken as it is
    rep = report_compare("t", {}, gamma_of(Q(3, 2)), Q(1, 2) * as_polynomial(gamma_of(Q(1, 2))))
    assert rep.status == EXACT


def test_json_schema():
    rep = report_compare("power-rule", {"a": Q(0), "mu": Q(1, 2), "N": 3}, 1, 1)
    doc = rep.to_json_dict()
    assert doc == {
        "identity": "power-rule",
        "params": {"a": "0", "mu": "1/2", "N": "3"},
        "status": "exact",
        "lhs": "1",
        "rhs": "1",
        "abs_float_gap": 0.0,
    }


def test_excluded_report_carries_the_precondition():
    rep = report_excluded("gamma-sum", {"n": 1}, "n must be at least -(mu+nu)", boundary=Q(5))
    assert rep.status == "domain_excluded"
    assert rep.excluded_by == "n must be at least -(mu+nu)"
    assert rep.lhs == "5"
    doc = rep.to_json_dict()
    assert doc["excluded_by"] == "n must be at least -(mu+nu)"
    assert doc["abs_float_gap"] is None


def test_pole_report():
    rep = falling_poch_bridge_check(Q(1, 2), Q(-1, 2))
    assert rep.status == "pole"
    assert not rep.is_failure
    assert rep.to_json_dict()["abs_float_gap"] is None


def test_float_cross_check_on_exact_reports():
    # an exact report is one value: both sides render alike and its float gap is 0.0
    lhs = as_polynomial(gamma_of(Q(7, 2))) * Q(3, 5) + Q(2, 7)
    rhs = Q(3, 5) * as_polynomial(gamma_of(Q(7, 2))) + Q(2, 7)
    rep = report_compare("t", {}, lhs, rhs)
    assert rep.status == EXACT
    assert rep.lhs == rep.rhs
    assert rep.abs_float_gap == 0.0


# Any text, weighted toward what json escapes: quotes, backslashes, control
# characters, and non-ASCII and non-BMP characters.
_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u2028\U0001f600'), st.characters()))


@given(
    identity=_TEXT,
    params=st.dictionaries(_TEXT, st.one_of(st.integers(), st.fractions(), _TEXT), max_size=4),
    status=st.sampled_from([EXACT, FLOAT_ONLY, MISMATCH, DOMAIN_EXCLUDED, POLE]),
    lhs=_TEXT,
    rhs=_TEXT,
    gap=st.one_of(st.none(), st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]), st.floats()),
    excluded_by=st.one_of(st.none(), _TEXT),
)
def test_json_line_is_json_dumps_of_the_dict(identity, params, status, lhs, rhs, gap, excluded_by):
    rep = VerificationReport(identity, params, status, lhs, rhs, gap, excluded_by)
    assert rep.json_line() == json.dumps(rep.to_json_dict())


def test_json_line_of_every_default_suite_report():
    reports = [rep for config in default_suite() for rep in run_sweep(config)]
    assert len(reports) == 5697
    for rep in reports:
        assert rep.json_line() == json.dumps(rep.to_json_dict())


# Any text, weighted toward what csv quotes or could lose: commas, quotes, line breaks,
# blanks and non-ASCII characters.
_CSV_TEXT = st.text(st.one_of(st.sampled_from(',"\r\n \t;=\u00e9\U0001f600'), st.characters()))


@given(
    identity=_CSV_TEXT,
    params=st.dictionaries(_CSV_TEXT, st.one_of(st.integers(), st.fractions(), _CSV_TEXT), max_size=4),
    status=st.sampled_from([EXACT, FLOAT_ONLY, MISMATCH, DOMAIN_EXCLUDED, POLE]),
    lhs=_CSV_TEXT,
    rhs=_CSV_TEXT,
    gap=st.one_of(st.none(), st.sampled_from([0.0, -0.0, math.nan, math.inf]), st.floats()),
    excluded_by=st.one_of(st.none(), _CSV_TEXT),
)
def test_csv_line_is_the_csv_writers_row(identity, params, status, lhs, rhs, gap, excluded_by):
    rep = VerificationReport(identity, params, status, lhs, rhs, gap, excluded_by)
    fields = [
        identity,
        status,
        ";".join(f"{k}={v}" for k, v in params.items()),
        lhs,
        rhs,
        "" if gap is None else repr(gap),
        excluded_by or "",
    ]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(fields)
    assert rep.csv_line() == out.getvalue()[:-1]


def test_csv_header():
    assert CSV_HEADER == "identity,status,params,lhs,rhs,abs_float_gap,excluded_by"
