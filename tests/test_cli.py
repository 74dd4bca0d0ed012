"""Command line behavior: values, reports, formats, exit codes, determinism."""
import csv
import gc
import hashlib
import importlib
import io
import json
import math
import pkgutil
import sys
import weakref
from collections import Counter
from fractions import Fraction as Q

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

import deltafrac
import deltafrac.sweeps as sweeps
from deltafrac import GridFunction, ae_frac_diff, parse_gamma_polynomial, parse_rational, report_compare
from deltafrac.cli import _KINDS, _SUBJECTS, _flags_of, _subjects_of, main
from deltafrac.sweeps import FLAG, INT, PARAMS, RATIONAL, REGISTRY, SIZE, IdentityEntry


@pytest.fixture()
def runner():
    return CliRunner()


class TestEval:
    def test_falling(self, runner):
        result = runner.invoke(main, ["eval", "falling", "--x", "5", "--y", "2"])
        assert result.exit_code == 0
        assert result.output == "20\n"

    def test_nabla_counterexample(self, runner):
        result = runner.invoke(
            main,
            ["eval", "nabla", "--a", "0", "--p", "1/2", "--alpha", "3/2", "--t-index", "1"],
        )
        assert result.exit_code == 0
        assert result.output == "1/2*G(1/2)^1\n"

    def test_fracsum(self, runner):
        result = runner.invoke(
            main,
            ["eval", "fracsum", "--a", "0", "--nu", "1/2", "--f", "const:1", "--len", "3", "--at", "2"],
        )
        assert result.exit_code == 0
        assert result.output == "15/8\n"

    def test_poch_pole_prints_pole(self, runner):
        result = runner.invoke(main, ["eval", "poch", "--x", "3/2", "--y", "-3/2"])
        assert result.exit_code == 0
        assert result.output == "pole\n"

    def test_binom(self, runner):
        result = runner.invoke(main, ["eval", "binom", "--alpha", "-1/2", "--n", "2"])
        assert result.output == "3/8\n"

    def test_hyp3f2_json(self, runner):
        result = runner.invoke(
            main,
            ["eval", "hyp3f2", "--a1", "1/2", "--a2", "1/2", "--m", "1",
             "--b1", "2", "--b2", "-1", "--z", "1", "--format", "json"],
        )
        doc = json.loads(result.output)
        assert doc == {"subject": "hyp3f2", "value": "9/8", "float": 1.125}

    def test_domain_error_exits_2(self, runner):
        result = runner.invoke(
            main, ["eval", "fracsum", "--nu", "-1", "--f", "const:1", "--len", "3"]
        )
        assert result.exit_code == 2
        assert "nu must not be a nonpositive integer" in result.output

    def test_missing_flag_exits_2(self, runner):
        result = runner.invoke(main, ["eval", "falling", "--x", "5"])
        assert result.exit_code == 2
        assert "--y" in result.output

    def test_bad_rational_exits_2(self, runner):
        result = runner.invoke(main, ["eval", "falling", "--x", "0.5", "--y", "2"])
        assert result.exit_code == 2

    def test_bad_window_spec_exits_2(self, runner):
        result = runner.invoke(
            main, ["eval", "fracsum", "--nu", "1/2", "--f", "wave:1", "--len", "3"]
        )
        assert result.exit_code == 2
        assert "grid spec" in result.output

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("const1", "grid spec needs kind:payload, got 'const1'"),
            ("kpow:1/2", "kpow exponent must be an integer, got '1/2'"),
            ("kpow:-1", "kpow exponent must be nonnegative, got -1"),
        ],
    )
    def test_malformed_window_spec_exits_2(self, runner, spec, message):
        result = runner.invoke(main, ["eval", "fracsum", "--nu", "1/2", "--f", spec, "--len", "3"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["eval", "binom", "--alpha", "1/2", "--n", "+3"], "bad value for n: not a rational literal: '+3'"),
            (["verify", "binom-falling", "--n", "+3"], "bad value for n: not a rational literal: '+3'"),
            (["eval", "falling", "--x", "0.5", "--y", "2"], "bad value for x: not a rational literal: '0.5'"),
            (["eval", "fracsum", "--nu", "1/2", "--at", "1/2"], "at must be an integer, got '1/2'"),
            (["table", "fracsum", "--nu", "1/2", "--len", "-1"], "len must be nonnegative, got -1"),
        ],
    )
    def test_flag_values_are_parsed_like_verify_flags(self, runner, argv, message):
        result = runner.invoke(main, argv)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"error: {message}\n"

    @pytest.mark.parametrize(
        "flag, message",
        [
            (["--f", "wave:1"], "unknown grid spec kind: 'wave'"),
            (["--len", "0"], "a grid function needs at least one value"),
        ],
        ids=["bad-f", "len-0"],
    )
    @pytest.mark.parametrize(
        "command",
        [[command, name] for command in ("eval", "table") for name in _subjects_of(command)],
        ids=" ".join,
    )
    def test_window_flags_are_checked_for_every_subject(self, runner, command, flag, message):
        # a subject that reads no window still refuses a bad --f or --len
        values = {
            "x": "5", "y": "2", "alpha": "3/2", "n": "2", "nu": "1/2", "mu": "1/2", "p": "1/2",
            "t_index": "1", "a1": "1/2", "a2": "1/2", "m": "1", "b1": "2", "b2": "-1", "z": "1",
        }
        argv = command + [arg for key in _SUBJECTS[command[1]][0] for arg in ("--" + key.replace("_", "-"), values[key])]
        assert runner.invoke(main, argv).exit_code == 0
        result = runner.invoke(main, argv + flag)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"error: {message}\n"

    def test_fallpow_window_spec(self, runner):
        # the half sum of (s) falling 1/2 at offset 2 is Gamma(3/2) (2)_2 / 2!
        result = runner.invoke(
            main, ["eval", "fracsum", "--nu", "1/2", "--f", "fallpow:1/2", "--len", "4", "--at", "2"]
        )
        assert result.exit_code == 0
        assert result.output == "3/2*G(1/2)^1\n"

    def test_at_out_of_window_exits_2(self, runner):
        result = runner.invoke(
            main, ["eval", "fracsum", "--nu", "1/2", "--f", "const:1", "--len", "3", "--at", "7"]
        )
        assert result.exit_code == 2
        assert "outside the output window" in result.output

    def test_value_beyond_a_double_prints_null_float(self, runner):
        result = runner.invoke(main, ["eval", "falling", "--x", "400", "--y", "200", "--format", "json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["float"] is None
        assert doc["value"] == str(math.factorial(400) // math.factorial(200))

    def test_table_window_spec(self, runner):
        # f(k) = k^2 given as an explicit table; half difference at the first
        # output point: delta of the half-sum partial sums 0, 1 -> 1
        result = runner.invoke(
            main, ["eval", "aediff", "--mu", "1/2", "--f", "table:0,1,4,9", "--at", "0"]
        )
        assert result.exit_code == 0
        assert result.output == "1\n"


class TestVerify:
    def test_saalschutz_point(self, runner):
        result = runner.invoke(
            main, ["verify", "saalschutz", "--a", "1/2", "--b", "1/2", "--c", "2", "--m", "1"]
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0].startswith("[exact] saalschutz")
        assert "lhs=9/8" in lines[0]

    def test_power_rule_report_count(self, runner):
        result = runner.invoke(
            main,
            ["verify", "power-rule", "--a", "0", "--mu", "1/2", "--nu", "1/2", "--n-max", "8", "--format", "json"],
        )
        assert result.exit_code == 0
        docs = [json.loads(line) for line in result.stdout.strip().splitlines()]
        assert len(docs) == 9
        assert all(d["status"] == "exact" for d in docs)
        assert docs[0]["params"]["N"] == "0"
        assert "9 exact" in result.stderr

    def test_csv_format(self, runner):
        result = runner.invoke(
            main, ["verify", "bridge", "--t", "1/2", "--alpha", "5/2", "--format", "csv"]
        )
        lines = result.output.strip().splitlines()
        assert lines[0] == "identity,status,params,lhs,rhs,abs_float_gap,excluded_by"
        assert lines[1].startswith("bridge,exact,t=1/2;alpha=5/2,")

    def test_unknown_identity_exits_2(self, runner):
        result = runner.invoke(main, ["verify", "nosuch"])
        assert result.exit_code == 2
        assert "unknown identity" in result.output

    def test_unknown_flag_for_identity_exits_2(self, runner):
        result = runner.invoke(main, ["verify", "bridge", "--x", "3"])
        assert result.exit_code == 2
        assert "unknown parameters" in result.output

    @pytest.mark.parametrize("flag", ["--pa", "--pb", "--pc"])
    def test_removed_flag_spelling_exits_2(self, runner, flag):
        result = runner.invoke(main, ["verify", "saalschutz", flag, "1/2"])
        assert result.exit_code == 2
        assert f"No such option '{flag}'" in result.output

    def test_all_rejects_parameter_flags(self, runner):
        result = runner.invoke(main, ["verify", "all", "--mu", "1/2"])
        assert result.exit_code == 2

    def test_config_runs_suite(self, runner, tmp_path):
        config = tmp_path / "sweeps.json"
        config.write_text(
            json.dumps(
                {
                    "suite": [
                        {"identity": "bridge", "t": ["1/2"], "alpha": ["1/3"]},
                        {"identity": "saalschutz", "a": "1/3", "b": "1/5", "c": "7/4", "m_max": 2},
                    ]
                }
            )
        )
        result = runner.invoke(main, ["verify", "all", "--config", str(config), "--format", "json"])
        assert result.exit_code == 0
        docs = [json.loads(line) for line in result.stdout.strip().splitlines()]
        assert [d["identity"] for d in docs] == ["bridge"] + ["saalschutz"] * 3

    @pytest.mark.parametrize(
        "listed, exit_code, printed",
        [
            (
                {"identity": "saalschutz", "a": ["3/2"], "b": ["3/2"], "c": ["2"], "m": 1},
                0,
                "[domain_excluded] saalschutz a=3/2 b=3/2 c=2 m=1 ",
            ),
            (
                {"identity": "power-rule", "mu": ["-1"], "n_max": 2},
                2,
                "error: bad config: mu must not be a negative integer (got -1)",
            ),
        ],
    )
    def test_one_element_list_pins_like_a_bare_value(self, runner, tmp_path, listed, exit_code, printed):
        bare = {key: value[0] if isinstance(value, list) else value for key, value in listed.items()}
        results = []
        for entry in (listed, bare):
            config = tmp_path / "sweeps.json"
            config.write_text(json.dumps({"suite": [entry]}))
            results.append(runner.invoke(main, ["verify", "all", "--config", str(config)]))
        assert [r.exit_code for r in results] == [exit_code] * 2
        assert results[0].stdout == results[1].stdout
        assert results[0].stderr == results[1].stderr
        assert printed in results[0].output

    def test_config_with_flags_exits_2(self, runner, tmp_path):
        config = tmp_path / "sweeps.json"
        config.write_text(json.dumps({"suite": [{"identity": "bridge"}]}))
        result = runner.invoke(
            main, ["verify", "all", "--config", str(config), "--seed", "3"]
        )
        assert result.exit_code == 2
        assert "parameter flags cannot be combined with --config" in result.output

    def test_config_with_a_named_identity_exits_2(self, runner, tmp_path):
        config = tmp_path / "sweeps.json"
        config.write_text(json.dumps({"suite": [{"identity": "bridge"}]}))
        result = runner.invoke(main, ["verify", "bridge", "--config", str(config)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            "error: --config supplies its own identities; use 'verify all --config FILE'\n"
        )

    def test_excluded_text_report_prints_its_boundary(self, runner):
        result = runner.invoke(main, ["verify", "gamma-sum", "--mu", "1/2", "--nu", "-5/2", "--n", "0"])
        assert result.exit_code == 0
        assert result.stdout == (
            "[domain_excluded] gamma-sum mu=1/2 nu=-5/2 n=0 boundary=1"
            " excluded_by=n must be at least -(mu+nu)\n"
        )

    def test_bad_config_exits_2(self, runner, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text("{not json")
        result = runner.invoke(main, ["verify", "all", "--config", str(config)])
        assert result.exit_code == 2
        assert "bad config" in result.output

    def test_missing_config_exits_2(self, runner):
        result = runner.invoke(main, ["verify", "all", "--config", "/nonexistent.json"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gamma-sum", "--mu", "1/2", "--nu", "-1/2"], "mu+nu must be a negative integer"),
            (["gamma-sum", "--mu", "1/2", "--nu", "1/2"], "mu+nu must be a negative integer"),
            (["gamma-sum", "--mu", "1/2", "--nu", "1/2", "--n", "3"], "mu+nu must be a negative integer"),
            (["nabla-zero", "--p", "1/2", "--alpha", "1/3"], "alpha - p must be a positive integer"),
            (["nabla-zero", "--p", "1/2", "--alpha", "1/2", "--t-index", "4"],
             "alpha - p must be a positive integer"),
            (["power-rule", "--mu", "-1"], "mu must not be a negative integer (got -1)"),
            (["power-rule", "--nu", "-1", "--n-max", "2"], "nu must not be a nonpositive integer (got -1)"),
            (["leibniz", "--alpha", "0"], "alpha must not be a nonpositive integer (got 0)"),
            (["leibniz", "--alpha", "-2"], "alpha must not be a nonpositive integer (got -2)"),
            (["saalschutz", "--m", "-1"], "m must be a nonnegative integer"),
            (["saalschutz", "--a", "1/2", "--b", "1/2", "--c", "2", "--m", "-1"],
             "m must be a nonnegative integer"),
            (["saalschutz", "--m", "-1", "--force"], "m must be a nonnegative integer"),
        ],
    )
    def test_domain_error_exits_2(self, runner, argv, message):
        result = runner.invoke(main, ["verify", *argv])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert message in result.output

    def test_force_reaches_excluded_points(self, runner):
        result = runner.invoke(
            main,
            ["verify", "saalschutz", "--a", "1/2", "--b", "1/2", "--c", "3/2", "--m", "1", "--force"],
        )
        assert result.exit_code in (0, 1)
        assert "saalschutz" in result.output

    def test_zero_sides_print_a_float_gap(self, runner):
        result = runner.invoke(main, ["verify", "nabla-zero", "--format", "json"])
        assert result.exit_code == 0
        assert '"lhs": "0", "rhs": "0", "abs_float_gap": 0.0}' in result.stdout

    def test_releases_a_replaced_stdout(self):
        # click caches a wrapper per stream it writes to by default; one that
        # holds its key keeps every replaced stdout alive for the process.
        saved = sys.stdout, sys.stderr
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        sys.stdout, sys.stderr = out, io.StringIO()
        try:
            main(["verify", "binom-falling", "--count", "1"], standalone_mode=False)
        except SystemExit as exc:
            assert exc.code == 0
        finally:
            sys.stdout, sys.stderr = saved
        released = weakref.ref(out)
        del out
        gc.collect()
        assert released() is None

    def test_float_overflow_leaves_exact_verdict(self, runner):
        result = runner.invoke(main, ["verify", "bridge", "--t", "400", "--alpha", "200", "--format", "json"])
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["status"] == "exact"
        assert doc["abs_float_gap"] is None

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["leibniz", "--count", "-1"], "count"),
            (["mr-ae", "--count", "-2"], "count"),
            (["saalschutz", "--m-max", "-1"], "m_max"),
            (["gamma-sum", "--n-extra", "-3"], "n_extra"),
            (["nabla-zero", "--t-extra", "-5"], "t_extra"),
            (["form1", "--n-max", "-1"], "n_max"),
            (["binom-poch", "--n-max", "-1"], "n_max"),
            (["alt-sum", "--window", "-1"], "window"),
            (["mr-ae", "--max-window", "-1"], "max_window"),
        ],
    )
    def test_negative_size_exits_2(self, runner, argv, key):
        result = runner.invoke(main, ["verify", *argv])
        assert result.exit_code == 2
        assert f"{key} must be nonnegative" in result.output
        assert result.stdout == ""

    def test_zero_count_runs_no_points(self, runner):
        result = runner.invoke(main, ["verify", "leibniz", "--count", "0"])
        assert result.exit_code == 0
        assert "checked 0 parameter points" in result.output

    def test_zero_count_csv_prints_the_header_alone(self, runner):
        result = runner.invoke(main, ["verify", "leibniz", "--count", "0", "--format", "csv"])
        assert result.exit_code == 0
        assert result.stdout == "identity,status,params,lhs,rhs,abs_float_gap,excluded_by\n"

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_run_refused_before_its_first_report_prints_nothing(self, runner, fmt):
        argv = ["verify", "gamma-sum", "--mu", "1/2", "--nu", "1/2", "--format", fmt]
        result = runner.invoke(main, argv)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "error: mu+nu must be a negative integer (got 1)\n"

    def test_pinned_k_past_the_window_exits_2(self, runner):
        argv = ["verify", "alt-sum", "--k", "8", "--window", "3", "--count", "1"]
        result = runner.invoke(main, argv)
        assert result.exit_code == 2
        assert "k must be less than window (got k=8, window=3)" in result.output

    @pytest.mark.parametrize(
        "identity, key, value, reason",
        [
            ("bridge", "t", "0.5", "bad value for t: not a rational literal: '0.5'"),
            ("form1", "n", "1/2", "n must be an integer, got '1/2'"),
            ("leibniz", "count", "x", "bad value for count: not a rational literal: 'x'"),
        ],
    )
    def test_flag_and_config_entry_fail_alike(self, runner, tmp_path, identity, key, value, reason):
        config = tmp_path / "sweeps.json"
        config.write_text(json.dumps({"suite": [{"identity": identity, key: value}]}))
        flag = runner.invoke(main, ["verify", identity, f"--{key}", value, "--format", "csv"])
        entry = runner.invoke(main, ["verify", "all", "--config", str(config), "--format", "csv"])
        assert flag.exit_code == entry.exit_code == 2
        assert flag.stdout == entry.stdout == ""
        assert flag.stderr == f"error: {reason}\n"
        assert entry.stderr == f"error: bad config: {reason}\n"

    def test_negative_size_in_config_exits_2(self, runner, tmp_path):
        config = tmp_path / "sweeps.json"
        config.write_text(json.dumps({"suite": [{"identity": "leibniz", "count": -1}]}))
        result = runner.invoke(main, ["verify", "all", "--config", str(config)])
        assert result.exit_code == 2
        assert "count must be nonnegative" in result.output

    @pytest.mark.parametrize(
        "bad_entry, message",
        [
            ({"identity": "leibniz", "count": -1}, "count must be nonnegative"),
            ({"identity": "bridge", "count": 3}, "unknown parameters for bridge: count"),
            ({"identity": "bridge", "t": {"num_max": 2.9}}, "bad value for num_max"),
            ({"identity": "bridge", "t": {"num_max": True}}, "bad value for num_max"),
            ({"identity": "bridge", "fixed": {"t": "1/2"}}, "unknown parameters for bridge: fixed"),
            ({"identity": "bridge", "sweep": {"t": ["1/2"]}}, "unknown parameters for bridge: sweep"),
            ({"identity": "bridge", "t": {"step": 1}}, "unknown range fields: step"),
            ({"identity": "binom-poch", "x": []}, "x needs at least one value"),
            ({"identity": "alt-sum", "alpha": []}, "alpha needs at least one value"),
            ({"identity": "bridge", "t": {"den_max": 0}}, "t needs at least one value"),
            ({"identity": "alt-sum", "k": 8, "window": 3}, "k must be less than window (got k=8, window=3)"),
            ({"identity": "power-rule", "mu": -1}, "mu must not be a negative integer (got -1)"),
            ({"identity": "binom-poch", "x": ["1/2", "1/3", "7"], "count": 3, "n_max": 2},
             "x takes a single value (got 3)"),
            ({"identity": "binom-falling", "y": ["1/2", "2"]}, "y takes a single value (got 2)"),
            ({"identity": "alt-sum", "alpha": {"num_min": 0, "num_max": 1, "den_max": 1}},
             "alpha takes a single value (got 2)"),
            ({"identity": "leibniz", "seed": [1, 2]}, "seed takes a single value"),
        ],
    )
    def test_bad_later_config_entry_prints_no_report(self, runner, tmp_path, bad_entry, message):
        config = tmp_path / "sweeps.json"
        config.write_text(json.dumps({"suite": [{"identity": "bridge"}, bad_entry]}))
        result = runner.invoke(main, ["verify", "all", "--config", str(config)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"bad config: {message}" in result.output

    @pytest.mark.parametrize(
        "document",
        [
            {"identity": "bridge"},
            [{"identity": "bridge"}],
            {"suite": []},
            {"suite": [{"identity": "bridge"}], "seed": 1},
        ],
    )
    def test_config_document_must_be_a_suite(self, runner, tmp_path, document):
        config = tmp_path / "sweeps.json"
        config.write_text(json.dumps(document))
        result = runner.invoke(main, ["verify", "all", "--config", str(config)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert 'bad config: config must be {"suite": [entry, ...]}' in result.output

    # An identity's own preconditions fire when its entry runs, after the
    # reports of the entries before it; the resolver does not repeat them.
    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"identity": "gamma-sum", "mu": "1/2", "nu": "1/2"}, "mu+nu must be a negative integer (got 1)"),
            ({"identity": "form1", "alpha": -1}, "alpha must not be a nonpositive integer (got -1)"),
            ({"identity": "mr-ae", "mu": 1}, "mu must be a positive non-integer (got 1)"),
            ({"identity": "mr-ae", "max_window": 1}, "window of length 1 is too short for order 1/2 (needs 2): mr-ae max_window is 1"),
            ({"identity": "nabla-zero", "p": "1/2", "alpha": "1/3"}, "alpha - p must be a positive integer"),
            ({"identity": "leibniz", "window": 0}, "a grid function needs at least one value: leibniz window is 0"),
            ({"identity": "alt-sum", "window": 0}, "a grid function needs at least one value: alt-sum window is 0"),
            ({"identity": "mr-ae", "max_window": 0}, "a grid function needs at least one value: mr-ae max_window is 0"),
            ({"identity": "leibniz", "alpha": -1}, "alpha must not be a nonpositive integer (got -1)"),
        ],
    )
    def test_precondition_in_later_config_entry_exits_2(self, runner, tmp_path, entry, message):
        config = tmp_path / "sweeps.json"
        first = {"identity": "bridge", "t": "1/2", "alpha": "1/3"}
        config.write_text(json.dumps({"suite": [first, entry]}))
        result = runner.invoke(main, ["verify", "all", "--config", str(config)])
        # a SystemExit, not an uncaught exception: no traceback
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 2
        assert result.stdout.startswith("[exact] bridge t=1/2 alpha=1/3 ")
        assert f"error: {message}" in result.stderr

    def test_deterministic_output(self, runner):
        args = ["verify", "leibniz", "--count", "3", "--format", "json"]
        one = runner.invoke(main, args)
        two = runner.invoke(main, args)
        assert one.output == two.output

    def test_failure_exit_code_via_synthetic_identity(self, runner, monkeypatch):
        def run_rigged(ov):
            yield report_compare("rigged", {"k": 1}, 1, 2)

        monkeypatch.setitem(
            sweeps.REGISTRY, "rigged", IdentityEntry("rigged", {}, run_rigged)
        )
        monkeypatch.setattr(sweeps, "SUITE_ORDER", ["rigged"])
        result = runner.invoke(main, ["verify", "rigged"])
        assert result.exit_code == 1
        assert "[mismatch] rigged" in result.output

    def test_float_only_also_fails(self, runner, monkeypatch):
        def run_rigged(ov):
            yield report_compare("rigged", {}, 1, Q(10**30 + 1, 10**30))

        monkeypatch.setitem(
            sweeps.REGISTRY, "rigged", IdentityEntry("rigged", {}, run_rigged)
        )
        monkeypatch.setattr(sweeps, "SUITE_ORDER", ["rigged"])
        result = runner.invoke(main, ["verify", "rigged"])
        assert result.exit_code == 1
        assert "[float_only]" in result.output


def test_verify_all_golden_digest(runner):
    """The default suite's JSON stream, float gaps aside, is pinned."""
    result = runner.invoke(main, ["verify", "all", "--format", "json"])
    assert result.exit_code == 0
    digest = hashlib.sha256()
    statuses = Counter()
    lines = result.stdout.splitlines()
    for line in lines:
        doc = json.loads(line)
        del doc["abs_float_gap"]
        statuses[doc["status"]] += 1
        digest.update((json.dumps(doc, sort_keys=True) + "\n").encode())
    assert len(lines) == 5697
    assert statuses == {"exact": 5691, "domain_excluded": 3, "pole": 3}
    assert digest.hexdigest() == "bf26bdf4bc30da4ebf387794c88069ac3a6a60f3e9f8a7b2b08360321e8541a9"


def test_verify_all_text_digest(runner):
    """The default suite's text stream, which prints no float gap, is pinned whole."""
    result = runner.invoke(main, ["verify", "all"])
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert len(lines) == 5697
    assert not any("gap=" in line for line in lines)
    digest = hashlib.sha256(result.stdout.encode()).hexdigest()
    assert digest == "fe942d2be7ece299462ac34699b820043938b3dffbd664beaed02541159f3dc7"


def test_verify_all_csv_digest(runner):
    """The default suite's CSV stream, its abs_float_gap column aside, is pinned."""
    result = runner.invoke(main, ["verify", "all", "--format", "csv"])
    assert result.exit_code == 0
    rows = list(csv.reader(io.StringIO(result.stdout, newline="")))
    assert len(rows) == 5698
    # the index-law exclusions name "falling(t, alpha+beta) is not finite (0)", quoted
    assert {len(row) for row in rows} == {len(rows[0])} == {7}
    gap = rows[0].index("abs_float_gap")
    kept = "".join(",".join(row[:gap] + row[gap + 1:]) + "\n" for row in rows)
    digest = hashlib.sha256(kept.encode()).hexdigest()
    assert digest == "587b18b62a341b7f48ecb0e079cb4bd8113a6dfe6d7f4e54c6ef0ea072e9832e"


def test_csv_quotes_a_field_that_holds_a_comma(runner):
    argv = ["verify", "saalschutz", "--force", "--a", "1", "--b", "1", "--c", "-1", "--m", "3", "--format", "csv"]
    result = runner.invoke(main, argv)
    assert result.exit_code == 0
    assert result.stdout.splitlines()[1] == 'saalschutz,domain_excluded,a=1;b=1;c=-1;m=3,,,,"(c)_m vanishes for c=-1, m=3"'
    rows = list(csv.reader(io.StringIO(result.stdout, newline="")))
    assert [len(row) for row in rows] == [7, 7]
    assert rows[1][-1] == "(c)_m vanishes for c=-1, m=3"


# Small values for each parameter kind, so that every drawn sweep stays cheap.
# bridge and index-law are cheap at any point and take large rationals too.
_SMALL_RATIONALS = st.fractions(min_value=-8, max_value=8, max_denominator=6)
_LARGE_RATIONALS = st.fractions(min_value=-500, max_value=500, max_denominator=6)
_KIND_VALUES = {
    INT: st.integers(min_value=-3, max_value=8),
    SIZE: st.integers(min_value=0, max_value=3),
    FLAG: st.just(True),
}


@st.composite
def _verify_argv(draw):
    verify = main.commands["verify"]
    flags = {param.name: param.opts[0] for param in verify.params}
    identity = draw(st.sampled_from(sorted(REGISTRY)))
    allowed = sorted(REGISTRY[identity].defaults)
    # every size is pinned small: the defaults would run full sweeps
    keys = draw(st.sets(st.sampled_from(allowed))) | {k for k in allowed if PARAMS[k] == SIZE}
    rationals = _LARGE_RATIONALS if identity in ("bridge", "index-law") else _SMALL_RATIONALS
    argv = ["verify", identity]
    for key in sorted(keys):
        kind = PARAMS[key]
        value = draw(rationals if kind == RATIONAL else _KIND_VALUES[kind])
        argv += [flags[key]] if kind == FLAG else [flags[key], str(value)]
    return argv


def _assert_exit_code_contract(result):
    """Exit 0, 1 or 2, never a traceback, and 1 only after a failure report."""
    assert result.exception is None or isinstance(result.exception, SystemExit), result.output
    assert result.exit_code in (0, 1, 2)
    if result.exit_code == 1:
        lines = result.stdout.splitlines()
        assert any(line.startswith(("[mismatch]", "[float_only]")) for line in lines)


@settings(max_examples=200, deadline=None)
@given(_verify_argv())
def test_exit_code_contract(argv):
    _assert_exit_code_contract(CliRunner().invoke(main, argv))


# JSON-shaped config values.  Numbers stay small and a range object spans at
# most seven values, so that every drawn sweep stays cheap.
_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=8),
    st.sampled_from([0.5, -2.0]),
    _SMALL_RATIONALS.map(str),
    st.sampled_from(["", "x", "1/0"]),
)
_RANGE_OBJECTS = st.one_of(
    st.fixed_dictionaries({
        "num_min": st.integers(min_value=-2, max_value=1),
        "num_max": st.integers(min_value=-1, max_value=2),
        "den_max": st.integers(min_value=0, max_value=2),
    }),
    st.sampled_from([{"num_max": 1.5}, {"den_max": True}, {"step": 1}]),
)
_JSON_VALUES = st.one_of(
    _JSON_LEAVES,
    st.lists(_JSON_LEAVES, max_size=3),
    _RANGE_OBJECTS,
    st.dictionaries(st.sampled_from(["t", "bogus"]), _JSON_LEAVES, max_size=2),
)


@st.composite
def _config_document(draw):
    identity = draw(st.sampled_from(sorted(REGISTRY)))
    defaults = REGISTRY[identity].defaults
    # flat keys the identity takes, and unknown ones such as the old sections
    keys = st.sampled_from(sorted(defaults) + ["bogus", "fixed", "sweep"])
    entry = {"identity": identity, **draw(st.dictionaries(keys, _JSON_VALUES, max_size=4))}
    # every size is pinned small: the defaults would run full sweeps
    for key in defaults:
        if PARAMS[key] == SIZE:
            entry[key] = draw(_KIND_VALUES[SIZE])
    return {"suite": [entry]}


@settings(max_examples=200, deadline=None)
@given(_config_document())
@example({"suite": [{"identity": "bridge", "t": ["1/2", "5/2"], "alpha": {"num_max": 1, "den_max": 1}}]})
def test_config_exit_code_contract(document):
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("sweeps.json", "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        result = runner.invoke(main, ["verify", "all", "--config", "sweeps.json"])
    _assert_exit_code_contract(result)


# Small values for eval and table: rationals with |numerator| <= 12 and
# denominator <= 6, short windows and low orders, so that every draw is cheap;
# one value in ten is a literal that no flag takes.
_SMALL_LITERALS = st.builds(Q, st.integers(-12, 12), st.integers(1, 6)).map(str)
_GRID_SPECS = st.one_of(
    _SMALL_LITERALS.map("const:{}".format),
    st.integers(0, 3).map("kpow:{}".format),
    st.lists(_SMALL_LITERALS, min_size=1, max_size=4).map(lambda qs: "table:" + ",".join(qs)),
    _SMALL_LITERALS.map("fallpow:{}".format),
)
_EVAL_VALUES = {
    "f": _GRID_SPECS,
    "len": st.integers(0, 6).map(str),
    "t_index": st.integers(-3, 20).map(str),
    "m": st.integers(-3, 8).map(str),
}
_WINDOW_FLAGS = ("a", "f", "len", "at")


@st.composite
def _eval_table_argv(draw):
    command = draw(st.sampled_from(["eval", "table"]))
    flags = _flags_of(command)
    subject = draw(st.sampled_from(sorted(name for name, entry in _SUBJECTS.items() if command in entry[1])))
    needs = _SUBJECTS[subject][0]
    # every flag the subject needs, now and then but one, and any of the window's
    dropped = draw(st.sampled_from([None] * 3 + list(needs)))
    keys = {key for key in needs if key != dropped} | draw(
        st.sets(st.sampled_from([key for key in flags if key in _WINDOW_FLAGS]))
    )
    argv = [command, subject]
    for key in sorted(keys):
        if draw(st.sampled_from([False] * 9 + [True])):
            value = st.sampled_from(["x", "0.5", "+3", ""])
        elif key in _EVAL_VALUES:
            value = _EVAL_VALUES[key]
        else:
            value = _SMALL_LITERALS if _KINDS[key] == RATIONAL else st.integers(-3, 8).map(str)
        argv += ["--" + key.replace("_", "-"), draw(value)]
    return argv + ["--format", draw(st.sampled_from(["json", "text" if command == "eval" else "csv"]))]


@settings(max_examples=200, deadline=None)
@given(_eval_table_argv())
@example(["eval", "binom", "--alpha", "1/2", "--n", "+3", "--format", "text"])
@example(["table", "fallpow", "--mu", "1/2", "--len", "0", "--format", "csv"])
@example(["eval", "falling", "--x", "5", "--y", "2", "--f", "wave:1", "--format", "text"])
def test_eval_table_exit_code_contract(argv):
    """Exit 0 or 2, never a traceback, and nothing on stdout when refused."""
    result = CliRunner().invoke(main, argv)
    assert result.exception is None or isinstance(result.exception, SystemExit), result.output
    assert result.exit_code in (0, 2)
    if result.exit_code == 2:
        assert result.stdout == ""


def test_flag_spellings_are_pinned():
    def spellings(command):
        return {opt for param in main.commands[command].params for opt in param.opts if opt.startswith("--")}

    assert spellings("eval") == {
        "--x", "--y", "--alpha", "--n", "--a", "--nu", "--mu", "--p", "--t-index", "--f", "--len", "--at",
        "--a1", "--a2", "--m", "--b1", "--b2", "--z", "--format",
    }
    assert spellings("table") == {"--a", "--nu", "--mu", "--f", "--len", "--format"}
    assert spellings("verify") == {
        "--t", "--alpha", "--beta", "--gamma", "--a", "--mu", "--nu", "--p", "--x", "--y", "--b", "--c",
        "--n", "--m", "--k", "--t-index", "--n-max", "--m-max", "--t-extra", "--n-extra", "--count",
        "--seed", "--window", "--max-window", "--force", "--config", "--format",
    }


class TestTable:
    def test_fracsum_rows(self, runner):
        result = runner.invoke(
            main, ["table", "fracsum", "--a", "0", "--nu", "1/2", "--f", "const:1", "--len", "4"]
        )
        assert result.output.splitlines() == [
            "point,value",
            "1/2,1",
            "3/2,3/2",
            "5/2,15/8",
            "7/2,35/16",
        ]

    def test_fallpow_rows(self, runner):
        result = runner.invoke(main, ["table", "fallpow", "--a", "0", "--mu", "1", "--len", "3"])
        assert result.output.splitlines() == ["point,value", "1,1", "2,2", "3,3"]

    def test_json_round_trip(self, runner):
        result = runner.invoke(
            main,
            ["table", "aediff", "--a", "0", "--mu", "3/2", "--f", "kpow:1", "--len", "6", "--format", "json"],
        )
        doc = json.loads(result.output)
        gf = GridFunction(parse_rational(doc["origin"]), [parse_gamma_polynomial(v) for v in doc["values"]])
        f = GridFunction(0, [Q(k) for k in range(6)])
        assert gf == ae_frac_diff(f, Q(3, 2))

    def test_missing_order_exits_2(self, runner):
        result = runner.invoke(main, ["table", "fracsum", "--len", "3"])
        assert result.exit_code == 2

    def test_window_too_short_exits_2(self, runner):
        result = runner.invoke(
            main, ["table", "aediff", "--mu", "5/2", "--f", "const:1", "--len", "2"]
        )
        assert result.exit_code == 2

    def test_empty_fallpow_window_exits_2(self, runner):
        result = runner.invoke(main, ["table", "fallpow", "--mu", "1/2", "--len", "0"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "error: a grid function needs at least one value\n"

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["fracsum", "--nu", "-1/3", "--f", "kpow:2"],
                "d9f0431553ed91f8ed78b31f18903b3273f2bfd34f935649543c7efdbd484b04",
            ),
            (
                ["fracsum", "--nu", "-5/2", "--f", "fallpow:1/3"],
                "fb633705649d4ef138a7365b0cc9fb0bafa0ab41211e42b2e25924f585c4e956",
            ),
            (
                ["aediff", "--mu", "5/2", "--f", "fallpow:1/2"],
                "a35d2db077b8bbe2543c02ecff693499b08ca061c1376e94e4bafa444cbd1c69",
            ),
        ],
    )
    def test_long_window_json_is_pinned(self, runner, argv, digest):
        # 256-point windows; the digests predate the integer weights and
        # differences, and hold their output to the Fraction recurrence's
        result = runner.invoke(main, ["table", *argv, "--len", "256", "--format", "json"])
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest

    @pytest.mark.parametrize(
        "command", [["table", "fracsum", "--nu", "1/2"], ["eval", "aediff", "--mu", "1/2"]]
    )
    def test_len_other_than_the_table_length_exits_2(self, runner, command):
        result = runner.invoke(main, [*command, "--f", "table:1,2,3", "--len", "5"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "error: --len 5 does not match the 3 entries of the table\n"

    def test_len_equal_to_the_table_length_is_accepted(self, runner):
        argv = ["table", "fracsum", "--nu", "1/2", "--f", "table:1,2,3"]
        implicit = runner.invoke(main, argv)
        explicit = runner.invoke(main, [*argv, "--len", "3"])
        assert implicit.exit_code == explicit.exit_code == 0
        assert explicit.stdout == implicit.stdout == "point,value\n1/2,1\n3/2,5/2\n5/2,35/8\n"


_EXPORTING_MODULES = ["deltafrac"] + [
    f"deltafrac.{info.name}"
    for info in pkgutil.iter_modules(deltafrac.__path__)
    if hasattr(importlib.import_module(f"deltafrac.{info.name}"), "__all__")
]


@pytest.mark.parametrize("module_name", _EXPORTING_MODULES)
def test_every_export_resolves(module_name):
    # the benchmark tracer calls getattr on every __all__ name
    module = importlib.import_module(module_name)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
