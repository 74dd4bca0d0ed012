"""Command line behavior: values, reports, formats, exit codes, determinism."""
import csv
import gc
import hashlib
import importlib
import io
import json
import math
import pkgutil
import subprocess
import sys
import weakref
from collections import Counter
from fractions import Fraction as Q

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

import deltafrac
import deltafrac.sweeps as sweeps
from deltafrac import (
    GridFunction,
    ae_frac_diff,
    hyp3f2_terminating,
    parse_gamma_polynomial,
    parse_rational,
    report_compare,
)
from deltafrac.cli import _KINDS, _SUBJECTS, _flags_of, _subjects_of, main
from deltafrac.sweeps import FLAG, INT, PARAMS, RATIONAL, REGISTRY, SIZE, IdentityEntry


# what every command prints on stderr when its stdout closes early
_CLOSED_STDOUT = "error: stdout was closed before every line was written\n"
_POWER_RULE_ARGV = ["verify", "power-rule", "--a", "0", "--mu", "1/2", "--nu", "1/2", "--n-max", "8"]
_EVAL_ARGV = ["eval", "falling", "--x", "5", "--y", "2"]
_TABLE_ARGV = ["table", "fracsum", "--nu", "1/2", "--f", "kpow:3", "--len", "4"]


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def default_digit_limit():
    """The interpreter's default int-to-str digit limit for one test, where it has one.

    A test that checks main's lift starts from the default, whatever an
    earlier test left, and the limit it found is restored afterwards.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    found = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield
    sys.set_int_max_str_digits(found)


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

    def test_hyp3f2_negative_m_exits_2(self, runner):
        result = runner.invoke(
            main,
            ["eval", "hyp3f2", "--a1", "1/2", "--a2", "1/3", "--m", "-1",
             "--b1", "7/4", "--b2", "1/5", "--z", "1"],
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "error: m must be a nonnegative integer\n"

    def test_binom_negative_n_exits_2(self, runner):
        result = runner.invoke(main, ["eval", "binom", "--alpha", "1/2", "--n", "-1"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "error: n must be a nonnegative integer\n"

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

    def test_a_value_past_the_digit_limit_prints_exactly(self, runner, default_digit_limit):
        argv = ["--a1", "1/2", "--a2", "1/3", "--m", "4000", "--b1", "7/4", "--b2", "-17999/12", "--z", "-2/5"]
        result = runner.invoke(main, ["eval", "hyp3f2", *argv, "--format", "json"])
        assert result.exit_code == 0, result.output
        value = json.loads(result.stdout)["value"]
        assert len(value) > 4300
        # main restored the default limit on close, so the parse lifts it, as CI's step does
        if hasattr(sys, "set_int_max_str_digits"):
            sys.set_int_max_str_digits(0)
        assert Q(value) == hyp3f2_terminating(Q(1, 2), Q(1, 3), 4000, Q(7, 4), Q(-17999, 12), Q(-2, 5))

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
    @pytest.mark.parametrize("argv, code", [(["--x", "5", "--y", "2"], 0), (["--x", "5"], 2)])
    def test_a_command_restores_the_digit_limit(self, runner, default_digit_limit, argv, code):
        sys.set_int_max_str_digits(5000)
        assert runner.invoke(main, ["eval", "falling", *argv]).exit_code == code
        assert sys.get_int_max_str_digits() == 5000

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

    @pytest.mark.parametrize(
        "argv, line",
        [
            (
                ["--a", "1/2", "--b", "1/2", "--c", "-1", "--m", "1"],
                "[domain_excluded] saalschutz a=1/2 b=1/2 c=-1 m=1 excluded_by=c must not be a nonpositive integer",
            ),
            (
                ["--a", "3/2", "--b", "1/5", "--c", "3/2", "--m", "1"],
                "[domain_excluded] saalschutz a=3/2 b=1/5 c=3/2 m=1 excluded_by=c-a-1 must not be a negative integer",
            ),
        ],
    )
    def test_a_pinned_point_outside_the_hypotheses_names_the_one_it_violates(self, runner, argv, line):
        result = runner.invoke(main, ["verify", "saalschutz", *argv])
        assert result.exit_code == 0
        assert result.stdout == line + "\n"

    def test_a_report_past_the_digit_limit_is_exact(self, runner, default_digit_limit):
        argv = ["--a", "1/2", "--b", "1/3", "--c", "7/4", "--m", "2200", "--format", "json"]
        result = runner.invoke(main, ["verify", "saalschutz", *argv])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.stdout)
        assert doc["status"] == "exact"
        assert len(doc["lhs"]) > 4300

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
            (["gamma-sum", "--n", "-1"], "n must be a nonnegative integer"),
            (["alt-sum", "--k", "-1"], "k must be a nonnegative integer"),
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

    @pytest.mark.parametrize(
        "argv, fmt, writes",
        [
            pytest.param(_POWER_RULE_ARGV, "json", 9, id="json-9"),
            pytest.param(_POWER_RULE_ARGV, "text", 9, id="text-9"),
            pytest.param(_POWER_RULE_ARGV, "csv", 10, id="csv-10"),
            pytest.param(_EVAL_ARGV, "text", 1, id="eval-text-1"),
            pytest.param(_EVAL_ARGV, "json", 1, id="eval-json-1"),
            pytest.param(_TABLE_ARGV, "csv", 5, id="table-csv-5"),
            pytest.param(_TABLE_ARGV, "json", 1, id="table-json-1"),
        ],
    )
    def test_one_write_and_one_flush_per_report(self, runner, argv, fmt, writes):
        # each line streams as it is written; a csv header is one more line
        calls = []

        class CountingStdout:
            def write(self, data):
                calls.append(("write", data))
                return len(data)

            def flush(self):
                calls.append(("flush", None))

        argv = [*argv, "--format", fmt]
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = CountingStdout(), io.StringIO()
        try:
            main(argv, standalone_mode=False)
        except SystemExit as exc:
            assert exc.code == 0
        finally:
            sys.stdout, sys.stderr = saved
        assert [kind for kind, _ in calls] == ["write", "flush"] * writes
        lines = [data for kind, data in calls if kind == "write"]
        assert all(line.count("\n") == 1 and line.endswith("\n") for line in lines)
        assert "".join(lines) == runner.invoke(main, argv).stdout

    def test_closed_stdout_exits_2_without_a_traceback(self):
        # the reader takes one line of the suite's json stream and closes the pipe
        proc = subprocess.Popen(
            [sys.executable, "-m", "deltafrac.cli", "verify", "all", "--format", "json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=120)
        assert json.loads(first)["identity"] == "bridge"
        assert proc.returncode == 2
        assert stderr.decode() == _CLOSED_STDOUT

    def test_closed_table_stdout_exits_2_without_a_traceback(self):
        # 3000 rows of about 5 MB, far past a pipe's buffer: the reader takes the header
        proc = subprocess.Popen(
            [sys.executable, "-m", "deltafrac.cli", "table", "fracsum", "--nu", "1/2", "--f", "kpow:3",
             "--len", "3000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=120)
        assert first == b"point,value\n"
        assert proc.returncode == 2
        assert stderr.decode() == _CLOSED_STDOUT

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(_EVAL_ARGV, id="eval"),
            pytest.param(_TABLE_ARGV, id="table"),
            pytest.param(["verify", "bridge", "--format", "json"], id="verify"),
        ],
    )
    def test_closed_stdout_without_a_file_descriptor_exits_2(self, argv):
        class ClosedPipe(io.StringIO):
            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = ClosedPipe(), io.StringIO()
        try:
            with pytest.raises(SystemExit) as exited:
                main(argv, standalone_mode=False)
            stderr = sys.stderr.getvalue()
        finally:
            sys.stdout, sys.stderr = saved
        assert exited.value.code == 2
        assert stderr == _CLOSED_STDOUT

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

    @pytest.mark.parametrize(
        "t_index, reason",
        [
            ("-1", "t_index must be a nonnegative integer (got -1)"),
            ("13", "window of length 13 does not reach index 13: alt-sum window is 13"),
        ],
    )
    def test_pinned_t_index_off_the_window_exits_2(self, runner, t_index, reason):
        # a negative index is a domain error; only an index past the window blames the window
        argv = ["verify", "alt-sum", "--t-index", t_index, "--k", "0", "--count", "1"]
        result = runner.invoke(main, argv)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"error: {reason}\n"

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
            (1, "each sweep entry must be a JSON object"),
            ({"identity": "saalschutz", "force": "yes"}, "force must be true or false"),
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
    """The default suite's JSON stream is pinned whole, and its float gaps aside."""
    result = runner.invoke(main, ["verify", "all", "--format", "json"])
    assert result.exit_code == 0
    whole = hashlib.sha256(result.stdout.encode()).hexdigest()
    assert whole == "ee23a4aafb80661bed9778944de1ce08e7d19cd27306fd00bb5ce9b76f562f09"
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
    """The default suite's CSV stream is pinned whole, and its abs_float_gap column aside."""
    result = runner.invoke(main, ["verify", "all", "--format", "csv"])
    assert result.exit_code == 0
    whole = hashlib.sha256(result.stdout.encode()).hexdigest()
    assert whole == "14922be38e1ff3e1284eafa396412f92f3a7452727bf567a8f585b82bba2b17b"
    rows = list(csv.reader(io.StringIO(result.stdout, newline="")))
    assert len(rows) == 5698
    # the index-law exclusions name "falling(t, alpha+beta) is not finite (0)", quoted
    assert {len(row) for row in rows} == {len(rows[0])} == {7}
    gap = rows[0].index("abs_float_gap")
    kept = "".join(",".join(row[:gap] + row[gap + 1:]) + "\n" for row in rows)
    digest = hashlib.sha256(kept.encode()).hexdigest()
    assert digest == "587b18b62a341b7f48ecb0e079cb4bd8113a6dfe6d7f4e54c6ef0ea072e9832e"


@pytest.mark.parametrize(
    "argv, lines, digest",
    [
        (
            ["verify", "form1", "--n-max", "24"],
            300,
            "70aa1f63b4de73723e1263ec14935877d6ee33c2a32f2731529a5601f92927cd",
        ),
        (
            ["verify", "nabla-zero", "--t-extra", "120"],
            2178,
            "cd2f3edeeed57535ff0700977c5316cd38e87f077a7860b862d1c2554be35b28",
        ),
        (
            # the domain_excluded boundaries here are nonzero nabla values
            ["verify", "nabla-zero", "--t-index", "2"],
            18,
            "0d8560128aa28eed88501d25ce38b19ab7d69cb4208cb366b612dfe40edb04bc",
        ),
        (
            ["eval", "nabla", "--a", "0", "--p", "1/3", "--alpha", "5/7", "--t-index", "200"],
            1,
            "a58f261166837a7ba9b9a0bfcbe20345f73ffbef8660f9014d5dcdec088de5c6",
        ),
        (
            ["verify", "form1", "--n", "5"],
            12,
            "1b14f91a677e6b172f06eacda111a4259af586eab92d5f7384b67a163dd88d5a",
        ),
        (
            ["verify", "gamma-sum", "--n", "4"],
            6,
            "bbd8789584ce396f277cd302c95647ce97b1aa8068fcdd0691ebe50184b96406",
        ),
        (
            ["verify", "saalschutz", "--m", "3"],
            72,
            "90c5184ece8fc92b80e39127e5136bb26f4e0e7dc98db6375d79a5f2a5a35fcb",
        ),
        (
            ["verify", "leibniz", "--window", "48", "--count", "2"],
            288,
            "f91acdbf7f37c4df2eb4042a98d81edd947b63d32445236b08ce3a11ddf1fe64",
        ),
        (
            ["verify", "mr-ae", "--max-window", "40", "--count", "3"],
            185,
            "d58e9dc359a3895fe1d1f840a7b1e37a33502f23be3f146dc278622ca7703732",
        ),
        (
            ["eval", "nabla", "--a", "0", "--p", "1/3", "--alpha", "7/3", "--t-index", "5000"],
            1,
            "af9fda7944ae60ded32f0471657ea29fc5d892b49ef946f33158af35609dd81c",
        ),
        (
            ["verify", "form1", "--n-max", "40"],
            492,
            "87d0338fabca133a55a3f88aa060410d3414b093878a05f6e066c56bf8b688f7",
        ),
        (
            ["verify", "saalschutz", "--m-max", "40"],
            2952,
            "da5816f481e11b1fab546b75a7c3a1164544450da8e0975e55e8e6904fac2f4b",
        ),
        (
            ["verify", "saalschutz", "--a", "3/2", "--b", "3/2", "--c", "1", "--m-max", "6", "--force"],
            7,
            "e2ab4e37a0f59d4a3203c19bf4832f4ad1df61d137c2da4536f07ccd8da01e20",
        ),
        (
            ["verify", "power-rule", "--n-max", "100"],
            7575,
            "d38726e0590423f8adb196329b34809f7e642989b3b692243df487a4cb93a533",
        ),
        (
            ["eval", "hyp3f2", "--a1", "1/2", "--a2", "1/3", "--m", "1500", "--b1", "7/4", "--b2", "-17999/12", "--z", "1"],
            1,
            "3493398a49cc7b74705f1375e8a669db704749024fd21adbcc7df3596ccd635e",
        ),
        (
            ["verify", "saalschutz", "--a", "1/2", "--b", "1/3", "--c", "7/4", "--m", "2200"],
            1,
            "9a366eddbc0adfb7c996fb23fee3d07396fdfb0e8a48830a26d57932f3e82857",
        ),
    ],
    ids=[
        "form1-n-max-24", "nabla-zero-t-extra-120", "nabla-zero-t-index-2", "eval-nabla-t-index-200",
        "form1-n-5", "gamma-sum-n-4", "saalschutz-m-3", "leibniz-window-48", "mr-ae-max-window-40",
        "eval-nabla-t-index-5000", "form1-n-max-40", "saalschutz-m-max-40", "saalschutz-forced-m-max-6",
        "power-rule-n-max-100", "eval-hyp3f2-m-1500", "saalschutz-m-2200",
    ],
)
def test_long_stream_json_is_pinned(runner, argv, lines, digest):
    # form1 to N = 24 and the nabla kernel to t_index 200, past the default grid; the
    # digests predate the single Gamma value per sum, and hold the output to the
    # per-summand Gamma ratios'.  A pinned n, m or t_index runs the one value over the
    # default grid of the other parameters; its digests predate the one index rule.
    # The Leibniz expansion on 48-point windows and the stepped difference on a
    # 39-point window run the packed kernel, which no default window reaches; their
    # digests predate the expansion's weighted, shifted column product.  The last seven
    # are CI's installed-script pins, run here in process: the nabla kernel to t_index
    # 5000, form1 and Saalschutz to index 40, a forced Saalschutz line through both
    # vanishing denominators, the power rule to N = 100, and a 3F2 and a Saalschutz
    # point whose values pass int-to-str's default digit limit
    result = runner.invoke(main, [*argv, "--format", "json"])
    assert result.exit_code == 0
    assert len(result.stdout.splitlines()) == lines
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest


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


# Huge literals: integers of 4400-5000 digits, past int-to-str's default limit,
# and rationals past a double.  They go only where no Gamma shift runs over
# them, since gamma_of's shift is O(x).
_SIGNS = st.sampled_from(["", "-"])
_HUGE_LITERALS = st.one_of(
    st.builds("{}{}".format, _SIGNS, st.builds(str.__mul__, st.sampled_from("123456789"), st.integers(4400, 5000))),
    st.builds("{}1{}/{}".format, _SIGNS, st.integers(309, 400).map("0".__mul__), st.integers(1, 6)),
)
# For verify: identity -> (the flags that take a huge literal, the pins that
# keep its sweep small beside one).  bridge's and index-law's t and form1's
# beta and gamma are left out, since every one of them reaches gamma_of.
# gamma-sum pins n, since a huge mu or nu can make -(mu+nu) a huge integer,
# the first n of its unpinned sweep.
_HUGE_VERIFY = {
    "saalschutz": (("a", "c"), {"m": st.integers(0, 2)}),
    "binom-falling": (("x", "y", "seed"), {"n": st.integers(0, 3)}),
    "binom-poch": (("x", "y", "seed"), {"n": st.integers(0, 3)}),
    "alt-sum": (("alpha", "seed"), {}),
    "nabla-zero": (("a",), {}),
    "power-rule": (("a",), {}),
    "form1": (("alpha",), {"n": st.integers(0, 3)}),
    "leibniz": (("alpha", "seed"), {}),
    "mr-ae": (("mu", "seed"), {}),
    "gamma-sum": (("mu", "nu"), {"n": st.integers(0, 3)}),
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
    # one draw in eight gives huge literals to some of the flags that take them
    huge_flags, pins = _HUGE_VERIFY.get(identity, ((), {}))
    huge, fmt = set(), "text"
    if huge_flags and draw(st.sampled_from([False] * 7 + [True])):
        huge = draw(st.sets(st.sampled_from(huge_flags), min_size=1))
        keys |= huge | set(pins)
        if identity.startswith("binom-"):
            fmt = draw(st.sampled_from(["text", "json", "csv"]))
    argv = ["verify", identity]
    for key in sorted(keys):
        kind = PARAMS[key]
        if key in huge:
            value = draw(_HUGE_LITERALS)
        elif huge and key in pins:
            value = draw(pins[key])
        else:
            value = draw(rationals if kind == RATIONAL else _KIND_VALUES[kind])
        argv += [flags[key]] if kind == FLAG else [flags[key], str(value)]
    return argv if fmt == "text" else argv + ["--format", fmt]


def _assert_exit_code_contract(result, fmt="text"):
    """Exit 0, 1 or 2, never a traceback, and 1 only after a failure report."""
    assert result.exception is None or isinstance(result.exception, SystemExit), result.output
    assert result.exit_code in (0, 1, 2)
    if result.exit_code == 1:
        lines = result.stdout.splitlines()
        if fmt == "json":
            failed = [json.loads(line)["status"] in ("mismatch", "float_only") for line in lines]
        elif fmt == "csv":
            failed = [row[1] in ("mismatch", "float_only") for row in csv.reader(lines[1:])]
        else:
            failed = [line.startswith(("[mismatch]", "[float_only]")) for line in lines]
        assert any(failed)


@settings(max_examples=200, deadline=None)
@given(_verify_argv())
@example(["verify", "binom-poch", "--x", "7" * 4600, "--y", "-" + "3" * 4500 + "/2", "--n", "3", "--format", "csv"])
@example(["verify", "saalschutz", "--a", "1" + "0" * 350 + "/3", "--c", "-" + "9" * 4800, "--m", "2"])
@example(["verify", "gamma-sum", "--mu", "1/3", "--nu", "-1" + "0" * 330 + "/3", "--n", "2"])
def test_exit_code_contract(argv):
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    _assert_exit_code_contract(CliRunner().invoke(main, argv), fmt)


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
# Huge literals for eval and table go only where no Gamma shift runs over
# them: falling and poch at an integer order 0-3, binom at n <= 3, hyp3f2's z
# at m <= 8 (as drawn) and const: windows of length 1-6.
_HUGE_ORDER = {"x": _HUGE_LITERALS, "y": st.integers(0, 3).map(str)}
_HUGE_WINDOW = {"f": _HUGE_LITERALS.map("const:{}".format), "len": st.integers(1, 6).map(str)}
_HUGE_VALUES = {
    "falling": _HUGE_ORDER,
    "poch": _HUGE_ORDER,
    "binom": {"alpha": _HUGE_LITERALS, "n": st.integers(-3, 3).map(str)},
    "hyp3f2": {"z": _HUGE_LITERALS},
    "fracsum": _HUGE_WINDOW,
    "mrdiff": _HUGE_WINDOW,
    "aediff": _HUGE_WINDOW,
}


@st.composite
def _eval_table_argv(draw):
    command = draw(st.sampled_from(["eval", "table"]))
    flags = _flags_of(command)
    subject = draw(st.sampled_from(sorted(name for name, entry in _SUBJECTS.items() if command in entry[1])))
    needs = _SUBJECTS[subject][0]
    # one draw in eight gives the subject's huge values
    huge = _HUGE_VALUES.get(subject, {}) if draw(st.sampled_from([False] * 7 + [True])) else {}
    # every flag the subject needs, now and then but one, and any of the window's
    dropped = draw(st.sampled_from([None] * 3 + list(needs)))
    keys = {key for key in (*needs, *huge) if key != dropped} | draw(
        st.sets(st.sampled_from([key for key in flags if key in _WINDOW_FLAGS]))
    )
    argv = [command, subject]
    for key in sorted(keys):
        if key in huge:
            value = huge[key]
        elif draw(st.sampled_from([False] * 9 + [True])):
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
@example(["eval", "falling", "--x", "-" + "7" * 4700 + "/3", "--y", "3", "--format", "json"])
@example(["eval", "hyp3f2", "--a1", "1/2", "--a2", "1/3", "--m", "8", "--b1", "7/4", "--b2", "-5/3",
          "--z", "1" + "0" * 320 + "/3", "--format", "json"])
def test_eval_table_exit_code_contract(argv):
    """Exit 0 or 2, never a traceback, nothing on stdout when refused, and a finite or null float."""
    result = CliRunner().invoke(main, argv)
    assert result.exception is None or isinstance(result.exception, SystemExit), result.output
    assert result.exit_code in (0, 2)
    if result.exit_code == 2:
        assert result.stdout == ""
    elif argv[0] == "eval" and argv[-1] == "json":
        as_float = json.loads(result.stdout)["float"]
        assert as_float is None or math.isfinite(as_float)


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
