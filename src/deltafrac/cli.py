"""Command line front end.

Three commands:

  eval    evaluate one operator at one parameter point, print the value
  verify  run an identity check or sweep, stream one report per point
  table   print a whole grid-function window as CSV or JSON

eval and table flags use verify's kind table and parser; --len is 8 or a table's length.

Exit codes are uniform: 0 success, 1 any mismatch or float_only report,
2 usage, config, or domain errors, or any command whose stdout closed early.
Identical invocations produce byte-identical output.
"""
from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from functools import partial
from itertools import chain

import click

from .errors import DeltafracError
from .exact import as_polynomial, parse_rational
from .fracops import (
    ae_frac_diff,
    frac_sum_diff,
    mr_frac_diff,
    nabla_poch_diff,
)
from .gridfn import GridFunction, sample_falling_power
from .identities import hyp3f2_terminating
from .report import (
    CSV_HEADER,
    DOMAIN_EXCLUDED,
    EXACT,
    FLOAT_ONLY,
    MISMATCH,
    POLE,
    VerificationReport,
)
from .special import SpecialValue, falling, gen_binomial, pochhammer
from .sweeps import (
    FLAG,
    INT,
    PARAMS,
    RATIONAL,
    SIZE,
    _convert,
    default_suite,
    identity_names,
    load_config,
    parse_config_entry,
    run_sweep,
)

_STATUS_ORDER = (EXACT, FLOAT_ONLY, MISMATCH, DOMAIN_EXCLUDED, POLE)

# The kind of every parameter flag but --f, whose grid spec _source_window parses:
# the sweep parameters, the series parameters of eval hyp3f2 and the window's.
_KINDS = {
    **PARAMS,
    "a1": RATIONAL, "a2": RATIONAL, "b1": RATIONAL, "b2": RATIONAL, "z": RATIONAL,
    "len": SIZE, "at": INT,
}


# Echo only to stderr, by name: click's default-stream cache keeps each stream it sees alive.
def _fail(message: str) -> None:
    click.echo(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _length(opts) -> int:
    """The window length: --len, or 8 when it is unset."""
    return 8 if opts["len"] is None else opts["len"]


def _source_window(opts) -> GridFunction:
    """The --f window: const:Q, kpow:J, table:Q1,Q2,... or fallpow:MU."""
    spec, a = opts["f"], opts["a"]
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError(f"grid spec needs kind:payload, got {spec!r}")
    if kind == "table":
        values = [parse_rational(part) for part in rest.split(",")]
        if opts["len"] not in (None, len(values)):
            raise ValueError(f"--len {opts['len']} does not match the {len(values)} entries of the table")
        return GridFunction(a, values)
    if kind == "const":
        return GridFunction(a, [parse_rational(rest)] * _length(opts))
    if kind == "kpow":
        j = _convert(SIZE, "kpow exponent", rest)
        return GridFunction(a, [Fraction(k**j) for k in range(_length(opts))])
    if kind == "fallpow":
        return sample_falling_power(a, parse_rational(rest), _length(opts))
    raise ValueError(f"unknown grid spec kind: {kind!r}")


def _render_value(value) -> tuple[str, float | None]:
    if isinstance(value, SpecialValue):
        if value.is_pole:
            return "pole", None
        value = value.as_polynomial()
    value = as_polynomial(value)
    return value.render(), value.to_float()


# The subjects of eval and table: the flags each needs, the commands that
# take it, and its evaluation.  A command's flags are its subjects' needs
# and the window's (_flags_of).  A window subject evaluates to a whole output
# window, which table prints and eval indexes with --at.
_SUBJECTS = {
    "falling": (("x", "y"), ("eval",), lambda o: falling(o["x"], o["y"])),
    "poch": (("x", "y"), ("eval",), lambda o: pochhammer(o["x"], o["y"])),
    "binom": (("alpha", "n"), ("eval",), lambda o: gen_binomial(o["alpha"], o["n"])),
    "fracsum": (("nu",), ("eval", "table"), lambda o: frac_sum_diff(o["f"], o["nu"])),
    "mrdiff": (("mu",), ("eval", "table"), lambda o: mr_frac_diff(o["f"], o["mu"])),
    "aediff": (("mu",), ("eval", "table"), lambda o: ae_frac_diff(o["f"], o["mu"])),
    "fallpow": (("mu",), ("table",), lambda o: sample_falling_power(o["a"], o["mu"], _length(o))),
    "nabla": (
        ("p", "alpha", "t_index"), ("eval",),
        lambda o: nabla_poch_diff(o["a"], o["p"], o["alpha"], o["t_index"]),
    ),
    "hyp3f2": (
        ("a1", "a2", "m", "b1", "b2", "z"), ("eval",),
        lambda o: hyp3f2_terminating(o["a1"], o["a2"], o["m"], o["b1"], o["b2"], o["z"]),
    ),
}


def _subjects_of(command: str) -> list[str]:
    return [name for name, (_, commands, _) in _SUBJECTS.items() if command in commands]


def _flags_of(command: str) -> dict:
    """Each flag of eval or table and its default: the flags its subjects need, then the window's."""
    flags = dict.fromkeys(key for name in _subjects_of(command) for key in _SUBJECTS[name][0])
    flags.update(a="0", f="const:1", len=None)
    if command == "eval":
        flags["at"] = "0"
    return flags


_FLAG_HELP = {
    "b": "hypergeometric b",
    "c": "hypergeometric c",
    "force": "evaluate outside the stated hypotheses",
    "f": "grid function: const:Q | kpow:J | table:Q,... | fallpow:MU",
    "len": "window length: 8, or the table's own length",
    "at": "output window index",
}


def _flag_options(flags: dict):
    """One option --key per flag, with its default; a value is a plain string (a bool for a flag)."""
    def decorate(command):
        for key, default in reversed(flags.items()):
            flag = "--" + key.replace("_", "-")
            command = click.option(
                flag, key, default=default, is_flag=_KINDS.get(key) == FLAG, help=_FLAG_HELP.get(key)
            )(command)
        return command
    return decorate


def _evaluate(command: str, subject: str, raw) -> tuple[dict, object]:
    """The flags parsed by their kinds, --f built into its window, and the subject's value."""
    needs, _, evaluate = _SUBJECTS[subject]
    try:
        opts = {k: v if v is None or k == "f" else _convert(_KINDS[k], k, v) for k, v in raw.items()}
        for name in needs:
            if opts[name] is None:
                _fail(f"{command} {subject} needs --{name.replace('_', '-')}")
        opts["f"] = _source_window(opts)
        return opts, evaluate(opts)
    except (DeltafracError, ValueError) as exc:
        _fail(str(exc))


def _stdout_closed() -> None:
    """Exit 2 on a closed stdout, and send stdout's unwritten rest to devnull.

    Otherwise the interpreter's flush at exit meets the closed pipe again and
    prints ``Exception ignored ... BrokenPipeError``.
    """
    try:
        fileno = sys.stdout.fileno()
    except OSError:
        pass  # a stdout with no file descriptor meets no pipe at exit
    else:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fileno)
        os.close(devnull)
    _fail("stdout was closed before every line was written")


def _write_lines(lines) -> None:
    """Write and flush each line as it comes: one write and one flush per line."""
    out = sys.stdout
    try:
        for line in lines:
            out.write(line + "\n")
            out.flush()
    except BrokenPipeError:
        _stdout_closed()


@click.group()
@click.pass_context
def main(ctx: click.Context) -> None:
    """Exact discrete fractional calculus: evaluate operators, verify identities."""
    # exact values outgrow int-to-str's 4300-digit limit, so it is lifted for the
    # command and restored when the command closes; 3.10.0-3.10.6 lack it
    if hasattr(sys, "set_int_max_str_digits"):
        ctx.call_on_close(partial(sys.set_int_max_str_digits, sys.get_int_max_str_digits()))
        sys.set_int_max_str_digits(0)


@main.command("eval")
@click.argument("subject", type=click.Choice(_subjects_of("eval")))
@_flag_options(_flags_of("eval"))
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def cmd_eval(subject, fmt, **raw):
    """Evaluate one operator at one parameter point."""
    opts, value = _evaluate("eval", subject, raw)
    if isinstance(value, GridFunction):
        at = opts["at"]
        if not 0 <= at < len(value):
            _fail(f"--at {at} is outside the output window (length {len(value)})")
        value = value.values[at]
    rendered, as_float = _render_value(value)
    doc = {"subject": subject, "value": rendered, "float": as_float}
    _write_lines([json.dumps(doc) if fmt == "json" else rendered])


@main.command("verify")
@click.argument("identity")
@_flag_options(dict.fromkeys(PARAMS))
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text")
def cmd_verify(identity, config_path, fmt, **params):
    """Check IDENTITY (or 'all') over a sweep, streaming one report per point."""
    overrides = {key: value for key, value in params.items() if value is not None}

    if config_path is not None:
        if identity != "all":
            _fail("--config supplies its own identities; use 'verify all --config FILE'")
        if overrides:
            _fail("parameter flags cannot be combined with --config")
        try:
            configs = load_config(config_path)
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            _fail(f"bad config: {exc}")
    elif identity == "all":
        if overrides:
            _fail("parameter flags apply to a single identity, not 'all'")
        configs = default_suite()
    else:
        if identity not in identity_names():
            _fail(f"unknown identity: {identity} (choose from {', '.join(identity_names())} or all)")
        # resolved like a config entry, before any output
        try:
            configs = [parse_config_entry({"identity": identity, **overrides})]
        except ValueError as exc:
            _fail(str(exc))

    # each status's count, and the failures' count by VerificationReport.is_failure
    counts = dict.fromkeys((*_STATUS_ORDER, "failure"), 0)
    line_of = getattr(VerificationReport, f"{fmt}_line")

    def lines():
        reports = chain.from_iterable(map(run_sweep, configs))
        # a run refused before its first report prints nothing, csv's header included
        first = next(reports, None)
        if fmt == "csv":
            yield CSV_HEADER
        for rep in () if first is None else chain((first,), reports):
            counts[rep.status] += 1
            counts["failure"] += rep.is_failure
            yield line_of(rep)

    try:
        _write_lines(lines())
    except (DeltafracError, ValueError) as exc:
        _fail(str(exc))
    total = sum(counts[status] for status in _STATUS_ORDER)
    summary = ", ".join(f"{counts[status]} {status}" for status in _STATUS_ORDER)
    click.echo(f"checked {total} parameter points: {summary}", file=sys.stderr)
    sys.exit(1 if counts["failure"] else 0)


@main.command("table")
@click.argument("subject", type=click.Choice(_subjects_of("table")))
@_flag_options(_flags_of("table"))
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
def cmd_table(subject, fmt, **raw):
    """Print a whole output window, one row per grid point."""
    _, gf = _evaluate("table", subject, raw)
    if fmt == "json":
        _write_lines([json.dumps(gf.to_json_dict())])
    else:
        rows = (f"{gf.point(i)},{gf.values[i].render()}" for i in range(len(gf)))
        _write_lines(chain(("point,value",), rows))


if __name__ == "__main__":
    main()
