"""Command line front end.

Three commands:

  eval    evaluate one operator at one parameter point, print the value
  verify  run an identity check or sweep, stream one report per point
  table   print a whole grid-function window as CSV or JSON

Exit codes are uniform: 0 success, 1 any mismatch or float_only report,
2 usage, config, or domain errors.  Identical invocations produce
byte-identical output.
"""
from __future__ import annotations

import json
import sys
from fractions import Fraction

import click
from click.core import ParameterSource

from .errors import DeltafracError
from .exact import as_polynomial, parse_rational, render_rational
from .fracops import (
    ae_frac_diff,
    frac_sum_diff,
    mr_frac_diff,
    nabla_poch_diff,
)
from .gridfn import GridFunction, sample_falling_power
from .identities import hyp3f2_terminating
from .report import (
    DOMAIN_EXCLUDED,
    EXACT,
    FLOAT_ONLY,
    MISMATCH,
    POLE,
    VerificationReport,
    _finite_float,
)
from .special import SpecialValue, falling, gen_binomial, pochhammer
from .sweeps import (
    FLAG,
    PARAMS,
    default_suite,
    identity_names,
    load_config,
    parse_config_entry,
    run_sweep,
)

_STATUS_ORDER = (EXACT, FLOAT_ONLY, MISMATCH, DOMAIN_EXCLUDED, POLE)


class RationalParam(click.ParamType):
    name = "rational"

    def convert(self, value, param, ctx):
        if isinstance(value, Fraction):
            return value
        try:
            return parse_rational(value)
        except ValueError as exc:
            self.fail(str(exc), param, ctx)


RATIONAL = RationalParam()


# Every echo names its stream: click's default-stream cache keeps each stdout it sees alive.
def _fail(message: str) -> None:
    click.echo(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _source_window(opts) -> GridFunction:
    """The --f window: const:Q, kpow:J, table:Q1,Q2,... or fallpow:MU."""
    spec, a, length = opts["f_spec"], opts["a"], opts["length"]
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError(f"grid spec needs kind:payload, got {spec!r}")
    if kind == "const":
        q = parse_rational(rest)
        return GridFunction(a, [q] * length)
    if kind == "kpow":
        try:
            j = int(rest)
        except ValueError:
            raise ValueError(f"kpow exponent must be an integer, got {rest!r}") from None
        if j < 0:
            raise ValueError("kpow exponent must be nonnegative")
        return GridFunction(a, [Fraction(k**j) for k in range(length)])
    if kind == "table":
        values = [parse_rational(part) for part in rest.split(",")]
        source = click.get_current_context().get_parameter_source("length")
        if source != ParameterSource.DEFAULT and length != len(values):
            raise ValueError(f"--len {length} does not match the {len(values)} entries of the table")
        return GridFunction(a, values)
    if kind == "fallpow":
        mu = parse_rational(rest)
        return sample_falling_power(a, mu, length)
    raise ValueError(f"unknown grid spec kind: {kind!r}")


def _render_value(value) -> tuple[str, float | None]:
    if isinstance(value, SpecialValue):
        if value.is_pole:
            return "pole", None
        value = value.as_polynomial()
    value = as_polynomial(value)
    return value.render(), _finite_float(value)


# The subjects of eval and table: the flags each needs, the commands that
# take it, and its evaluation.  A window subject evaluates to a whole output
# window, which table prints and eval indexes with --at.
_SUBJECTS = {
    "falling": (("x", "y"), ("eval",), lambda o: falling(o["x"], o["y"])),
    "poch": (("x", "y"), ("eval",), lambda o: pochhammer(o["x"], o["y"])),
    "binom": (("alpha", "n"), ("eval",), lambda o: gen_binomial(o["alpha"], o["n"])),
    "fracsum": (
        ("nu",), ("eval", "table"),
        lambda o: frac_sum_diff(_source_window(o), o["nu"]),
    ),
    "mrdiff": (("mu",), ("eval", "table"), lambda o: mr_frac_diff(_source_window(o), o["mu"])),
    "aediff": (("mu",), ("eval", "table"), lambda o: ae_frac_diff(_source_window(o), o["mu"])),
    "fallpow": (("mu",), ("table",), lambda o: sample_falling_power(o["a"], o["mu"], o["length"])),
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


def _evaluate(command: str, subject: str, opts):
    needs, _, evaluate = _SUBJECTS[subject]
    for name in needs:
        if opts[name] is None:
            _fail(f"{command} {subject} needs --{name.replace('_', '-')}")
    try:
        return evaluate(opts)
    except (DeltafracError, ValueError) as exc:
        _fail(str(exc))


@click.group()
def main() -> None:
    """Exact discrete fractional calculus: evaluate operators, verify identities."""


@main.command("eval")
@click.argument("subject", type=click.Choice(_subjects_of("eval")))
@click.option("--x", type=RATIONAL, default=None, help="base argument")
@click.option("--y", type=RATIONAL, default=None, help="order argument")
@click.option("--alpha", type=RATIONAL, default=None, help="binomial upper / nabla order")
@click.option("--n", type=int, default=None, help="binomial lower index")
@click.option("--a", type=RATIONAL, default=Fraction(0), help="grid origin")
@click.option("--nu", type=RATIONAL, default=None, help="fracsum order")
@click.option("--mu", type=RATIONAL, default=None, help="mrdiff/aediff order")
@click.option("--p", type=RATIONAL, default=None, help="nabla power exponent")
@click.option("--t-index", "t_index", type=int, default=None, help="grid steps past the origin")
@click.option("--f", "f_spec", default="const:1", help="grid function: const:Q | kpow:J | table:Q,... | fallpow:MU")
@click.option("--len", "length", type=int, default=8, help="window length")
@click.option("--at", type=int, default=0, help="output window index")
@click.option("--a1", type=RATIONAL, default=None, help="series upper parameter")
@click.option("--a2", type=RATIONAL, default=None, help="series upper parameter")
@click.option("--m", type=int, default=None, help="series truncation order")
@click.option("--b1", type=RATIONAL, default=None, help="series lower parameter")
@click.option("--b2", type=RATIONAL, default=None, help="series lower parameter")
@click.option("--z", type=RATIONAL, default=None, help="series argument")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def cmd_eval(subject, fmt, **opts):
    """Evaluate one operator at one parameter point."""
    value = _evaluate("eval", subject, opts)
    if isinstance(value, GridFunction):
        at = opts["at"]
        if not 0 <= at < len(value):
            _fail(f"--at {at} is outside the output window (length {len(value)})")
        value = value.values[at]
    rendered, as_float = _render_value(value)
    if fmt == "json":
        doc = {"subject": subject, "value": rendered, "float": as_float}
        click.echo(json.dumps(doc), file=sys.stdout)
    else:
        click.echo(rendered, file=sys.stdout)


def _text_line(rep: VerificationReport) -> str:
    parts = [f"[{rep.status}]", rep.identity]
    parts += [f"{k}={v}" for k, v in rep.params_rendered()]
    if rep.status == DOMAIN_EXCLUDED:
        if rep.lhs:
            parts.append(f"boundary={rep.lhs}")
        parts.append(f"excluded_by={rep.excluded_by}")
    else:
        if rep.lhs:
            parts.append(f"lhs={rep.lhs}")
        if rep.rhs:
            parts.append(f"rhs={rep.rhs}")
        if rep.is_failure and rep.abs_float_gap is not None:
            parts.append(f"gap={rep.abs_float_gap!r}")
    return " ".join(parts)


def _csv_line(rep: VerificationReport) -> str:
    params = ";".join(f"{k}={v}" for k, v in rep.params_rendered())
    gap = "" if rep.abs_float_gap is None else repr(rep.abs_float_gap)
    return ",".join(
        [rep.identity, rep.status, params, rep.lhs, rep.rhs, gap, rep.excluded_by or ""]
    )


_CSV_HEADER = "identity,status,params,lhs,rhs,abs_float_gap,excluded_by"


_FLAG_HELP = {
    "b": "hypergeometric b",
    "c": "hypergeometric c",
    "force": "evaluate outside the stated hypotheses",
}


def _param_options(command):
    """One verify flag per sweep parameter, --key; the sweep resolver parses its value."""
    for key, kind in reversed(PARAMS.items()):
        flag = "--" + key.replace("_", "-")
        command = click.option(flag, key, default=None, is_flag=kind == FLAG, help=_FLAG_HELP.get(key))(command)
    return command


@main.command("verify")
@click.argument("identity")
@_param_options
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

    counts = {status: 0 for status in _STATUS_ORDER}
    failed = False
    if fmt == "csv":
        click.echo(_CSV_HEADER, file=sys.stdout)
    try:
        for config in configs:
            for rep in run_sweep(config):
                counts[rep.status] += 1
                failed = failed or rep.is_failure
                if fmt == "json":
                    click.echo(json.dumps(rep.to_json_dict()), file=sys.stdout)
                elif fmt == "csv":
                    click.echo(_csv_line(rep), file=sys.stdout)
                else:
                    click.echo(_text_line(rep), file=sys.stdout)
    except (DeltafracError, ValueError) as exc:
        _fail(str(exc))
    total = sum(counts.values())
    summary = ", ".join(f"{counts[status]} {status}" for status in _STATUS_ORDER)
    click.echo(f"checked {total} parameter points: {summary}", file=sys.stderr)
    sys.exit(1 if failed else 0)


@main.command("table")
@click.argument("subject", type=click.Choice(_subjects_of("table")))
@click.option("--a", type=RATIONAL, default=Fraction(0), help="grid origin")
@click.option("--nu", type=RATIONAL, default=None, help="fracsum order")
@click.option("--mu", type=RATIONAL, default=None, help="mrdiff/aediff order or falling-power exponent")
@click.option("--f", "f_spec", default="const:1", help="grid function: const:Q | kpow:J | table:Q,... | fallpow:MU")
@click.option("--len", "length", type=int, default=8, help="window length")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
def cmd_table(subject, fmt, **opts):
    """Print a whole output window, one row per grid point."""
    gf = _evaluate("table", subject, opts)
    if fmt == "json":
        click.echo(json.dumps(gf.to_json_dict()), file=sys.stdout)
    else:
        click.echo("point,value", file=sys.stdout)
        for i in range(len(gf)):
            click.echo(f"{render_rational(gf.point(i))},{gf.values[i].render()}", file=sys.stdout)


if __name__ == "__main__":
    main()
