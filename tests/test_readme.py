"""README's Python quick start and command-line examples run as printed."""
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from deltafrac.cli import main

_README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
_BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", _README, flags=re.M | re.S)


def _commands() -> list[tuple[list[str], str]]:
    """Each `$ deltafrac ...` line of a code block and the lines printed under it."""
    found = []
    for _, body in _BLOCKS:
        printed = None
        for line in body.splitlines():
            if line.startswith("$ deltafrac "):
                printed = []
                found.append((shlex.split(line)[2:], printed))
            elif printed is not None:
                printed.append(line + "\n")
    return [(argv, "".join(lines)) for argv, lines in found]


_COMMANDS = _commands()
# an output elided with "..." is described, not printed
_LITERAL = [(argv, out) for argv, out in _COMMANDS if out and "..." not in out]


def test_every_literal_example_is_found():
    assert [" ".join(argv[:2]) for argv, _ in _LITERAL] == [
        "eval falling", "eval nabla", "eval fracsum", "table fracsum", "verify saalschutz",
    ]


@pytest.mark.parametrize("argv, expected", _LITERAL, ids=[" ".join(argv[:2]) for argv, _ in _LITERAL])
def test_example_prints_as_shown(argv, expected):
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 0, result.output
    assert result.stdout == expected


def _quick_start() -> tuple[str, list[str]]:
    """The Python quick start, and the output its comments give for each print, in order.

    A print's output is the comment on its own line, or else the comment line right after it.
    """
    (code,) = [body for lang, body in _BLOCKS if lang == "python"]
    expected, pending = [], False
    for line in code.splitlines():
        if line.startswith("print("):
            _, inline, comment = line.partition("#")
            if inline:
                expected.append(comment.strip())
            pending = not inline
        elif pending and line.startswith("# "):
            expected.append(line[2:])
            pending = False
        else:
            pending = False
    return code, expected


def test_quick_start_prints_its_comments():
    code, expected = _quick_start()
    assert len(expected) == code.count("print(") == 5
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README quick start", "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_config_example_runs():
    (config,) = [body for lang, body in _BLOCKS if lang == "json" and body.startswith('{"suite"')]
    (argv,) = [argv for argv, _ in _COMMANDS if "--config" in argv]
    runner = CliRunner()
    with runner.isolated_filesystem():
        Path(argv[argv.index("--config") + 1]).write_text(config, encoding="utf-8")
        result = runner.invoke(main, argv)
    assert result.exit_code == 0, result.output
    assert "0 mismatch" in result.stderr
