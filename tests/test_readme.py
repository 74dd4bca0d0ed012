"""README's command-line examples run as printed."""
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


def test_config_example_runs():
    (config,) = [body for lang, body in _BLOCKS if lang == "json" and body.startswith('{"suite"')]
    (argv,) = [argv for argv, _ in _COMMANDS if "--config" in argv]
    runner = CliRunner()
    with runner.isolated_filesystem():
        Path(argv[argv.index("--config") + 1]).write_text(config, encoding="utf-8")
        result = runner.invoke(main, argv)
    assert result.exit_code == 0, result.output
    assert "0 mismatch" in result.stderr
