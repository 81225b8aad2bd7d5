"""Every `listio-pfs` command in README's `sh` blocks parses.

A command is a line that starts with `listio-pfs`, joined with its `\\`
continuations. A trailing `&` and a `>` redirection are shell, not
arguments, so they are dropped before the parser sees the rest.
"""

import itertools
import re
import shlex
from pathlib import Path

import pytest

from listio_pfs import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands(text: str) -> list[str]:
    """The `listio-pfs` commands in the text's `sh` blocks, one per line."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for line in re.sub(r"\s*\\\n\s*", " ", block).splitlines():
            line = line.strip()
            if line.startswith("listio-pfs "):
                commands.append(line.removesuffix("&").strip())
    return commands


def cli_args(command: str) -> list[str]:
    """The command's arguments after `listio-pfs`, up to any redirection."""
    words = shlex.split(command)[1:]
    return list(itertools.takewhile(lambda w: not w.startswith(">"), words))


def test_the_collector_joins_continuations_and_drops_shell():
    text = ("```sh\n# a comment\nlistio-pfs bench --workload flash \\\n"
            "    --reps 1 > out.csv\nlistio-pfs serve --role manager &\n```\n"
            "```\nlistio-pfs not-sh\n```\n")
    assert [cli_args(c) for c in readme_commands(text)] == [
        ["bench", "--workload", "flash", "--reps", "1"],
        ["serve", "--role", "manager"],
    ]


COMMANDS = readme_commands(README.read_text())


def test_readme_shows_every_subcommand():
    assert {cli_args(c)[0] for c in COMMANDS} == {"serve", "bench", "verify-counts"}


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_command_parses(command):
    try:
        cli._build_parser().parse_args(cli_args(command))
    except SystemExit as exc:
        pytest.fail(f"{command!r} does not parse (exit {exc.code})")
