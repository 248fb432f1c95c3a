"""README's command-line examples and option table stay in step with the
parser: every ``xlog ...`` line of its example block parses, and every option
its range table names is declared by some subcommand."""

import pathlib
import re
import shlex

from xlog import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def section(title):
    """The README text under ``## title``, up to the next such heading."""
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def example_lines():
    """Each ``xlog`` line of the section's fenced blocks, continuation lines
    joined and a trailing comment dropped."""
    blocks = section("Command line").split("```")[1::2]
    lines = [ln for block in blocks for ln in block.replace("\\\n", " ").splitlines()]
    return [shlex.split(ln, comments=True) for ln in lines if ln.startswith("xlog ")]


def test_every_readme_example_parses():
    examples = example_lines()
    assert {argv[1] for argv in examples} == set(cli._parser().options()["command"].choices)
    for argv in examples:
        args = cli._parser().parse_args(argv[1:])
        assert args.command == argv[1]


def test_every_option_of_the_range_table_is_declared():
    table = section("Command line").split("| Option | Rule |", 1)[1].split("\n\n", 1)[0]
    named = {opt for row in table.splitlines()[2:]
             for opt in re.findall(r"`(--[a-z-]+)`", row.split("|")[1])}
    declared = {opt for sub in cli._parser().options()["command"].choices.values()
                for opt in sub._option_string_actions}
    assert len(named) >= 15
    assert named <= declared, sorted(named - declared)
