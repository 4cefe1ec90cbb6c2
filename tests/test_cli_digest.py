import argparse
import importlib.util
from pathlib import Path

import revembed.cli as cli

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "cli_digest", ROOT / "tools" / "cli_digest.py"
)
cli_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_digest)

# options that select no code path for the digest to pin: help, the time
# budget, the seed (every digest command runs the default) and where the
# output goes
EXEMPT = {"-h", "--help", "--timeout", "--seed", "-o", "--output"}


def modes(parser, path=()):
    """(path, option, choice, default) for each subcommand, option and
    choice of parser, path being the subcommand words: option, choice and
    default are None for a subcommand, and choice is None for an option
    without choices."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield path + (name,), None, None, None
                yield from modes(sub, path + (name,))
        elif action.option_strings and not EXEMPT & set(action.option_strings):
            option = action.option_strings[-1]
            for choice in action.choices or [None]:
                yield path, option, choice, action.default


def covers(command, path, option, choice, default) -> bool:
    """Whether a digest command runs a subcommand, option or choice; a
    command that leaves an option out runs its default choice."""
    if tuple(command[: len(path)]) != path:
        return False
    if option is None:
        return True
    if option not in command:
        return choice is not None and choice == default
    return choice is None or command[command.index(option) + 1] == choice


def test_the_digest_reaches_every_cli_mode():
    found = list(modes(cli._build_parser()))
    commands = cli_digest.commands()
    missing = [
        mode for mode in found if not any(covers(c, *mode) for c in commands)
    ]
    assert missing == []
    assert {option for _, option, _, _ in found} - {None} == {
        "--method", "--format", "--compact", "--exact", "--bennett",
        "--with-offset", "--verify", "--embed", "--ordering-study", "--samples",
    }
