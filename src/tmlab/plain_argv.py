"""A question argv read without running argparse.

:func:`plain_question` returns the namespace that ``parser.parse_args(argv)``
returns, for the ``run``, ``crossings`` and ``mstar`` argvs it can be sure
of, and None for every other argv, so that argparse still answers those and
still writes every usage error.  The option names, destinations, types and
defaults are read from the actions the parser registers, so the parser stays
the only definition of the grammar.

:func:`tmlab.cli.main` imports this module on its first call, so importing
the CLI compiles and runs none of it.
"""

from __future__ import annotations

import argparse
import functools
from typing import Optional

QUESTIONS = ("run", "crossings", "mstar")


@functools.cache
def _grammar(parser: argparse.ArgumentParser) -> dict:
    """For each question command: the defaults its parse starts from, its
    actions keyed by option string, and its one positional action."""
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    grammar = {}
    for name in QUESTIONS:
        sub = commands.choices[name]
        actions = [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]
        defaults = {commands.dest: name, **{a.dest: a.default for a in actions}, **sub._defaults}
        (positional,) = [a for a in actions if not a.option_strings]
        grammar[name] = (defaults, {s: a for a in actions for s in a.option_strings}, positional)
    return grammar


def plain_question(parser: argparse.ArgumentParser,
                   argv: list[str]) -> Optional[argparse.Namespace]:
    """The namespace ``parser.parse_args(argv)`` gives, or None.

    Reads only a question argv it can be sure of: exact option names, each
    at most once, one positional machine path and option values that do not
    start with ``-``, converted by the parser's own types.  Anything else,
    including every argv argparse would reject, returns None.
    """
    if not argv or argv[0] not in QUESTIONS:
        return None
    defaults, options, positional = _grammar(parser)[argv[0]]
    values = dict(defaults)
    given = set()
    path = None
    tokens = iter(argv[1:])
    for token in tokens:
        action = options.get(token)
        if action is None:
            if path is not None or token.startswith("-"):
                return None
            path = token
            continue
        if action.dest in given:
            return None
        given.add(action.dest)
        if action.nargs == 0:
            values[action.dest] = action.const
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (ValueError, argparse.ArgumentTypeError):
                return None
        values[action.dest] = value
    if path is None or any(a.required and a.dest not in given for a in options.values()):
        return None
    values[positional.dest] = path
    return argparse.Namespace(**values)
