"""Every option a subcommand accepts is read by its handler.

The reads are found in the handler's source: `args.<dest>`, `getattr(args,
"<dest>")`, and the reads of the CLI's shared helpers it calls (`_tables`,
`_codec_config`, `_cohort`, `_manifest_path`), followed into their sources.
`_tables(mani, args, "--x-dir")` reads `--x-dir`; without a flag it reads the
`--persons/--visits/--events` triple.
"""
import argparse
import ast
import inspect
import textwrap

import pytest

from chronoseq import cli

_TABLE_DESTS = {"persons", "visits", "events"}


def _subparsers():
    action = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _dest(flag):
    return flag.removeprefix("--").replace("-", "_")


def _string_values(node, scope):
    """The string constants node can stand for: a constant, or a loop variable over a tuple of them."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.Name):
        for loop in ast.walk(scope):
            if (isinstance(loop, (ast.For, ast.comprehension)) and isinstance(loop.target, ast.Name)
                    and loop.target.id == node.id and isinstance(loop.iter, (ast.Tuple, ast.List))):
                return {e.value for e in loop.iter.elts if isinstance(e, ast.Constant)}
    raise AssertionError(f"cannot resolve the flag passed to _tables: {ast.dump(node)}")


def _reads(fn, seen=()):
    """Attributes of args that fn reads, directly or through the helpers it passes args to."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args":
            read.add(node.attr)
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        name = node.func.id
        if name == "getattr" and isinstance(node.args[0], ast.Name) and node.args[0].id == "args":
            if isinstance(node.args[1], ast.Constant):
                read.add(node.args[1].value)
        elif name == "_tables":
            read |= {_dest(f) for f in _string_values(node.args[2], tree)} if len(node.args) > 2 else _TABLE_DESTS
        elif name not in seen and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args):
            read |= _reads(getattr(cli, name), (*seen, name))
    return read


@pytest.mark.parametrize("command", sorted(cli._HANDLERS))
def test_every_accepted_option_is_read_by_its_handler(command):
    parser = _subparsers()[command]
    accepted = {a.dest for a in parser._actions if not isinstance(a, argparse._HelpAction)}
    ignored = accepted - _reads(cli._HANDLERS[command])
    assert not ignored, f"{command} accepts options its handler never reads: {sorted(ignored)}"
