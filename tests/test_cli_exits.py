"""One exit-code policy in the CLI: subcommands raise, ``main`` maps.

``main`` alone turns an exception into a message on stderr and an exit
code. So in ``cli.py`` nothing outside ``main`` prints to ``sys.stderr``,
and every ``cmd_*`` function returns only ``EXIT_OK``.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "ctxda" / "cli.py"


def functions(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def own_nodes(fn: ast.FunctionDef):
    """``fn`` and the nodes of its body, less those of the functions and
    lambdas defined inside it."""
    stack = [fn]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(child for child in ast.iter_child_nodes(node)
                     if not isinstance(child, (ast.FunctionDef, ast.Lambda)))


def is_stderr(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "stderr"
            and isinstance(node.value, ast.Name) and node.value.id == "sys")


def writes_stderr(call: ast.Call) -> bool:
    """``print(..., file=sys.stderr)`` or ``sys.stderr.write(...)``."""
    if isinstance(call.func, ast.Name) and call.func.id == "print":
        return any(kw.arg == "file" and is_stderr(kw.value) for kw in call.keywords)
    return (isinstance(call.func, ast.Attribute) and call.func.attr == "write"
            and is_stderr(call.func.value))


def test_only_main_writes_to_stderr():
    tree = ast.parse(CLI.read_text(), str(CLI))
    in_main = set(map(id, ast.walk(functions(tree)["main"])))
    offenders = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and writes_stderr(node)
                 and id(node) not in in_main]
    assert offenders == []


def test_every_subcommand_returns_only_exit_ok():
    tree = ast.parse(CLI.read_text(), str(CLI))
    commands = {name: fn for name, fn in functions(tree).items() if name.startswith("cmd_")}
    assert len(commands) == 5
    returns = [(name, ast.unparse(node.value) if node.value else "None")
               for name, fn in commands.items() for node in own_nodes(fn)
               if isinstance(node, ast.Return)]
    assert {name for name, _ in returns} == set(commands)
    assert [(name, value) for name, value in returns if value != "EXIT_OK"] == []
