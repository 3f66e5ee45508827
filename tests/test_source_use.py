"""No production function exists only for tests.

Every module-level function and class in ``src/ctxda``, and every method
that is not a dunder, must be named somewhere in ``src/ctxda`` itself: as a
``Name``, as an ``Attribute`` or in an import. Code that only the tests call
belongs under ``tests/``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ctxda"


def definitions(tree: ast.Module):
    """(qualified name, bare name) of every module-level def and class and of
    every non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.name


def references(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def unreferenced() -> list[str]:
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    used = set().union(*(references(tree) for tree in trees.values()))
    return [f"{module}:{qualified}" for module, tree in trees.items()
            for qualified, bare in definitions(tree) if bare not in used]


def test_every_definition_in_src_is_used_in_src():
    assert unreferenced() == []
