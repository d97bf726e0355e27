"""Every definition in src is reached by the product, so no test-only API
creeps back into the package.

A top-level function or class, or a method whose name is not a dunder,
defined in src/rmbetti must be referenced, as a name, an attribute or an
imported name, by a src module other than __init__ (its own module counts)
or by a demo.  Tests and prose do not count: a reference path that only
tests use belongs in tests/oracles.py, and naming a definition in README.md
does not keep it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rmbetti"


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _definitions(tree):
    """(qualified name, name) of every top-level function and class and of
    every method of a top-level class whose name is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.name


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def test_every_src_definition_is_reached_outside_the_tests():
    modules = {path: _parse(path) for path in sorted(SRC.glob("*.py"))}
    demos = [_parse(path) for path in sorted((ROOT / "demos").glob("*.py"))]
    assert len(modules) > 5 and demos
    reached = set()
    for path, tree in modules.items():
        if path.name != "__init__.py":
            reached.update(_references(tree))
    for tree in demos:
        reached.update(_references(tree))
    unreached = [f"{path.stem}.{qualified}" for path, tree in modules.items()
                 for qualified, name in _definitions(tree) if name not in reached]
    assert unreached == []
