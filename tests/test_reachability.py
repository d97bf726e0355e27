"""Every definition in src is reached from the command line, so no
test-only or demo-only API creeps back into the package.

A top-level function or class, or a method whose name is not a dunder,
defined in src/rmbetti is reached when a reached body references its name,
starting from cli.main and the handlers in cli._COMMANDS: a bare or
imported name reaches only top-level definitions, and an attribute reaches
those and methods, so the builtin pow reaches no GF.pow.  A reached class
brings its own statements and dunder methods along.  Demos, tests and prose
do not count: a route only tests use belongs in tests/oracles.py.

LIBRARY_ONLY lists the definitions no command reaches yet.  It can only
shrink: the test fails when one of them becomes reached or is deleted.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rmbetti"

LIBRARY_ONLY = {"srres.circuits", "srres.herzog_kuhl_predicted",
                "srres.ghw_from_betti", "srres.reduced_homology_dims",
                # perfbench/tracer.py patches it by name to count table lookups
                "gf.GF.pow"}


def _definitions(path, tree):
    """(qualified name, (name, is a method), nodes walked when it is
    reached) for every top-level function and class and every method of a
    top-level class whose name is not a dunder.  A class's nodes are its
    body apart from those methods."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{path.stem}.{node.name}", (node.name, False), [node]
        elif isinstance(node, ast.ClassDef):
            methods = [item for item in node.body if isinstance(item, ast.FunctionDef)
                       and not (item.name.startswith("__") and item.name.endswith("__"))]
            yield (f"{path.stem}.{node.name}", (node.name, False),
                   node.bases + node.decorator_list
                   + [item for item in node.body if item not in methods])
            for item in methods:
                yield f"{path.stem}.{node.name}.{item.name}", (item.name, True), [item]


def _references(nodes):
    """(name, is a method) keys of the definitions each reference may
    reach: a bare or imported name only top-level ones, an attribute both."""
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                yield node.id, False
            elif isinstance(node, ast.Attribute):
                yield from ((node.attr, False), (node.attr, True))
            elif isinstance(node, ast.alias):
                yield node.name.rpartition(".")[2], False


def _unreached():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    by_name = {}
    for path, tree in trees.items():
        for qualified, key, nodes in _definitions(path, tree):
            by_name.setdefault(key, []).append((qualified, nodes))
    commands = next(node.value for node in trees[SRC / "cli.py"].body
                    if isinstance(node, ast.Assign)
                    and getattr(node.targets[0], "id", None) == "_COMMANDS")
    assert "cli.main" in {qualified for qualified, _ in by_name["main", False]}
    reached, pending = set(), [("main", False), *_references([commands])]
    while pending:
        for qualified, nodes in by_name.get(pending.pop(), ()):
            if qualified not in reached:
                reached.add(qualified)
                pending.extend(_references(nodes))
    return {qualified for definitions in by_name.values()
            for qualified, _ in definitions} - reached


def test_every_src_definition_is_reached_from_the_cli():
    # an extra name is unreached code; a missing one is a stale LIBRARY_ONLY entry
    assert sorted(_unreached()) == sorted(LIBRARY_ONLY)
