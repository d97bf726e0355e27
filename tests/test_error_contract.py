"""Every exception src raises on purpose maps to one exit code of the
command line: errors.py defines one class per code from 2 to 5, and every
raise statement in src/rmbetti names one of them.

ALLOWED lists the raises outside that contract, by the function that holds
them and the class they name.  Like LIBRARY_ONLY in test_reachability.py it
can only shrink: the test fails when a listed raise goes or changes, as well
as when a new one appears.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rmbetti"

CONTRACT = {"ParameterError", "TooLargeError", "CertificateError", "CrossCheckError"}

ALLOWED = {
    ("gf.GF.inv", "ZeroDivisionError"),                # the field's own division error
    ("cli._json_text.stash", "TypeError"),             # json.dumps's default hook contract
    ("gf.lowest_irreducible", "AssertionError"),       # unreachable
    ("codes._ghw_by_walk", "AssertionError"),          # unreachable
}


def _raises(node, where):
    """(qualified enclosing function, raised class name) for every raise
    below node; a bare re-raise names None."""
    for child in ast.iter_child_nodes(node):
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{where}.{child.name}"
        if isinstance(child, ast.Raise):
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            name = None if exc is None else getattr(exc, "id", getattr(exc, "attr", None))
            yield where, name
        yield from _raises(child, inner)


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_errors_defines_one_class_per_exit_code():
    tree = _tree(SRC / "errors.py")
    classes = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    assert sorted(classes) == sorted(CONTRACT)


def test_every_raise_names_a_contract_class():
    outside = {(where, name) for path in sorted(SRC.glob("*.py"))
               for where, name in _raises(_tree(path), path.stem)
               if name not in CONTRACT}
    # an extra pair is a new raise outside the contract; a missing one is stale
    assert sorted(outside, key=str) == sorted(ALLOWED, key=str)
