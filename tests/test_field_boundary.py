"""The field layer's boundary: gf.py defines GF(q), its tables and its one
coefficient conversion, and linalg.py alone owns the lane packing its
elimination runs on.

Other modules use a field through its public attributes and methods only;
the Cayley tables behind GF.add, GF.mul and the rest stay private to gf.py.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rmbetti"


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _gf_class():
    return next(node for node in _tree(SRC / "gf.py").body
                if isinstance(node, ast.ClassDef) and node.name == "GF")


def _self_attrs_assigned(node):
    """Names of the self.<attr> targets assigned anywhere below node."""
    for child in ast.walk(node):
        if isinstance(child, ast.Assign):
            targets = child.targets
        elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
            targets = [child.target]
        else:
            continue
        for target in targets:
            for t in ast.walk(target):
                if (isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                        and t.value.id == "self"):
                    yield t.attr


def _identifiers(tree):
    """(line, identifier) for every name, attribute, function and argument."""
    for node in ast.walk(tree):
        for field in ("id", "attr", "name", "arg"):
            value = getattr(node, field, None)
            if isinstance(value, str):
                yield getattr(node, "lineno", 0), value


def _is_lane_name(identifier):
    return bool({"lane", "lanes"} & set(identifier.lower().split("_")))


def test_no_module_but_gf_reads_gf_private_attributes():
    init = next(node for node in _gf_class().body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    private = {attr for attr in _self_attrs_assigned(init) if attr.startswith("_")}
    assert {"_add", "_mul", "_inv"} <= private          # the walk sees the tables
    reads = [(path.name, node.lineno, node.attr) for path in sorted(SRC.glob("*.py"))
             if path.name != "gf.py" for node in ast.walk(_tree(path))
             if isinstance(node, ast.Attribute) and node.attr in private]
    assert reads == []


def test_gf_assigns_no_lane_attribute():
    assigned = set(_self_attrs_assigned(_gf_class()))
    assert "vectors" in assigned
    assert sorted(attr for attr in assigned if attr.startswith("lane")) == []


def test_only_linalg_builds_lane_words():
    assert any(_is_lane_name(name) for _, name in _identifiers(_tree(SRC / "linalg.py")))
    outside = [(path.name, line, name) for path in sorted(SRC.glob("*.py"))
               if path.name != "linalg.py"
               for line, name in _identifiers(_tree(path)) if _is_lane_name(name)]
    assert outside == []
