"""Every top-level definition of the package has a caller in the package.

A function or class that only the tests call is a second path to what the
package already does (ROADMAP item 6): the tests would keep it alive while
nothing the user runs depends on it.  So each top-level function and class
of src/steinhaus/*.py must be named (as a name, an attribute or an import)
in some module other than __init__, outside its own definition, or be
imported by __init__, the public API."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "steinhaus"


def _imported(tree: ast.AST) -> set[str]:
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}


def _named(tree: ast.AST) -> set[str]:
    """Names, attributes and imported names in tree."""
    names = _imported(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _uses_outside(tree: ast.AST, definition: ast.AST) -> set[str]:
    """_named over tree with the subtree of definition left out."""
    names = set()
    for node in ast.iter_child_nodes(tree):
        if node is not definition:
            names |= _named(node)
    return names


def _orphans(package: Path) -> list[str]:
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    exported = _imported(trees.pop("__init__.py"))
    named = {module: _named(tree) for module, tree in trees.items()}
    orphans = []
    for module, tree in trees.items():
        known = exported.union(*(names for other, names in named.items() if other != module))
        for definition in tree.body:
            if not isinstance(definition, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if definition.name not in known | _uses_outside(tree, definition):
                orphans.append(f"{module}:{definition.name}")
    return orphans


def test_every_definition_has_a_caller_in_the_package():
    assert _orphans(PACKAGE) == []


def test_the_guard_sees_a_definition_only_tests_call(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import public\n")
    (tmp_path / "a.py").write_text(
        "def public():\n    return _helper()\n\n"
        "def _helper():\n    return 1\n\n"
        "def orphan():\n    return orphan\n\n"
        "class Used:\n    pass\n\n"
        "class Unused:\n    pass\n"
    )
    (tmp_path / "b.py").write_text("from .a import Used\n")
    assert _orphans(tmp_path) == ["a.py:orphan", "a.py:Unused"]
