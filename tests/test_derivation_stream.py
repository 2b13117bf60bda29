"""orbits.orbit_rows is the one loop that derives a ResidueTuple, and its
bit-level twin orbits._bit_rows the one loop that derives packed bits: every
other reader of iterated derivatives takes them from those streams (with
islice).  A module that calls derive_tuple or _derive_bits itself fails here;
the one exception is _generator_images, which takes a single step."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "steinhaus"


def _derive_callers(source: str, name: str = "derive_tuple") -> list[str]:
    """The innermost function around each call of ``name``, called by name
    or as a module attribute ("<module>" outside any function)."""
    tree = ast.parse(source)
    owner = {}
    for function in ast.walk(tree):  # breadth first: inner functions overwrite outer ones
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(function):
                owner[node] = function.name
    return [
        owner.get(node, "<module>")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
    ]


def test_the_call_finder_sees_both_spellings():
    source = "def f(x):\n    def g(y):\n        return orbits.derive_tuple(y)\n    return derive_tuple(x)\n"
    assert sorted(_derive_callers(source)) == ["f", "g"]
    assert _derive_callers("y = derive_tuple(x)\n") == ["<module>"]


def _modules() -> dict[str, str]:
    modules = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert "orbits.py" in modules
    return modules


def test_only_orbit_rows_derives_a_tuple():
    modules = _modules()
    outside = {name: _derive_callers(source) for name, source in modules.items() if name != "orbits.py"}
    assert {name: callers for name, callers in outside.items() if callers} == {}
    assert _derive_callers(modules["orbits.py"]) == ["orbit_rows"]


def test_only_the_bit_row_stream_derives_bits():
    callers = {name: _derive_callers(source, "_derive_bits") for name, source in _modules().items()}
    assert {name: found for name, found in callers.items() if found} == {
        "orbits.py": ["_bit_rows"],
        "symmetry.py": ["_generator_images"],  # its one step, the image under t(-1,0)
    }
