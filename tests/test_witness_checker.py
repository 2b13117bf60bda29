"""The stdlib-only witness checker (tests/witness_checker.py) on the search's
printed JSON: every witness of p = 24 passes, and mutated payloads fail."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import witness_checker
from steinhaus.cli import main

CHECKER = Path(__file__).parent / "witness_checker.py"


@pytest.fixture(scope="module")
def payload24(tmp_path_factory) -> Path:
    target = tmp_path_factory.mktemp("search") / "search24.json"
    assert main(["search", "--p", "24", "--format", "json", "--out", str(target)]) == 0
    return target


def test_search_p24_json_passes_the_checker(payload24):
    """The checker run as a script, as the README's recipe runs it."""
    result = subprocess.run([sys.executable, str(CHECKER), str(payload24)], capture_output=True, text=True)
    assert (result.returncode, result.stdout) == (0, "p=24: 654 witnesses checked, 0 failed\n")


@pytest.mark.parametrize("kind", ["pascal", "steinhaus"])
def test_search_p24_one_kind_json_passes_the_checker(kind, tmp_path, capsys):
    """The class template of each single kind: its half of the witnesses,
    each under that kind's key."""
    target = tmp_path / "search24.json"
    assert main(["search", "--p", "24", "--kind", kind, "--format", "json", "--out", str(target)]) == 0
    assert witness_checker.main([str(target)]) == 0
    assert capsys.readouterr().out == "p=24: 327 witnesses checked, 0 failed\n"


def test_search_p72_json_passes_the_checker(tmp_path, capsys):
    """Certificates past the p = 24 goldens: every witness of p = 72, each
    lifted from its class's true period."""
    target = tmp_path / "search72.json"
    assert main(["search", "--p", "72", "--format", "json", "--out", str(target)]) == 0
    assert witness_checker.main([str(target)]) == 0
    assert capsys.readouterr().out == "p=72: 1962 witnesses checked, 0 failed\n"


def test_checker_reads_stdin(tmp_path):
    target = tmp_path / "search12.json"
    assert main(["search", "--p", "12", "--format", "json", "--out", str(target)]) == 0
    result = subprocess.run(
        [sys.executable, str(CHECKER), "-"], input=target.read_text(), capture_output=True, text=True
    )
    assert (result.returncode, result.stdout) == (0, "p=12: 0 witnesses checked, 0 failed\n")


def test_every_remainder_moved_by_one_fails(payload24, tmp_path, capsys):
    """The negative control: each witness's remainder moved to r + 1 with the
    same generator.  507 of the 654 families are then unbalanced, and the
    other 147 print corner and band counts of the old remainder."""
    data = json.loads(payload24.read_text())
    for entry in data["classes"]:
        for kind in ("steinhaus", "pascal"):
            for record in entry[kind]["witnesses"]:
                record["remainder"] = (record["remainder"] + 1) % 24
            entry[kind]["remainders"] = [w["remainder"] for w in entry[kind]["witnesses"]]
    mutated = tmp_path / "mutated.json"
    mutated.write_text(json.dumps(data))
    assert witness_checker.main([str(mutated)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "p=24: 654 witnesses checked, 654 failed"
    assert sum("not one balanced family" in line for line in lines) == 507
    assert sum("printed counts" in line for line in lines) == 147


@pytest.mark.parametrize(
    "kind,field,message",
    [
        ("steinhaus", "z", "class 1 steinhaus r=0 at (1, 4): z is not periodic"),
        ("pascal", "z_left", "class 1 pascal r=0 at (0, 4): the triangle is not p-periodic"),
        ("pascal", "z_right", "class 1 pascal r=0 at (0, 4): the triangle is not p-periodic"),
    ],
)
def test_one_flipped_generator_bit_fails(payload24, kind, field, message):
    data = json.loads(payload24.read_text())
    record = data["classes"][0][kind]["witnesses"][0]
    digits = record[field]
    record[field] = digits[:5] + str(1 - int(digits[5])) + digits[6:]
    checked, failures = witness_checker.check_payload(data)
    assert checked == 654
    assert len(failures) == 1 and failures[0].startswith(message)


def test_checker_imports_only_the_standard_library():
    """The checker shares no code with the package whose output it checks."""
    tree = ast.parse(CHECKER.read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            modules.add(node.module.split(".")[0])
    assert "steinhaus" not in modules
    assert modules <= set(sys.stdlib_module_names) | {"__future__"}
