"""Each file layout the package writes or reads has one implementation: every
JSON file goes through encoder.write_json, every CSV file through
fixtures.read_csv."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ONE_SITE = {("json", "dump"): ["encoder.write_json"],
            ("csv", "DictReader"): ["fixtures.read_csv"]}


def _call_sites(module: str, attr: str) -> list[str]:
    """file.name of the top-level function or class (or file.<module>) around each
    call of module.attr in the package."""
    found = []
    for path in sorted((ROOT / "src/nestedtbcc").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            scope = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            found += [f"{path.stem}.{scope}" for node in ast.walk(top)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr == attr and isinstance(node.func.value, ast.Name)
                      and node.func.value.id == module]
    return found


@pytest.mark.parametrize("call", sorted(ONE_SITE), ids=".".join)
def test_one_call_site(call):
    assert _call_sites(*call) == ONE_SITE[call]
