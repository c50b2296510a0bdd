"""Each file layout the package writes or reads has one implementation: every
JSON file goes through encoder.write_json, every CSV file through
fixtures.read_csv.  The batch path has one way in and one way out: the bits of
every batch entry point pass encoder._bit_rows, and wava._forward does the
decoder's only traceback."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ONE_SITE = {("json", "dump"): ["encoder.write_json"],
            ("csv", "DictReader"): ["fixtures.read_csv"]}
ENTRY_POINTS = ["encoder.encode_many", "keyagree.enroll_many", "keyagree.reconstruct_many",
                "wava.wava_decode_many"]


def _tops():
    """(file stem, top-level statement) over the package."""
    for path in sorted((ROOT / "src/nestedtbcc").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            yield path.stem, top


def _call_sites(module: str | None, attr: str) -> list[str]:
    """file.name of the top-level function or class (or file.<module>) around each
    call of module.attr in the package; with module None, each call of attr on any
    object or by its bare name."""
    def hit(func) -> bool:
        if isinstance(func, ast.Attribute):
            return func.attr == attr and (module is None or isinstance(func.value, ast.Name)
                                          and func.value.id == module)
        return module is None and isinstance(func, ast.Name) and func.id == attr

    found = []
    for stem, top in _tops():
        scope = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        found += [f"{stem}.{scope}" for node in ast.walk(top)
                  if isinstance(node, ast.Call) and hit(node.func)]
    return found


@pytest.mark.parametrize("call", sorted(ONE_SITE), ids=".".join)
def test_one_call_site(call):
    assert _call_sites(*call) == ONE_SITE[call]


def test_one_bit_row_check():
    defined = [f"{stem}.{top.name}" for stem, top in _tops() if isinstance(top, ast.FunctionDef)]
    assert [f for f in defined if f.split(".")[1] in ("_bit_rows", "_as_bits", "_rows")] == [
        "encoder._bit_rows"]
    assert sorted(set(_call_sites(None, "_bit_rows"))) == ENTRY_POINTS


def test_one_traceback_call_site():
    assert _call_sites(None, "traceback") == ["wava._forward"]
