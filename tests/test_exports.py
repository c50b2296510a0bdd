"""Each name the package exports, and each public method and property of an
exported class, is read by code outside tests/, unless KEEP gives the reason it
stays public."""

import ast
import functools
import inspect
import io
import tokenize
from pathlib import Path
from types import FunctionType

import nestedtbcc

ROOT = Path(__file__).resolve().parents[1]
KEEP = {
    "enroll_cs": "chosen-secret enrollment, the one-time-pad mode the README documents",
    "reconstruct_cs": "chosen-secret reconstruction, the one-time-pad mode the README documents",
    "quantizer_converse_feasible": "the finite-length quantizer converse bound",
    "gf2_vec_mat": "read by the oracle tests/conftest.py::oracle_detours",
    "BitMatrix.is_zero": "read by the oracle tests/free_distance_reference.py",
}
MEMBER_TYPES = (FunctionType, staticmethod, classmethod, property, functools.cached_property)


def _exports() -> list[str]:
    tree = ast.parse((ROOT / "src/nestedtbcc/__init__.py").read_text())
    return [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for a in node.names]


def _names_read(path: Path) -> set[str]:
    """Identifiers in the code of a file: no comments or strings, and no
    name right after def or class."""
    toks = [t for t in tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
            if t.type == tokenize.NAME]
    return {t.string for prev, t in zip([None, *toks], toks)
            if prev is None or prev.string not in ("def", "class")}


def _read_outside_tests() -> set[str]:
    files = [p for p in (ROOT / "src").rglob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "perfbench").rglob("*.py"), *(ROOT / "scripts").rglob("*.py")]
    return set().union(*map(_names_read, files))


def _public_members() -> list[str]:
    """Class.name for each public method and property of an exported class."""
    classes = [(name, getattr(nestedtbcc, name)) for name in _exports()]
    return [f"{name}.{attr}" for name, cls in classes if inspect.isclass(cls)
            for attr, value in vars(cls).items()
            if not attr.startswith("_") and isinstance(value, MEMBER_TYPES)]


def test_every_export_is_read_outside_tests():
    read = _read_outside_tests()
    assert sorted(set(_exports()) - read - set(KEEP)) == []
    assert {k for k in KEEP if "." not in k} <= set(_exports()) - read  # no stale entry


def test_every_public_member_of_an_exported_class_is_read_outside_tests():
    read = _read_outside_tests()
    unread = {m for m in _public_members() if m.split(".")[1] not in read}
    assert sorted(unread - set(KEEP)) == []
    assert {k for k in KEEP if "." in k} <= unread  # no stale entry
