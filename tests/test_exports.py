"""Each name the package exports is read by code outside tests/, unless KEEP
gives the reason it stays public."""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KEEP = {
    "enroll_cs": "chosen-secret enrollment, the one-time-pad mode the README documents",
    "reconstruct_cs": "chosen-secret reconstruction, the one-time-pad mode the README documents",
    "quantizer_converse_feasible": "the finite-length quantizer converse bound",
    "gf2_vec_mat": "read by the oracle tests/conftest.py::oracle_detours",
}


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


def test_every_export_is_read_outside_tests():
    files = [p for p in (ROOT / "src").rglob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "perfbench").rglob("*.py"), *(ROOT / "scripts").rglob("*.py")]
    read = set().union(*map(_names_read, files))
    assert sorted(set(_exports()) - read - set(KEEP)) == []
    assert set(KEEP) <= set(_exports()) - read  # no stale entry
