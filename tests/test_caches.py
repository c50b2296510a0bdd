"""Each value-keyed cache in the package states why it exists.  A table derived
from one object is a cached property of that object instead, and dies with it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KEEP = {
    "trellis.build_trellis": "it saves two builds per key-agreement call (enroll and "
                             "reconstruct, one word, criterion-9 pair: 2.00 builds per call "
                             "with it cleared, 0 warm); equal codes built separately share "
                             "it, and perfbench/tracing.py wraps it by name",
    "wava._tables": "the decoder's packed tables; two entries hold a key-agreement pair's two "
                    "codes, and 64 raised a design run's peak RSS by about 0.7 MB",
}


def _value_keyed_caches() -> set[str]:
    """module.function for each function decorated with functools.lru_cache or cache."""
    found = set()
    for path in sorted((ROOT / "src/nestedtbcc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if name in ("lru_cache", "cache"):
                    found.add(f"{path.stem}.{node.name}")
    return found


def test_every_value_keyed_cache_states_its_reason():
    assert _value_keyed_caches() == set(KEEP)
