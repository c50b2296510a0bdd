"""The benchmark's tracer patches package functions at their callers' import
names; installing and removing it checks that every one of them exists."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_installs_and_uninstalls(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    before = [getattr(module, attr) for module, attr, _, _ in tracing._TARGETS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = [getattr(module, attr) for module, attr, _, _ in tracing._TARGETS]
        assert all(p is not b for p, b in zip(patched, before))
    finally:
        tracer.uninstall()
    assert [getattr(module, attr) for module, attr, _, _ in tracing._TARGETS] == before
    assert tracer.spans == []
