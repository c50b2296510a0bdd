"""The benchmark's tracer patches package functions at their callers' import
names; installing and removing it checks that every one of them exists."""

import importlib.util
import sys
from pathlib import Path

from nestedtbcc.simulate import StopRule

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_installs_and_uninstalls(monkeypatch):
    tracing = _load_tracing(monkeypatch)
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


def test_traced_design_splits_into_four_stages(monkeypatch):
    # the benchmark's design stages are cut at the spans of the functions
    # design_nested calls through its module; a call made another way would
    # leave a stage empty or miscount the free-distance calls
    tracing = _load_tracing(monkeypatch)
    w_max = 8
    tracer = tracing.Tracer()
    tracer.install()
    try:
        op = tracer.open(tracing.OP)
        try:
            _, report = tracing.design.design_nested(
                p_A=0.0, target_pb=1e-2, K_fec=16, n=3, m=4, seed=42, w_max=w_max,
                stop=StopRule(max_trials=100_000), distortion_trials=1024,
            )
        finally:
            tracer.close(op)
    finally:
        tracer.uninstall()
    metrics = tracing.per_layer_metrics(tracer.spans, 0.0)
    for stage in ("search_fec", "calibrate", "extend", "freeze"):
        assert metrics[f"design.stage.{stage}_s"] > 0, stage
    assert metrics["trellis.free_distance.calls"] == w_max * len(report.extension_log)
