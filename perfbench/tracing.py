"""Spans around the package's public functions, recorded from outside.

Each wrapper is installed at the name its caller looks up (``design``
calls ``calibrate_pc`` through ``design.calibrate_pc``, ``simulate`` calls
``wava_decode_many`` through ``simulate.wava_decode_many``, and so on), so the
package runs unmodified and the spans nest the way the calls do.  A span is
(name, start, end, parent); a layer's self time is its span time minus the
time its child spans cover.  Spans stay in memory and are written out once,
when the benchmark ends.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from nestedtbcc import design, encoder, keyagree, simulate, trellis, wava
from nestedtbcc.bounds import complexity_estimates

V_MAX = 4  # every decoder call in the benchmark uses the default WavaConfig


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        if self._stack.pop() != idx:
            raise AssertionError("span closed out of order")

    def current_name(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    def wrap(self, name: str, fn: Callable, stats: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            if self.current_name() == name:
                # enroll -> enroll_many and the like: one logical call, one span
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if stats is not None:
                stats(self.spans[idx].counts, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        for module, attr, name, stats in _TARGETS:
            orig = getattr(module, attr)
            self._patched.append((module, attr, orig))
            setattr(module, attr, self.wrap(name, orig, stats))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [[s.name, s.start, s.end, s.parent, s.counts] for s in self.spans]
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "counts"],
                                    "spans": rows}) + "\n")


# -- per-call counters, computed after the span has closed -------------------

def _arg(args, kwargs, pos: int, key: str, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _wava_stats(c: dict, args, kwargs, res) -> None:
    trel = args[0]
    cfg = _arg(args, kwargs, 2, "cfg")
    v = cfg.max_iterations if cfg is not None else V_MAX
    rows = int(res.iterations.shape[0])
    c["rows"] = rows
    c["iter_sum"] = int(res.iterations.sum())
    hist = np.bincount(res.iterations, minlength=v + 1)
    for i in range(1, v + 1):
        c[f"iter_hist.{i}"] = int(hist[i])
    c["nonconverged"] = int((~res.converged).sum())
    kappa = complexity_estimates(trel.N, trel.n, trel.k, trel.S.bit_length() - 1, v).kappa_min
    c["kappa"] = rows * kappa


def _rows_stats(c: dict, args, kwargs, res) -> None:
    c["rows"] = int(np.asarray(args[1]).shape[0])


def _trials_stats(c: dict, args, kwargs, res) -> None:
    c["trials"] = int(res.trials)


def _calibrate_stats(c: dict, args, kwargs, res) -> None:
    # same trial cap calibrate_pc derives for each probe
    target_pb = _arg(args, kwargs, 1, "target_pb")
    stop = _arg(args, kwargs, 4, "stop", simulate.StopRule())
    cap = min(stop.max_trials, max(int(math.ceil(30.0 / target_pb)), 100))
    log = res[1]
    c["probes"] = len(log)
    c["probes_at_cap"] = sum(1 for e in log if e["trials"] == cap)
    c["trials"] = sum(int(e["trials"]) for e in log)


def _search_fec_stats(c: dict, args, kwargs, res) -> None:
    c["candidates"] = len(res.candidate_log)
    c["skipped"] = int(res.skipped)


_TARGETS = [
    (design, "design_nested", "design.design_nested", None),
    (design, "search_fec", "design.search_fec", _search_fec_stats),
    (design, "calibrate_pc", "simulate.calibrate_pc", _calibrate_stats),
    (design, "search_vq_extension", "design.search_vq_extension", None),
    (design, "simulate_distortion", "simulate.simulate_distortion", _trials_stats),
    (design, "weight_enumerator", "trellis.weight_enumerator", None),
    (design, "solve_crossover", "bounds.solve_crossover", None),
    (design, "free_distance", "trellis.free_distance", None),
    (simulate, "simulate_fer", "simulate.simulate_fer", _trials_stats),
    (simulate, "wava_decode_many", "wava", _wava_stats),
    (simulate, "encode_many", "encoder.encode_many", _rows_stats),
    (simulate, "build_trellis", "trellis.build_trellis", None),
    (keyagree, "enroll", "keyagree.enroll", None),
    (keyagree, "enroll_many", "keyagree.enroll", None),
    (keyagree, "reconstruct", "keyagree.reconstruct", None),
    (keyagree, "reconstruct_many", "keyagree.reconstruct", None),
    (keyagree, "wava_decode_many", "wava", _wava_stats),
    (keyagree, "encode_many", "encoder.encode_many", _rows_stats),
    (keyagree, "build_trellis", "trellis.build_trellis", None),
    (wava, "wava_decode_many", "wava", _wava_stats),
    (encoder, "encode_many", "encoder.encode_many", _rows_stats),
    (trellis, "build_trellis", "trellis.build_trellis", None),
]

OP = "op"        # one benchmark operation, opened by the benchmark itself
SETUP = "setup"  # the traced repeat of a workload's set-up

# (metric name, unit); every value but the setup one is a mean per operation
PER_LAYER = [
    ("trace.ops", "count"),
    ("trace.overhead_s", "s/op"),
    ("wava.calls", "count/op"),
    ("wava.rows", "count/op"),
    ("wava.busy_s", "s/op"),
    ("wava.us_per_row", "us/row"),
    ("wava.iter_mean", "iter"),
    *[(f"wava.iter_hist.{i}", "count/op") for i in range(1, V_MAX + 1)],
    ("wava.nonconverged_rows", "count/op"),
    ("wava.ns_per_kappa", "ns/kappa"),
    *[(f"{layer}.{part}", unit) for layer in (
        "trellis.weight_enumerator", "bounds.solve_crossover", "trellis.free_distance",
        "trellis.build_trellis") for part, unit in (("calls", "count/op"), ("busy_s", "s/op"))],
    ("trellis.build_trellis.setup_s", "s"),
    ("simulate.calibrate_pc.busy_s", "s/op"),
    ("simulate.calibrate_pc.probes", "count/op"),
    ("simulate.calibrate_pc.probes_at_cap", "count/op"),
    ("simulate.calibrate_pc.trials", "count/op"),
    *[(f"simulate.{fn}.{part}", unit) for fn in ("simulate_fer", "simulate_distortion")
      for part, unit in (("calls", "count/op"), ("trials", "count/op"), ("busy_s", "s/op"))],
    *[(f"design.stage.{st}_s", "s/op") for st in ("search_fec", "calibrate", "extend", "freeze")],
    ("design.search_fec.candidates", "count/op"),
    ("design.search_fec.skipped", "count/op"),
    ("encoder.encode_many.calls", "count/op"),
    ("encoder.encode_many.rows", "count/op"),
    ("encoder.encode_many.busy_s", "s/op"),
    *[(f"keyagree.{fn}.{part}", unit) for fn in ("enroll", "reconstruct")
      for part, unit in (("calls", "count/op"), ("busy_s", "s/op"), ("self_s", "s/op"))],
]


def _design_stages(spans: list[Span], children: dict[int, list[int]], idx: int) -> dict[str, float]:
    """Split one design_nested span into its four stages by its child spans.

    search_fec ends with the search_fec span, calibration with the
    calibrate_pc span, extension with the distortion run that follows the
    last extension search; freezing is the rest.  A design that raised
    before its extension stage contributes nothing.
    """
    d = spans[idx]
    kids = [spans[i] for i in children.get(idx, [])]
    names = [k.name for k in kids]
    if "design.search_vq_extension" not in names or names[-1] == "design.search_vq_extension":
        return {}
    fec_end = kids[names.index("design.search_fec")].end
    cal_end = kids[names.index("simulate.calibrate_pc")].end
    last_ext = len(names) - 1 - names[::-1].index("design.search_vq_extension")
    ext_end = kids[last_ext + 1].end
    return {"search_fec": fec_end - d.start, "calibrate": cal_end - fec_end,
            "extend": ext_end - cal_end, "freeze": d.end - ext_end}


def per_layer_metrics(spans: list[Span], overhead_s: float) -> dict[str, float]:
    """Per-operation layer metrics from the spans of one traced pass."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s.parent, []).append(i)
    root_of = []
    for s in spans:
        root_of.append(s if s.parent < 0 else root_of[s.parent])

    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    setup_build = 0.0
    stages = {"search_fec": 0.0, "calibrate": 0.0, "extend": 0.0, "freeze": 0.0}
    for i, s in enumerate(spans):
        root = root_of[i].name
        if root == SETUP:
            if s.name == "trellis.build_trellis":
                setup_build += s.dur
            continue
        if s.parent < 0:
            continue
        calls[s.name] = calls.get(s.name, 0) + 1
        busy[s.name] = busy.get(s.name, 0.0) + s.dur
        covered = sum(spans[j].dur for j in children.get(i, []))
        self_s[s.name] = self_s.get(s.name, 0.0) + s.dur - covered
        for k, v in s.counts.items():
            key = f"{s.name}.{k}"
            counts[key] = counts.get(key, 0) + v
        if s.name == "design.design_nested":
            for st, v in _design_stages(spans, children, i).items():
                stages[st] += v

    n_ops = sum(1 for s in spans if s.parent < 0 and s.name == OP)
    per = 1.0 / max(n_ops, 1)
    rows = counts.get("wava.rows", 0)
    out = {
        "trace.ops": n_ops,
        "trace.overhead_s": overhead_s,
        "wava.us_per_row": 1e6 * busy.get("wava", 0.0) / rows if rows else 0.0,
        "wava.iter_mean": counts.get("wava.iter_sum", 0) / rows if rows else 0.0,
        "wava.ns_per_kappa": (1e9 * busy.get("wava", 0.0) / counts["wava.kappa"]
                              if counts.get("wava.kappa") else 0.0),
        "wava.nonconverged_rows": counts.get("wava.nonconverged", 0) * per,
        "trellis.build_trellis.setup_s": setup_build,
        "simulate.calibrate_pc.busy_s": busy.get("simulate.calibrate_pc", 0.0) * per,
    }
    for name in ("wava", "trellis.weight_enumerator", "bounds.solve_crossover",
                 "trellis.free_distance", "trellis.build_trellis", "simulate.simulate_fer",
                 "simulate.simulate_distortion", "encoder.encode_many",
                 "keyagree.enroll", "keyagree.reconstruct"):
        out[f"{name}.calls"] = calls.get(name, 0) * per
        out[f"{name}.busy_s"] = busy.get(name, 0.0) * per
        out[f"{name}.self_s"] = self_s.get(name, 0.0) * per
    for key in ("wava.rows", *[f"wava.iter_hist.{i}" for i in range(1, V_MAX + 1)],
                "simulate.calibrate_pc.probes", "simulate.calibrate_pc.probes_at_cap",
                "simulate.calibrate_pc.trials", "simulate.simulate_fer.trials",
                "simulate.simulate_distortion.trials", "design.search_fec.candidates",
                "design.search_fec.skipped", "encoder.encode_many.rows"):
        out[key] = counts.get(key, 0) * per
    for st, v in stages.items():
        out[f"design.stage.{st}_s"] = v * per
    return {name: out[name] for name, _ in PER_LAYER}
