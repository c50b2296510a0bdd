"""The bench scripts import, the merged WAVA bench keeps the part of each
retired WAVA script, bench_wava's kernel-call counter and layer timer run, and
every deterministic field of the committed BENCH_*.json files is what the
scripts' own counting functions compute today.

The scripts patch private names of the package (``wava._Kernel`` methods,
``wava._two_phase_search``, ``trellis._closed_paths`` and
``trellis._BUDGET_BYTES``), so a rename fails here rather than in the next
benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from nestedtbcc import wava
from nestedtbcc.trellis import build_trellis
from wava_spy import kernel_spies

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _load(monkeypatch, path: Path):
    # the scripts put scripts/, src/, tests/ and perfbench/ on sys.path and, through _bench,
    # pin the BLAS threads in os.environ when imported; monkeypatch undoes both
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, path.stem, module)
    spec.loader.exec_module(module)
    return module


# the parts of bench_wava.py that took over each retired WAVA bench script
RETIRED = {"bench_wava_stop": ("bench_code", "count_calls"),
           "bench_wava_sweep": ("time_layers",),
           "bench_wava_fallback": ("bench_pair_m6", "bench_m8_k3", "fallback")}
CASES = ([(p.stem, p, ("main",)) for p in sorted(SCRIPTS.glob("bench_*.py"))]
         + [(name, SCRIPTS / "bench_wava.py", ("main", *parts)) for name, parts in RETIRED.items()])


@pytest.mark.parametrize("path,names", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_bench_script_imports(monkeypatch, path, names):
    module = _load(monkeypatch, path)
    for name in names:
        assert callable(getattr(module, name)), name


def test_wava_stop_counts_kernel_calls(monkeypatch):
    bench = _load(monkeypatch, SCRIPTS / "bench_wava.py")
    code, _ = bench.load_inputs()
    words = bench.m8_words(code)[0][:16]
    trellis = build_trellis(code)
    saved = wava._Kernel.sweep, wava._Kernel.constrained, wava._Kernel.traceback
    (res,), (calls,) = bench.count_calls(trellis, [words])
    assert (wava._Kernel.sweep, wava._Kernel.constrained, wava._Kernel.traceback) == saved
    plain = wava.wava_decode_many(trellis, words)
    for field in ("msg_bits", "distance", "iterations", "converged", "fallback"):
        assert np.array_equal(getattr(res, field), getattr(plain, field)), field
    # 16 words fit one column block: one forward sweep per sweep any word runs, at most
    # one backward sweep, and constrained sweeps only for rows of the exact fallback
    assert wava._Kernel(trellis).columns() >= 16
    assert calls["forward"] == res.iterations.max()
    assert calls["backward"] == (calls["backward_words"] > 0)
    assert (calls["constrained"] > 0) == res.fallback.any()
    assert 1 <= calls["traceback"] <= calls["forward"] + calls["constrained"]


def test_wava_sweep_times_every_layer(monkeypatch):
    bench = _load(monkeypatch, SCRIPTS / "bench_wava.py")
    monkeypatch.setattr(bench, "RUNS", 1)
    _, pair = bench.load_inputs()
    trellis = build_trellis(pair.vq_code)
    layers = bench.time_layers(trellis, 4033)
    assert (trellis.S, trellis.ell) == (64, 32)
    # the criterion-9 quantizer keeps uint16 keys and never renormalises in 32 sections
    assert (layers["key_dtype"], layers["renorm_every"]) == ("uint16", 36)
    assert layers["block_columns"] == wava._Kernel(trellis).columns() > 3
    # the layers are timed on the block that a decode of 4 033 words sweeps first: two
    # row groups of at most 2 017 words, each in two blocks of at most 1 009
    calls, spies = kernel_spies()
    for name, spy in spies.items():
        monkeypatch.setattr(wava._Kernel, name, spy)
    wava.wava_decode_many(trellis, np.zeros((4033, trellis.N), dtype=np.uint8))
    assert layers["call_columns"] == calls[0][1] == 1009
    # every layer, the one-column (one-word) forward sweep and traceback included
    for layer, per in (("forward", "ns_per_section_state_column"),
                       ("backward", "ns_per_section_state_column"),
                       ("constrained", "ns_per_section_state_column"),
                       ("traceback", "ns_per_section_column"),
                       ("forward_one_column", "ns_per_section_state_column"),
                       ("traceback_one_column", "ns_per_section_column")):
        ms = layers[layer]["ms"]
        assert len(ms["runs"]) == 1 and ms["iqr_over_median"] == 0 and layers[layer][per] > 0


def _recorded(committed: dict, counted: dict) -> dict:
    """The fields of the committed JSON that counted holds, nested dicts by key: the
    committed file also holds timings, which are not compared."""
    return {k: _recorded(committed[k], v) if isinstance(v, dict) else committed.get(k)
            for k, v in counted.items()}


def test_bench_wava_json_matches_the_code(monkeypatch):
    bench = _load(monkeypatch, SCRIPTS / "bench_wava.py")
    committed = json.loads((ROOT / "BENCH_wava.json").read_text())
    assert (committed["seeds"], committed["layer_seed"]) == (list(bench.SEEDS), bench.LAYER_SEED)
    cases = bench.code_cases()
    counted = {
        "codes": {name: bench.count_code(*case) for name, case in cases.items()},
        "fallback": {"pair_m6": bench.count_pair_m6(build_trellis(cases["pair_m6_quantizer"][0]))[0],
                     "m8_k3": bench.count_m8_k3(bench.m8_k3_cases())},
    }
    assert set(counted["codes"]) == set(committed["codes"])
    for fields in counted["codes"].values():
        assert {"kernel_calls_per_decode", "iter_hist", "backward_mean", "converged_share",
                "fallback_share", "kappa", "layers"} <= set(fields)
        assert set(fields["layers"]) == {"key_dtype", "renorm_every", "block_columns",
                                         "call_columns"}
    assert {"fallback_rows_per_call", "two_phase", "exhaustive"} <= set(counted["fallback"]["pair_m6"])
    assert "fallback_rows" in counted["fallback"]["m8_k3"]
    assert _recorded(committed, counted) == counted


def test_bench_search_fec_json_matches_the_code(monkeypatch):
    bench = _load(monkeypatch, SCRIPTS / "bench_search_fec.py")
    committed = json.loads((ROOT / "BENCH_search_fec.json").read_text())
    assert set(committed["points"]) == set(bench.POINTS)
    counted = {"points": {name: bench.count_point(cfgs)[0] for name, cfgs in bench.POINTS.items()}}
    assert _recorded(committed, counted) == counted


def test_bench_enumerator_json_matches_the_code(monkeypatch):
    bench = _load(monkeypatch, SCRIPTS / "bench_enumerator.py")
    committed = json.loads((ROOT / "BENCH_enumerator.json").read_text())
    assert (committed["seed"], committed["budgets"]) == (bench.SEED, bench.BUDGETS)
    assert set(committed["points"]) == set(bench.POINTS)
    counted = {"points": {name: bench.count_point(params) for name, params in bench.POINTS.items()}}
    assert _recorded(committed, counted) == counted
