"""The bench scripts import, and bench_wava_stop's kernel-call counter runs.

The scripts patch private names of the package (``wava._Kernel`` methods,
``wava._two_phase_search``), so a rename fails here rather than in the next
benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from nestedtbcc import wava
from nestedtbcc.trellis import build_trellis

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(monkeypatch, path: Path):
    # the scripts put scripts/, src/ and tests/ on sys.path and, through _bench,
    # pin the BLAS threads in os.environ when imported; monkeypatch undoes both
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, path.stem, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("bench_*.py")), ids=lambda p: p.stem)
def test_bench_script_imports(monkeypatch, path):
    assert callable(_load(monkeypatch, path).main)


def test_wava_stop_counts_kernel_calls(monkeypatch):
    bench = _load(monkeypatch, SCRIPTS / "bench_wava_stop.py")
    code = bench._m8_code()
    words = bench._fec_m8_words(code)[0][:16]
    trellis = build_trellis(code)
    saved = wava._Kernel.sweep, wava._Kernel.constrained, wava._Kernel.traceback
    (res,), (calls,) = bench.kernel_calls(trellis, [words])
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
    bench = _load(monkeypatch, SCRIPTS / "bench_wava_sweep.py")
    codes = bench.codes()
    assert set(codes) == {"code_m8", "pair_m6_quantizer", "pair_m6_fec"}
    point = bench.time_layers(codes["pair_m6_quantizer"], columns=3, runs=1, reps=1)
    assert (point["S"], point["ell"], point["columns"]) == (64, 32, 3)
    # the criterion-9 quantizer keeps uint16 keys and never renormalises in 32 sections
    kern = wava._Kernel(build_trellis(codes["pair_m6_quantizer"]))
    assert (point["key_dtype"], point["renorm_every"]) == ("uint16", 36)
    assert point["block_columns"] == kern.columns() > 3
    for layer, per in (("forward", "ns_per_section_state_column"),
                       ("backward", "ns_per_section_state_column"),
                       ("constrained", "ns_per_section_state_column"),
                       ("traceback", "ns_per_section_column")):
        assert len(point[layer]["runs_ms"]) == 1 and point[layer][per] > 0
