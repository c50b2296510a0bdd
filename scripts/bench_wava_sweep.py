"""Time the WAVA kernel's layers: one sweep of each kind and one traceback.

    python3 scripts/bench_wava_sweep.py [--out BENCH_wava_sweep.json]

Three codes, read from ``perfbench/inputs`` (the files are only read):

- ``code_m8``: the (384, 128) m=8 rate-1/3 code of ``code_m8.json``
  (S = 256, k = 1);
- ``pair_m6_quantizer``: the criterion-9 quantizer of ``pair_m6.json``
  (S = 64, k = 3, frozen steps);
- ``pair_m6_fec``: that pair's k = 1 subcode.

Per code, one column block of ``_Kernel.columns()`` uniform random words, the
width the decoder sweeps, and per layer the median of ``RUNS`` runs, each the
mean of ``REPS`` calls, in one process with one BLAS thread:

- ``forward``: a sweep from zero metrics that records backpointers, as each
  wrap-around sweep does;
- ``backward``: ``_Kernel.bound``, the backward sweep over the out-edges and
  the max with the forward end metrics;
- ``constrained``: ``_Kernel.constrained``, a sweep of (start state, word)
  columns without backpointers, as the exact fallback runs them;
- ``traceback``: ``_Kernel.traceback`` of every column of the forward sweep.

Each sweep also records nanoseconds per (section, state, column), and the
traceback per (section, column).  The JSON records the machine, the core
count, the versions, the seed and the column counts.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "scripts"), str(ROOT / "src")]

import _bench  # noqa: E402  (first: it pins BLAS to one thread)
import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from nestedtbcc import wava  # noqa: E402
from nestedtbcc.encoder import code_from_dict  # noqa: E402
from nestedtbcc.keyagree import pair_from_dict  # noqa: E402
from nestedtbcc.trellis import build_trellis  # noqa: E402

RUNS = 5
REPS = 3
SEED = 2024
INPUTS = ROOT / "perfbench" / "inputs"


def _median_s(call, runs: int, reps: int) -> tuple[float, list[float]]:
    """The median over runs of the mean seconds of reps calls, and the runs."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        for _ in range(reps):
            call()
        times.append((time.perf_counter() - t0) / reps)
    return statistics.median(times), times


def time_layers(code, columns: int | None = None, runs: int = RUNS, reps: int = REPS) -> dict:
    """Per layer, the median seconds of one call on columns words (default: one column
    block of the decoder) and its runs, with ns per element."""
    trellis = build_trellis(code)
    kern = wava._Kernel(trellis)
    S, ell, C = trellis.S, trellis.ell, columns or kern.columns()
    rng = np.random.default_rng(SEED)
    r_ints = rng.integers(0, 1 << trellis.n, (C, ell)).astype(np.uint8)
    rows, cols = np.arange(C), np.arange(C)
    r_cols = kern.r_cols(r_ints, rows)
    states = np.arange(S)[:, None]
    start = np.broadcast_to(states, (S, C)).astype(kern.tab.dtype)    # zero metric | origin
    bp = np.empty((ell, S, C), dtype=kern.tab.bp_dtype)
    fwd = (kern.sweep(r_cols, start.copy(), bp) >> kern.tab.sh).astype(np.int64)
    ends = fwd.argmin(axis=0)
    starts = rng.integers(0, S, C)
    calls = {
        "forward": lambda: kern.sweep(r_cols, start.copy(), bp),
        "backward": lambda: kern.bound(r_cols, fwd),
        "constrained": lambda: kern.constrained(r_ints, rows, starts),
        "traceback": lambda: kern.traceback(bp, ends, cols),
    }
    out = {"S": S, "ell": ell, "columns": C}
    for name, call in calls.items():
        call()                                          # buffers allocated before timing
        median, times = _median_s(call, runs, reps)
        per = ell * C if name == "traceback" else ell * S * C
        out[name] = {"median_ms": median * 1e3, "runs_ms": [t * 1e3 for t in times],
                     ("ns_per_section_column" if name == "traceback"
                      else "ns_per_section_state_column"): median * 1e9 / per}
    return out


def codes() -> dict:
    pair = pair_from_dict(json.loads((INPUTS / "pair_m6.json").read_text()))
    return {"code_m8": code_from_dict(json.loads((INPUTS / "code_m8.json").read_text())),
            "pair_m6_quantizer": pair.vq_code,
            "pair_m6_fec": pair.fec_code}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(ROOT / "BENCH_wava_sweep.json"))
    args = ap.parse_args(argv)
    points = {name: time_layers(code) for name, code in codes().items()}
    _bench.write_report(args.out, __file__, RUNS, reps=REPS, seed=SEED, points=points)
    for name, p in points.items():
        print(f"{name} (S={p['S']}, C={p['columns']}): " + ", ".join(
            f"{layer} {p[layer]['median_ms']:.3f} ms" for layer in
            ("forward", "backward", "constrained", "traceback")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
