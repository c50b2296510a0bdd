"""Time the weight enumerator at two start-block budgets.

    python3 scripts/bench_enumerator.py [--out BENCH_enumerator.json]

Random unfrozen rate-1/3 codes (``conftest.random_code``, seed ``SEED``) are
enumerated at three points:

- ``m6_d24`` and ``m6_d72``: 40 codes at the criterion-9 geometry (m=6,
  K=32), at the search's short pass (a third of the truncation) and at its
  full truncation 72;
- ``m8_d32``: 4 codes at the paper's geometry (m=8, K=128), at the short pass.

Each point is timed at ``trellis._BUDGET_BYTES`` of 4 MiB and 8 MiB, which
cap the start-pair block G: one run times every point at both budgets in
turn, the budget that went first going second in the next run, in one
process with one BLAS thread, and each time is the median over
``RUNS`` runs of the mean milliseconds per enumeration, with every run and
(q3 - q1) / median.  ``count_point`` computes the deterministic fields, the
spectra's sha256 and the start blocks per enumeration at each budget, and
times nothing, so that a test can recompute them and compare them with the
committed JSON.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "scripts"), str(ROOT / "src"), str(ROOT / "tests")]

import _bench  # noqa: E402  (first: it pins BLAS to one thread)
import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402

import numpy as np  # noqa: E402

from conftest import random_code  # noqa: E402
from nestedtbcc import trellis  # noqa: E402

RUNS = 7
SEED = 2026
BUDGETS = {"4MiB": 4 << 20, "8MiB": 8 << 20}
POINTS = {
    "m6_d24": dict(m=6, ell=32, codes=40, d_max=24),
    "m6_d72": dict(m=6, ell=32, codes=40, d_max=72),
    "m8_d32": dict(m=8, ell=128, codes=4, d_max=32),
}


def point_codes(m: int, ell: int, codes: int, d_max: int) -> list:
    rng = np.random.default_rng([SEED, m, ell])
    return [random_code(rng, m=m, k=1, n=3, ell=ell) for _ in range(codes)]


def count_point(params: dict) -> dict:
    """The spectra's sha256 and the start blocks per enumeration at each budget."""
    codes, saved = point_codes(**params), (trellis._BUDGET_BYTES, trellis._closed_paths)
    blocks = {}

    def counting(*args):
        blocks[name] += 1
        return saved[1](*args)

    h = hashlib.sha256()
    try:
        trellis._closed_paths = counting
        for name, budget in BUDGETS.items():
            trellis._BUDGET_BYTES, blocks[name] = budget, 0
            spectra = [trellis.weight_enumerator(c, params["d_max"]).items() for c in codes]
            blocks[name] /= len(codes)
            h.update(repr(spectra).encode())
    finally:
        trellis._BUDGET_BYTES, trellis._closed_paths = saved
    return {"params": params, "spectra_sha256": h.hexdigest(), "start_blocks": blocks}


def run_once(cases: dict, flip: bool) -> dict:
    """Mean ms per enumeration, per point and budget, in one pass over all of them;
    flip reverses the budget order."""
    saved, out = trellis._BUDGET_BYTES, {}
    try:
        for point, (codes, d_max) in cases.items():
            for name, budget in list(BUDGETS.items())[::-1 if flip else 1]:
                trellis._BUDGET_BYTES = budget
                out[f"{point}/{name}"] = 1e3 * _bench.seconds(
                    lambda: [trellis.weight_enumerator(c, d_max) for c in codes]) / len(codes)
    finally:
        trellis._BUDGET_BYTES = saved
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(ROOT / "BENCH_enumerator.json"))
    args = ap.parse_args(argv)
    points = {name: count_point(params) for name, params in POINTS.items()}
    cases = {name: (point_codes(**params), params["d_max"]) for name, params in POINTS.items()}
    run_once(cases, False)  # warm: trellis builds and first-touch allocations
    flips = itertools.cycle([False, True])
    times = _bench.median_of_runs(lambda: run_once(cases, next(flips)), RUNS)
    for key, t in times.items():
        point, budget = key.split("/")
        points[point].setdefault("ms_per_call", {})[budget] = t
    out = _bench.write_report(args.out, __file__, RUNS, seed=SEED, budgets=BUDGETS,
                              points=points)
    for name, pt in out["points"].items():
        print(f"{name}: " + ", ".join(
            f"{b} {pt['ms_per_call'][b]['median']:.2f} ms ({pt['start_blocks'][b]:g} blocks)"
            for b in BUDGETS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
