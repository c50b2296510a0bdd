"""Time the pruned subcode search against the unpruned reference loop.

    python3 scripts/bench_search_fec.py [--out BENCH_search_fec.json]

Two points, each timed as the median of ``RUNS`` runs of both searches,
run back to back in one process with one BLAS thread:

- ``criterion-9``: the acceptance design's search (n=3, m=6, K_fec=32,
  target_pb=1e-3, w_max=500, seed 2024);
- ``design-m6``: the benchmark workload's search (n=3, m=6, K_fec=32,
  target_pb=0.1, w_max=20) at seeds (7, 1) .. (7, 16), reported per search.

Before timing, every point checks that both searches return the same
winner and crossover.  The JSON also records the pruned, skipped
and scored candidate counts and the machine, core count and versions.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "scripts"), str(ROOT / "src"), str(ROOT / "tests")]

import _bench  # noqa: E402  (first: it pins BLAS to one thread)
import argparse  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

from nestedtbcc.design import search_fec  # noqa: E402
from search_fec_reference import reference_search_fec  # noqa: E402

RUNS = 3
POINTS = {
    "criterion-9": [dict(n=3, m=6, K_fec=32, target_pb=1e-3, w_max=500, seed=2024)],
    "design-m6": [dict(n=3, m=6, K_fec=32, target_pb=0.1, w_max=20, seed=(7, i))
                  for i in range(1, 17)],
}


def _time(search, cfgs) -> float:
    t0 = time.perf_counter()
    for cfg in cfgs:
        search(**cfg)
    return (time.perf_counter() - t0) / len(cfgs)


def bench_point(cfgs: list[dict]) -> dict:
    counts = {"pruned": 0, "skipped": 0, "scored": 0}
    for cfg in cfgs:
        res, ref = search_fec(**cfg), reference_search_fec(**cfg)
        same = (res.code, res.p_c) == (ref.code, ref.p_c)
        if not same:
            raise AssertionError(f"pruned search differs from the reference at {cfg}")
        counts["pruned"] += res.pruned
        counts["skipped"] += res.skipped
        counts["scored"] += sum(p is not None and p != -math.inf for _, p in res.candidate_log)
    pruned_s, reference_s = [], []
    for _ in range(RUNS):
        pruned_s.append(_time(search_fec, cfgs))
        reference_s.append(_time(reference_search_fec, cfgs))
    params = {k: v for k, v in cfgs[0].items() if k != "seed"}
    return {
        "params": {**params, "truncation": res.spectrum.d_max},
        "seeds": [list(c["seed"]) if isinstance(c["seed"], tuple) else c["seed"] for c in cfgs],
        "searches": len(cfgs),
        "candidates": counts,
        "pruned_s_per_search": {"median": statistics.median(pruned_s), "runs": pruned_s},
        "reference_s_per_search": {"median": statistics.median(reference_s),
                                   "runs": reference_s},
        "speedup": statistics.median(reference_s) / statistics.median(pruned_s),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(ROOT / "BENCH_search_fec.json"))
    args = ap.parse_args(argv)
    out = _bench.write_report(args.out, __file__, RUNS, points={
        name: bench_point(cfgs) for name, cfgs in POINTS.items()})
    for name, pt in out["points"].items():
        print(f"{name}: pruned {pt['pruned_s_per_search']['median']:.3f} s, reference "
              f"{pt['reference_s_per_search']['median']:.3f} s per search, "
              f"candidates {pt['candidates']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
