"""Time the pruned subcode search against the unpruned reference loop.

    python3 scripts/bench_search_fec.py [--out BENCH_search_fec.json]

Two points, each timed in ``RUNS`` runs of both searches, run back to back
in one process with one BLAS thread, and recorded as the median, every run
and (q3 - q1) / median:

- ``criterion-9``: the acceptance design's search (n=3, m=6, K_fec=32,
  target_pb=1e-3, w_max=500, seed 2024);
- ``design-m6``: the benchmark workload's search (n=3, m=6, K_fec=32,
  target_pb=0.1, w_max=20) at seeds (7, 1) .. (7, 16), reported per search.

Before timing, every point checks that both searches return the same
winner and crossover.  The JSON also records the pruned, skipped
and scored candidate counts and the machine, core count and versions.
``count_point`` computes the deterministic fields and times nothing, so that
a test can recompute them and compare them with the committed JSON.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "scripts"), str(ROOT / "src"), str(ROOT / "tests")]

import _bench  # noqa: E402  (first: it pins BLAS to one thread)
import argparse  # noqa: E402
import math  # noqa: E402

from nestedtbcc.design import search_fec  # noqa: E402
from search_fec_reference import reference_search_fec  # noqa: E402

RUNS = 3
POINTS = {
    "criterion-9": [dict(n=3, m=6, K_fec=32, target_pb=1e-3, w_max=500, seed=2024)],
    "design-m6": [dict(n=3, m=6, K_fec=32, target_pb=0.1, w_max=20, seed=(7, i))
                  for i in range(1, 17)],
}


def count_point(cfgs: list[dict]) -> tuple[dict, list]:
    """The deterministic fields of bench_point (no timing), and the pruned searches'
    results."""
    results = [search_fec(**cfg) for cfg in cfgs]
    counts = {"pruned": sum(res.pruned for res in results),
              "skipped": sum(res.skipped for res in results),
              "scored": sum(p is not None and p != -math.inf
                            for res in results for _, p in res.candidate_log)}
    params = {k: v for k, v in cfgs[0].items() if k != "seed"}
    return {
        "params": {**params, "truncation": results[-1].spectrum.d_max},
        "seeds": [list(c["seed"]) if isinstance(c["seed"], tuple) else c["seed"] for c in cfgs],
        "searches": len(cfgs),
        "candidates": counts,
    }, results


def bench_point(cfgs: list[dict]) -> dict:
    out, results = count_point(cfgs)
    for cfg, res in zip(cfgs, results):
        ref = reference_search_fec(**cfg)
        if (res.code, res.p_c) != (ref.code, ref.p_c):
            raise AssertionError(f"pruned search differs from the reference at {cfg}")
    searches = {"pruned": search_fec, "reference": reference_search_fec}
    times = _bench.median_of_runs(lambda: {
        f"{name}_s_per_search": _bench.seconds(lambda: [search(**cfg) for cfg in cfgs]) / len(cfgs)
        for name, search in searches.items()}, RUNS)
    return {**out, **times, "speedup": (times["reference_s_per_search"]["median"]
                                        / times["pruned_s_per_search"]["median"])}


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
