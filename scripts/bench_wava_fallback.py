"""Time WAVA's two-phase exact fallback against the exhaustive reference.

    python3 scripts/bench_wava_fallback.py [--out BENCH_wava_fallback.json]

Two points, each timed as the median of ``RUNS`` runs of both searches,
run back to back in one process with one BLAS thread:

- ``pair_m6``: the criterion-9 quantizer of ``perfbench/inputs/pair_m6.json``
  (m=6, k=3, N=96; the file is only read).  Each seed draws 1 024 uniform
  words, as the ``keyagree-batch-m6`` enrollment does; the fallback calls of
  their decodes (one per row group that has fallback rows) are captured
  and replayed, and the time and the count of swept (start state, word)
  columns are reported per call.  The lower bounds come with each call: the
  decoder computes them before its fallback, so neither search is timed for
  them.
- ``m8_k3``: random unfrozen m=8, k=3, ell=128 codes (rate 1) quantizing
  64 uniform words per seed: ``wava_decode_many`` words/s and the seconds
  spent in the fallback, with either search plugged in.

Before timing, every captured call checks that both searches return the
same mask and leave the same paths and distances.  The JSON records the
machine, the core count, the versions and the seeds.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "scripts"), str(ROOT / "src"), str(ROOT / "tests")]

import _bench  # noqa: E402  (first: it pins BLAS to one thread)
import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from nestedtbcc import wava  # noqa: E402
from nestedtbcc.encoder import EncoderSpec, TailbitingCode  # noqa: E402
from nestedtbcc.gf2 import sample_uniform_matrix  # noqa: E402
from nestedtbcc.keyagree import pair_from_dict  # noqa: E402
from nestedtbcc.trellis import build_trellis  # noqa: E402
from wava_fallback_reference import CountingKernel, exhaustive_constrained  # noqa: E402

RUNS = 3
PAIR_SEEDS = tuple(range(1, 11))
PAIR_WORDS = 1024
# codes whose encoders are not injective, so that uniform words reach the
# fallback (at seeds 1, 2, 3 every word is a codeword and none does)
M8_SEEDS = (0, 4, 9)
M8_WORDS = 64
SEARCHES = {"two_phase": wava._two_phase_search,
            "exhaustive": lambda kern, r_ints, idx, lb, bp, *best:
                exhaustive_constrained(kern, r_ints, idx, *best)}


def _capture(trellis, words) -> list[tuple]:
    """The arguments of every fallback call of one decode, copied before the call."""
    calls = []

    def spy(kern, r_ints, idx, lb, bp, best_u, best_out, best_dist):
        calls.append((r_ints, idx, lb, best_u.copy(), best_out.copy(), best_dist.copy()))
        return search(kern, r_ints, idx, lb, bp, best_u, best_out, best_dist)

    search, wava._two_phase_search = wava._two_phase_search, spy
    try:
        wava.wava_decode_many(trellis, words)
    finally:
        wava._two_phase_search = search
    return calls


def _replay(trellis, search, call) -> tuple[float, int, tuple]:
    r_ints, idx, lb, best_u, best_out, best_dist = (a.copy() for a in call)
    kern = CountingKernel(trellis)
    bp = np.empty((trellis.ell, trellis.S // 2, len(idx)), dtype=kern.tab.bp_dtype)
    t0 = time.perf_counter()
    improved = search(kern, r_ints, idx, lb, bp, best_u, best_out, best_dist)
    return time.perf_counter() - t0, kern.swept, (improved, best_u, best_out, best_dist)


def bench_pair_m6() -> dict:
    pair = pair_from_dict(json.loads((ROOT / "perfbench/inputs/pair_m6.json").read_text()))
    trellis = build_trellis(pair.vq_code)
    calls = []
    for seed in PAIR_SEEDS:
        rng = np.random.default_rng(seed)
        calls += _capture(trellis, (rng.random((PAIR_WORDS, pair.N)) < 0.5).astype(np.uint8))
    out = {"params": {"m": trellis.code.spec.m, "k": trellis.k, "N": trellis.N,
                      "words_per_call": PAIR_WORDS},
           "seeds": list(PAIR_SEEDS), "calls": len(calls),
           "fallback_rows_per_call": sum(len(c[1]) for c in calls) / len(calls)}
    for call in calls:
        (_, _, a), (_, _, b) = (_replay(trellis, s, call) for s in SEARCHES.values())
        if not all(np.array_equal(x, y) for x, y in zip(a, b)):
            raise AssertionError("two-phase search differs from the exhaustive reference")
    ms = {name: [] for name in SEARCHES}
    for _ in range(RUNS):
        for name, search in SEARCHES.items():
            runs = [_replay(trellis, search, call) for call in calls]
            ms[name].append(1e3 * sum(r[0] for r in runs) / len(calls))
            out[name] = {"columns_swept_per_call": sum(r[1] for r in runs) / len(calls)}
    for name, runs in ms.items():
        out[name]["ms_per_call"] = {"median": statistics.median(runs), "runs": runs}
    out["speedup"] = (out["exhaustive"]["ms_per_call"]["median"]
                      / out["two_phase"]["ms_per_call"]["median"])
    return out


def _m8_code(seed: int) -> TailbitingCode:
    rng = np.random.default_rng(seed)
    spec = EncoderSpec(m=8, k=3, n=3, B_tilde=sample_uniform_matrix(8, 2, rng),
                       C=sample_uniform_matrix(3, 8, rng), D_tilde=sample_uniform_matrix(3, 2, rng))
    return TailbitingCode.unfrozen(spec, 128)


def _timed_decode(trellis, words, search) -> tuple[float, float, np.ndarray, np.ndarray]:
    """(decode seconds, fallback seconds, fallback flags, messages | distances) of one
    decode with search plugged in as the fallback."""
    spent = [0.0]

    def timed(*args):
        t0 = time.perf_counter()
        try:
            return search(*args)
        finally:
            spent[0] += time.perf_counter() - t0

    saved, wava._two_phase_search = wava._two_phase_search, timed
    try:
        t0 = time.perf_counter()
        res = wava.wava_decode_many(trellis, words)
        total = time.perf_counter() - t0
    finally:
        wava._two_phase_search = saved
    return total, spent[0], res.fallback, np.concatenate([res.msg_bits, res.distance[:, None]], 1)


def bench_m8_k3() -> dict:
    cases = []
    for seed in M8_SEEDS:
        trellis = build_trellis(_m8_code(seed))
        rng = np.random.default_rng(seed)
        cases.append((trellis, rng.integers(0, 2, (M8_WORDS, trellis.N), dtype=np.uint8)))
    out = {"params": {"m": 8, "k": 3, "n": 3, "ell": 128, "words_per_seed": M8_WORDS},
           "seeds": list(M8_SEEDS),
           "fallback_rows": sum(int(_timed_decode(t, w, wava._two_phase_search)[2].sum())
                                for t, w in cases)}
    words_s, fallback_s, results = ({name: [] for name in SEARCHES} for _ in range(3))
    for _ in range(RUNS):
        for name, search in SEARCHES.items():
            runs = [_timed_decode(t, w, search) for t, w in cases]
            words_s[name].append(M8_WORDS * len(cases) / sum(r[0] for r in runs))
            fallback_s[name].append(sum(r[1] for r in runs))
            results[name] = [r[3] for r in runs]
    for name in SEARCHES:
        out[name] = {"words_per_s": {"median": statistics.median(words_s[name]),
                                     "runs": words_s[name]},
                     "fallback_s": {"median": statistics.median(fallback_s[name]),
                                    "runs": fallback_s[name]}}
    if not all(np.array_equal(a, b) for a, b in zip(*results.values())):
        raise AssertionError("decodes differ between the two searches")
    out["speedup"] = out["two_phase"]["words_per_s"]["median"] / out["exhaustive"]["words_per_s"]["median"]
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(ROOT / "BENCH_wava_fallback.json"))
    args = ap.parse_args(argv)
    out = _bench.write_report(args.out, __file__, RUNS,
                              points={"pair_m6": bench_pair_m6(), "m8_k3": bench_m8_k3()})
    pm6, m8 = out["points"]["pair_m6"], out["points"]["m8_k3"]
    print(f"pair_m6: {pm6['calls']} calls, two-phase {pm6['two_phase']['ms_per_call']['median']:.2f} ms "
          f"({pm6['two_phase']['columns_swept_per_call']:.0f} columns), exhaustive "
          f"{pm6['exhaustive']['ms_per_call']['median']:.2f} ms "
          f"({pm6['exhaustive']['columns_swept_per_call']:.0f} columns) per call")
    print(f"m8_k3: two-phase {m8['two_phase']['words_per_s']['median']:.1f} words/s "
          f"(fallback {m8['two_phase']['fallback_s']['median']:.2f} s), exhaustive "
          f"{m8['exhaustive']['words_per_s']['median']:.1f} words/s "
          f"(fallback {m8['exhaustive']['fallback_s']['median']:.2f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
