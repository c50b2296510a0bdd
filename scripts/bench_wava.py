"""Time the WAVA decoder layer by layer, next to its complexity model.

    python3 scripts/bench_wava.py [--out BENCH_wava.json]

``codes`` holds three codes of ``perfbench/inputs`` (only read, and checked
against the sha256 recorded in ``MANIFEST.json``):

- ``code_m8``: the (384, 128) m=8 rate-1/3 code of ``code_m8.json``, decoding
  512 random codewords per seed sent over BSC(0.0365), the m=8 row of
  ``table2_reference.csv``;
- ``pair_m6_quantizer``: the criterion-9 pair of ``pair_m6.json`` (m=6, k=3,
  N=96, frozen steps) quantizing 1 024 uniform words per seed, as enrollment
  does;
- ``pair_m6_fec``: that pair's k=1 subcode decoding what reconstruction
  decodes: y xor encode(0, w), with y the enrolled word sent over BSC(0.0149)
  and w the helper bits of its enrollment.

Per code: words/s, ns per word and per kappa of ``bounds.complexity_estimates``
at ``wava.SWEEPS``, the histogram of forward sweeps per word, the share of
words that ran the stop rule's one backward sweep, the converged and fallback
shares, and per decode call the kernel sweeps by kind (forward, backward,
constrained: the exact fallback's) and the tracebacks; these counts are
deterministic, so they resolve a change to the call pattern that words/s
cannot.  ``layers`` times a forward sweep with backpointers, the backward
bound sweep, a sweep of (start state, word) columns and a traceback on one
column block of uniform random words, in ns per (section, state, column), or
per (section, column) for the traceback, and records the key dtype, the
renormalisation interval (ell or more: never), the column cap of a block and
the block width that a decode of one seed's words uses, at which the layers
are timed.

``fallback`` compares the two-phase exact fallback with the exhaustive search
of ``tests/wava_fallback_reference.py``.  ``pair_m6`` replays with either
search the fallback calls (lower bounds included) of the criterion-9
quantizer's decodes of 1 024 uniform words per seed, timed and counted in
swept columns; ``m8_k3`` decodes 64 uniform words per seed on random unfrozen
m=8, k=3, ell=128 codes (rate one) with either search plugged in: words/s and
the seconds spent in the fallback.

Every timing is ``RUNS`` runs in one process with one BLAS thread, recorded
as its median, every run and (q3 - q1) / median, the spread a change must
exceed to be seen.  The script raises if a spied decode differs from a plain
one, or the two searches differ in any result.  The deterministic fields come
from ``count_code``, ``count_pair_m6`` and ``count_m8_k3``, which time nothing,
so that a test can recompute them and compare them with the committed JSON.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / p) for p in ("scripts", "src", "tests", "perfbench")]

import _bench  # noqa: E402  (first: it pins BLAS to one thread)
import argparse  # noqa: E402
import time  # noqa: E402
from unittest import mock  # noqa: E402

import numpy as np  # noqa: E402

from nestedtbcc import encoder, keyagree, wava  # noqa: E402
from nestedtbcc.bounds import complexity_estimates  # noqa: E402
from nestedtbcc.gf2 import sample_uniform_matrix  # noqa: E402
from nestedtbcc.trellis import build_trellis  # noqa: E402
from nestedtbcc.wava import wava_decode_many  # noqa: E402
from wava_fallback_reference import CountingKernel, exhaustive_constrained  # noqa: E402
from wava_spy import kernel_spies  # noqa: E402
from workloads import load_input  # noqa: E402  (perfbench's digest-checked reader)

RUNS = 5
REPS = 3          # calls per timed run of one kernel layer
SEEDS = (1, 2, 3, 4)
LAYER_SEED = 2024
P_C_M8 = 0.0365   # the m=8 row of table2_reference.csv
P_A = 0.0149      # identifier noise of the criterion-9 design point
PAIR_SEEDS = tuple(range(1, 11))
PAIR_WORDS = 1024
# codes whose encoders are not injective, so that uniform words reach the
# fallback (at seeds 1, 2, 3 every word is a codeword and none does)
M8_SEEDS = (0, 4, 9)
M8_WORDS = 64
KINDS = ("forward", "backward", "constrained", "traceback")
SEARCHES = {"two_phase": wava._two_phase_search,
            "exhaustive": lambda kern, r_ints, idx, lb, bp, *best:
                exhaustive_constrained(kern, r_ints, idx, *best)}


def fallback(search):
    """A context in which wava's exact fallback is search."""
    return mock.patch.object(wava, "_two_phase_search", search)


def _check_equal(a: list, b: list, what: str) -> None:
    if not all(np.array_equal(x, y) for x, y in zip(a, b, strict=True)):
        raise AssertionError(what)


def _arrays(results) -> list[np.ndarray]:
    return [getattr(res, field) for res in results
            for field in ("msg_bits", "distance", "iterations", "converged", "fallback")]


def load_inputs() -> tuple[encoder.TailbitingCode, keyagree.NestedCodePair]:
    """The m=8 code and the criterion-9 pair of perfbench/inputs."""
    return (encoder.code_from_dict(load_input("code_m8.json")),
            keyagree.pair_from_dict(load_input("pair_m6.json")))


def code_cases() -> dict[str, tuple]:
    """Per code of ``codes``, the code and its batches of words, one per seed."""
    code_m8, pair = load_inputs()
    xs, shifted = pair_words(pair)
    return {"code_m8": (code_m8, m8_words(code_m8)),
            "pair_m6_quantizer": (pair.vq_code, xs),
            "pair_m6_fec": (pair.fec_code, shifted)}


def m8_words(code) -> list[np.ndarray]:
    out = []
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        msgs = rng.integers(0, 2, (512, code.K), dtype=np.uint8)
        out.append(encoder.encode_many(code, msgs)
                   ^ (rng.random((512, code.N)) < P_C_M8).astype(np.uint8))
    return out


def pair_words(pair) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per seed, the enrollment words and the reconstruction decoder's inputs."""
    vq = build_trellis(pair.vq_code)
    xs, shifted = [], []
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        x = (rng.random((1024, pair.N)) < 0.5).astype(np.uint8)
        y = x ^ (rng.random((1024, pair.N)) < P_A).astype(np.uint8)
        helper_msgs = wava_decode_many(vq, x).msg_bits
        helper_msgs[:, pair.key_index] = 0
        xs.append(x)
        shifted.append(y ^ encoder.encode_many(pair.vq_code, helper_msgs))
    return xs, shifted


def count_calls(trellis, batches: list[np.ndarray]) -> tuple[list, list[dict]]:
    """The decodes of batches and, per decode, its kernel calls by kind and the words
    its backward sweeps ran, as the ``wava_spy`` spy records them."""
    results, counts = [], []
    for r in batches:
        calls, spies = kernel_spies()
        with mock.patch.multiple(wava._Kernel, **spies):
            results.append(wava_decode_many(trellis, r))
        counts.append({kind: sum(k == kind for k, _ in calls) for kind in KINDS}
                      | {"backward_words": sum(c for k, c in calls if k == "backward")})
    return results, counts


def layer_params(kern, words: int) -> dict:
    """The kernel's key dtype, renormalisation interval, column cap of a block, and the
    width of the first block of a decode of words rows (its row group, split as evenly
    as the cap allows)."""
    group = wava._width(words, kern.group_rows())
    return {"key_dtype": np.dtype(kern.tab.dtype).name, "renorm_every": kern.tab.every,
            "block_columns": kern.columns(), "call_columns": wava._width(group, kern.columns())}


def time_layers(trellis, words: int) -> dict:
    """The kernel's parameters and, per layer, the ms of one call on the first column
    block of a decode of words rows, and ns per element."""
    kern = wava._Kernel(trellis)
    out = layer_params(kern, words)
    S, ell, C = trellis.S, trellis.ell, out["call_columns"]
    rng = np.random.default_rng(LAYER_SEED)
    r_ints = rng.integers(0, 1 << trellis.n, (C, ell)).astype(np.uint8)
    cols = np.arange(C)
    r_cols = kern.r_cols(r_ints, cols)
    start = np.broadcast_to(np.arange(S)[:, None], (S, C)).astype(kern.tab.dtype)  # 0 | origin
    bp = np.empty((ell, S // 2, C), dtype=np.uint8)     # one per state pair
    fwd = (kern.sweep(r_cols, start.copy(), bp) >> kern.tab.sh) + kern.offset
    ends, starts = fwd.argmin(axis=0), rng.integers(0, S, C)
    calls = {"forward": lambda: kern.sweep(r_cols, start.copy(), bp),
             "backward": lambda: kern.bound(r_cols, fwd),
             "constrained": lambda: kern.constrained(r_ints, cols, starts),
             "traceback": lambda: kern.traceback(bp, ends, cols)}
    for name, call in calls.items():
        call()                                          # buffers allocated before timing
        out[name] = _bench.median_of_runs(lambda: {"ms": 1e3 * _bench.seconds(call, REPS)}, RUNS)
        per, count = (("ns_per_section_column", ell * C) if name == "traceback"
                      else ("ns_per_section_state_column", ell * S * C))
        out[name][per] = out[name]["ms"]["median"] * 1e6 / count
    return out


def count_code(code, batches: list[np.ndarray]) -> dict:
    """The deterministic fields of bench_code: no timing."""
    trellis = build_trellis(code)
    plain = [wava_decode_many(trellis, r) for r in batches]
    results, calls = count_calls(trellis, batches)
    _check_equal(_arrays(results), _arrays(plain), "a spied decode differs from a plain one")
    iters = np.concatenate([res.iterations for res in results])
    backward = sum(c["backward_words"] for c in calls) / len(iters)
    spec = code.spec
    est = complexity_estimates(code.N, spec.n, trellis.k, spec.m, wava.SWEEPS)
    return {
        "params": {"m": spec.m, "k": trellis.k, "n": spec.n, "N": code.N, "K": code.K,
                   "S": trellis.S, "ell": trellis.ell, "V": wava.SWEEPS,
                   "words_per_seed": len(batches[0])},
        "iter_mean": float(iters.mean()),
        "backward_mean": backward,
        "sweeps_mean": float(iters.mean()) + backward,
        "iter_hist": np.bincount(iters, minlength=wava.SWEEPS + 1)[1:].tolist(),
        "kernel_calls_per_decode": {kind: [c[kind] for c in calls] for kind in KINDS},
        "converged_share": float(np.concatenate([res.converged for res in results]).mean()),
        "fallback_share": float(np.concatenate([res.fallback for res in results]).mean()),
        "kappa": {"F": est.kappa_f, "P": est.kappa_p, "M": est.kappa_m, "kind": est.kind},
        "layers": layer_params(wava._Kernel(trellis), len(batches[0])),
    }


def bench_code(code, batches: list[np.ndarray]) -> dict:
    out = count_code(code, batches)           # decodes first: tables built before timing
    trellis, words = build_trellis(code), sum(len(r) for r in batches)
    out |= _bench.median_of_runs(lambda: {"words_per_s": words / _bench.seconds(
        lambda: [wava_decode_many(trellis, r) for r in batches])}, RUNS)
    ns_word, kappa = 1e9 / out["words_per_s"]["median"], out["kappa"]
    out |= {"ns_per_word": ns_word, "ns_per_kappa": ns_word / kappa[kappa["kind"]],
            "layers": time_layers(trellis, len(batches[0]))}
    return out


def _replay(trellis, search, call) -> tuple[float, int, list]:
    r_ints, idx, lb, best_u, best_out, best_dist = (a.copy() for a in call)
    kern = CountingKernel(trellis)
    bp = np.empty((trellis.ell, trellis.S // 2, len(idx)), dtype=np.uint8)
    t0 = time.perf_counter()
    improved = search(kern, r_ints, idx, lb, bp, best_u, best_out, best_dist)
    return time.perf_counter() - t0, kern.swept, [improved, best_u, best_out, best_dist]


def count_pair_m6(trellis) -> tuple[dict, list]:
    """The deterministic fields of bench_pair_m6 (no timing), and the fallback calls
    of the quantizer's decodes, which it replays."""
    calls = []

    def capture(kern, r_ints, idx, lb, bp, best_u, best_out, best_dist):
        calls.append((r_ints, idx, lb, best_u.copy(), best_out.copy(), best_dist.copy()))
        return SEARCHES["two_phase"](kern, r_ints, idx, lb, bp, best_u, best_out, best_dist)

    with fallback(capture):
        for seed in PAIR_SEEDS:
            words = np.random.default_rng(seed).random((PAIR_WORDS, trellis.N)) < 0.5
            wava_decode_many(trellis, words.astype(np.uint8))
    replays = {name: [_replay(trellis, s, call) for call in calls] for name, s in SEARCHES.items()}
    for a, b in zip(*replays.values()):
        _check_equal(a[2], b[2], "two-phase search differs from the exhaustive reference")
    out = {"params": {"m": trellis.code.spec.m, "k": trellis.k, "N": trellis.N,
                      "words_per_call": PAIR_WORDS},
           "seeds": list(PAIR_SEEDS), "calls": len(calls),
           "fallback_rows_per_call": sum(len(c[1]) for c in calls) / len(calls)}
    for name in SEARCHES:
        out[name] = {"columns_swept_per_call": sum(r[1] for r in replays[name]) / len(calls)}
    return out, calls


def bench_pair_m6(trellis) -> dict:
    out, calls = count_pair_m6(trellis)
    for name, search in SEARCHES.items():
        out[name] |= _bench.median_of_runs(lambda: {"ms_per_call": 1e3 * sum(
            _replay(trellis, search, call)[0] for call in calls) / len(calls)}, RUNS)
    out["speedup"] = (out["exhaustive"]["ms_per_call"]["median"]
                      / out["two_phase"]["ms_per_call"]["median"])
    return out


def m8_k3_cases() -> list[tuple]:
    """Per seed of M8_SEEDS, the trellis of a random m=8, k=3 code and its words."""
    cases = []
    for seed in M8_SEEDS:
        rng = np.random.default_rng(seed)
        spec = encoder.EncoderSpec(
            m=8, k=3, n=3, B_tilde=sample_uniform_matrix(8, 2, rng),
            C=sample_uniform_matrix(3, 8, rng), D_tilde=sample_uniform_matrix(3, 2, rng))
        trellis = build_trellis(encoder.TailbitingCode.unfrozen(spec, 128))
        words = np.random.default_rng(seed).integers(0, 2, (M8_WORDS, trellis.N), dtype=np.uint8)
        cases.append((trellis, words))
    return cases


def count_m8_k3(cases: list[tuple]) -> dict:
    """The deterministic fields of bench_m8_k3: its decodes' fallback rows, no timing."""
    return {"params": {"m": 8, "k": 3, "n": 3, "ell": 128, "words_per_seed": M8_WORDS},
            "seeds": list(M8_SEEDS),
            "fallback_rows": int(sum(wava_decode_many(t, w).fallback.sum() for t, w in cases))}


def bench_m8_k3() -> dict:
    cases = m8_k3_cases()
    results, out = {}, count_m8_k3(cases)
    for name, search in SEARCHES.items():
        def run():
            spent = [0.0]

            def timed(*args):
                t0 = time.perf_counter()
                try:
                    return search(*args)
                finally:
                    spent[0] += time.perf_counter() - t0

            with fallback(timed):
                t0 = time.perf_counter()
                results[name] = [wava_decode_many(t, w) for t, w in cases]
                total = time.perf_counter() - t0
            return {"words_per_s": M8_WORDS * len(cases) / total, "fallback_s": spent[0]}
        out[name] = _bench.median_of_runs(run, RUNS)
    _check_equal(*map(_arrays, results.values()), "decodes differ between the two searches")
    out["speedup"] = (out["two_phase"]["words_per_s"]["median"]
                      / out["exhaustive"]["words_per_s"]["median"])
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(ROOT / "BENCH_wava.json"))
    args = ap.parse_args(argv)
    cases = code_cases()
    codes = {name: bench_code(*case) for name, case in cases.items()}
    quantizer = build_trellis(cases["pair_m6_quantizer"][0])
    out = _bench.write_report(
        args.out, __file__, RUNS, reps=REPS, seeds=list(SEEDS), layer_seed=LAYER_SEED,
        codes=codes, fallback={"pair_m6": bench_pair_m6(quantizer), "m8_k3": bench_m8_k3()})
    for name, p in codes.items():
        print(f"{name}: {p['words_per_s']['median']:.0f} words/s (spread "
              f"{p['words_per_s']['iqr_over_median']:.3f}), {p['sweeps_mean']:.3f} sweeps/word, "
              f"{p['ns_per_kappa']:.3f} ns/kappa_{p['kappa']['kind']}; layers " + ", ".join(
                  f"{layer} {p['layers'][layer]['ms']['median']:.3f} ms" for layer in KINDS))
    for name, p in out["fallback"].items():
        print(f"{name}: the two-phase fallback is {p['speedup']:.2f}x the exhaustive one")
    return 0


if __name__ == "__main__":
    sys.exit(main())
