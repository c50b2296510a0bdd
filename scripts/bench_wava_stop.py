"""Time WAVA decoding and count the sweeps its stop rule lets each word run.

    python3 scripts/bench_wava_stop.py [--out BENCH_wava_stop.json]

Three decode points, each timed as the median of ``RUNS`` runs in one process
with one BLAS thread:

- ``fec_m8``: the (384, 128) m=8 code, rebuilt from the call recorded in
  ``perfbench/inputs/MANIFEST.json`` (its saved bytes are checked against the
  recorded sha256), decoding 512 random codewords per seed sent over
  BSC(0.0365), the m=8 row of ``table2_reference.csv``.
- ``pair_m6_quantizer``: the criterion-9 pair of ``perfbench/inputs/pair_m6.json``
  (m=6, k=3, N=96; the file is only read) quantizing 1 024 uniform words per
  seed, as enrollment does.
- ``pair_m6_fec``: the same pair's k=1 subcode decoding what reconstruction
  decodes: y xor encode(0, w), with y the enrolled word sent over BSC(0.0149)
  and w the helper bits of its enrollment.

Each point records words/s, the mean forward sweep count, the histogram of
forward sweeps per word, the share of words that ran the stop rule's one
backward sweep (their sum is the sweeps per word), the converged and fallback
shares, per decode call the kernel sweeps by kind (forward, backward,
constrained) and the tracebacks (these counts are deterministic, so they
resolve a change to the decoder's call pattern that words/s cannot), and the
WAVA complexity model of ``bounds.complexity_estimates`` at the default V=4
next to the measured nanoseconds per word and per kappa.  The JSON records
the machine, the core count, the versions and the seeds.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "scripts"), str(ROOT / "src")]

import _bench  # noqa: E402  (first: it pins BLAS to one thread)
import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from nestedtbcc import encoder, gf2, keyagree, wava  # noqa: E402
from nestedtbcc.bounds import complexity_estimates  # noqa: E402
from nestedtbcc.trellis import build_trellis  # noqa: E402
from nestedtbcc.wava import wava_decode_many  # noqa: E402

RUNS = 3
SEEDS = (1, 2, 3, 4)
V = 4             # the decoder's default cap, used by every call below
P_C_M8 = 0.0365   # the m=8 row of table2_reference.csv
P_A = 0.0149      # identifier noise of the criterion-9 design point
INPUTS = ROOT / "perfbench" / "inputs"


def _m8_code() -> encoder.TailbitingCode:
    """The fec-m8 code, from its MANIFEST call, checked against the recorded sha256."""
    code = encoder.TailbitingCode.unfrozen(
        encoder.EncoderSpec.rate_one_over_n(gf2.sample_uniform_matrix(3, 8, 2020)), 128)
    recorded = json.loads((INPUTS / "MANIFEST.json").read_text())["code_m8.json"]["sha256"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "code_m8.json"
        encoder.save_code(code, str(path))
        if hashlib.sha256(path.read_bytes()).hexdigest() != recorded:
            raise AssertionError("the rebuilt m=8 code differs from code_m8.json")
    return code


def _fec_m8_words(code) -> list[np.ndarray]:
    out = []
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        msgs = rng.integers(0, 2, (512, code.K), dtype=np.uint8)
        out.append(encoder.encode_many(code, msgs)
                   ^ (rng.random((512, code.N)) < P_C_M8).astype(np.uint8))
    return out


def _pair_words(pair) -> tuple[list[np.ndarray], list[np.ndarray]]:
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


KINDS = ("forward", "backward", "constrained", "traceback")


def kernel_calls(trellis, batches: list[np.ndarray]) -> tuple[list, list[dict]]:
    """The decodes of batches and, per decode call, its kernel sweeps by kind (forward,
    backward, and constrained: those of the exact fallback's ``_Kernel.constrained``), its
    tracebacks, and the words its backward sweeps ran, counted by wrapping
    ``wava._Kernel.sweep``, ``.constrained`` and ``.traceback``."""
    K = wava._Kernel
    saved, counts, inside = (K.sweep, K.constrained, K.traceback), [], []

    def sweep(kern, r_cols, P, bp, reverse=False):
        kind = "constrained" if inside else "backward" if reverse else "forward"
        counts[-1][kind] += 1
        counts[-1]["backward_words"] += P.shape[1] if kind == "backward" else 0
        return saved[0](kern, r_cols, P, bp, reverse)

    def constrained(kern, *args):
        inside.append(True)
        try:
            return saved[1](kern, *args)
        finally:
            inside.pop()

    def traceback(kern, *args):
        counts[-1]["traceback"] += 1
        return saved[2](kern, *args)

    K.sweep, K.constrained, K.traceback = sweep, constrained, traceback
    try:
        results = []
        for r in batches:
            counts.append(dict.fromkeys((*KINDS, "backward_words"), 0))
            results.append(wava_decode_many(trellis, r))
    finally:
        K.sweep, K.constrained, K.traceback = saved
    return results, counts


def bench(code, batches: list[np.ndarray]) -> dict:
    trellis = build_trellis(code)
    wava_decode_many(trellis, batches[0][:8])        # tables built before timing
    results, calls = kernel_calls(trellis, batches)
    iters = np.concatenate([res.iterations for res in results])
    words = len(iters)
    backward = sum(c["backward_words"] for c in calls)
    spec = code.spec
    k = trellis.k
    est = complexity_estimates(code.N, spec.n, k, spec.m, V)
    words_s = []
    for _ in range(RUNS):
        t0 = time.perf_counter()
        for r in batches:
            wava_decode_many(trellis, r)
        words_s.append(words / (time.perf_counter() - t0))
    ns_word = 1e9 / statistics.median(words_s)
    return {
        "params": {"m": spec.m, "k": k, "n": spec.n, "N": code.N, "K": code.K, "V": V,
                   "words_per_seed": len(batches[0])},
        "words_per_s": {"median": statistics.median(words_s), "runs": words_s},
        "iter_mean": float(iters.mean()),
        "backward_mean": backward / words,
        "sweeps_mean": float(iters.mean()) + backward / words,
        "iter_hist": np.bincount(iters, minlength=V + 1)[1:].tolist(),
        "kernel_calls_per_decode": {kind: [c[kind] for c in calls] for kind in KINDS},
        "converged_share": float(np.concatenate([res.converged for res in results]).mean()),
        "fallback_share": float(np.concatenate([res.fallback for res in results]).mean()),
        "kappa": {"F": est.kappa_f, "P": est.kappa_p, "M": est.kappa_m, "kind": est.kind},
        "ns_per_word": ns_word,
        "ns_per_kappa": ns_word / est.kappa_min,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(ROOT / "BENCH_wava_stop.json"))
    args = ap.parse_args(argv)
    code_m8 = _m8_code()
    pair = keyagree.pair_from_dict(json.loads((INPUTS / "pair_m6.json").read_text()))
    xs, shifted = _pair_words(pair)
    points = {"fec_m8": bench(code_m8, _fec_m8_words(code_m8)),
              "pair_m6_quantizer": bench(pair.vq_code, xs),
              "pair_m6_fec": bench(pair.fec_code, shifted)}
    _bench.write_report(args.out, __file__, RUNS, seeds=list(SEEDS), points=points)
    for name, p in points.items():
        print(f"{name}: {p['words_per_s']['median']:.0f} words/s, {p['iter_mean']:.3f} forward "
              f"{p['iter_hist']} + {p['backward_mean']:.3f} backward sweeps/word, converged "
              f"{p['converged_share']:.3f}, fallback {p['fallback_share']:.3f}, "
              f"{p['ns_per_kappa']:.3f} ns/kappa_{p['kappa']['kind']}")
        print("  kernel calls per decode: " + ", ".join(
            f"{kind} {statistics.mean(n):.2f}" for kind, n in p["kernel_calls_per_decode"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
