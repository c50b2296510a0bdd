"""The four benchmark workloads.

Each workload is a closed loop with one caller.  Operation i draws its inputs
from numpy's generator seeded with (workload seed, i), outside the timed
interval; the timed interval holds only calls into the package's public
functions; the outputs are checked afterwards, also untimed.  The first
``digest_ops`` operations always run, and the sha256 of their outputs is the
run's seeded-output digest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from nestedtbcc import design, encoder, gf2, keyagree, trellis, wava
from nestedtbcc.bounds import complexity_estimates

INPUTS = Path(__file__).resolve().parent / "inputs"

P_A = 0.0149      # identifier noise of the criterion-9 design point
P_C_M8 = 0.0365   # the m=8 row of table2_reference.csv
V = 4             # WavaConfig() default, used by every decoder call below


class InputDigestError(RuntimeError):
    """A committed input does not match the digest in MANIFEST.json."""


def load_input(name: str) -> dict:
    manifest = json.loads((INPUTS / "MANIFEST.json").read_text())
    raw = (INPUTS / name).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    if digest != manifest[name]["sha256"]:
        raise InputDigestError(f"{name}: sha256 {digest} != manifest {manifest[name]['sha256']}")
    return json.loads(raw)


def _complexity(N: int, n: int, k: int, m: int) -> dict:
    est = complexity_estimates(N, n, k, m, V)
    return {"N": N, "n": n, "k": k, "m": m, "V": V, "kappa_F": est.kappa_f,
            "kappa_P": est.kappa_p, "kappa_M": est.kappa_m, "kind": est.kind}


@dataclass
class Outcome:
    """Checked result of one operation: rows attempted and failed, quality
    errors that are not failures (block errors, key mismatches), and the
    bytes that go into the seeded-output digest."""

    attempted: int
    failed: int
    errors: int = 0
    blob: bytes = b""


class Workload:
    name = ""
    items_per_op = 1   # words or keys per operation, for throughput_per_s
    digest_ops = 1
    error_name = ""    # name of the quality rate built from Outcome.errors

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def make_input(self, i: int):
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> Outcome:
        raise NotImplementedError

    def failed_op(self) -> Outcome:
        return Outcome(self.items_per_op, self.items_per_op)

    def complexity(self) -> list[dict]:
        return []

    def rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng((self.seed, i))


class DesignM6(Workload):
    """design_nested at the criterion-9 geometry with reduced search sizes."""

    name = "design-m6"
    PARAMS = dict(p_A=P_A, target_pb=0.1, K_fec=32, n=3, m=6, w_max=20,
                  distortion_trials=64, workers=1)
    KEY_CHECKS = 200

    def setup(self) -> None:
        c = gf2.sample_uniform_matrix(3, 6, (self.seed,))
        trellis.build_trellis(encoder.TailbitingCode.unfrozen(
            encoder.EncoderSpec.rate_one_over_n(c), self.PARAMS["K_fec"]))

    def make_input(self, i: int):
        return (self.seed, i)

    def op(self, inp):
        return design.design_nested(seed=inp, **self.PARAMS)

    def check(self, inp, out) -> Outcome:
        pair, report = out
        ok = report.q_bar <= report.q_max and P_A <= report.p_c_sim
        rng = self.rng(inp[1])
        zero_w = gf2.BitVector.zeros(pair.K_vq - pair.K_fec)
        for _ in range(self.KEY_CHECKS):
            s = gf2.BitVector.from_bits(rng.integers(0, 2, pair.K_fec).tolist())
            ok &= (encoder.encode_tailbiting(pair.vq_code, pair.merge_message(s, zero_w))
                   == encoder.encode_tailbiting(pair.fec_code, s))
        blob = json.dumps(keyagree.pair_to_dict(pair), sort_keys=True).encode()
        return Outcome(1, 0 if ok else 1, blob=blob)


class FecM8(Workload):
    """Batch error correction on the (384, 128) m=8 code over BSC(0.0365)."""

    name = "fec-m8"
    items_per_op = 512
    error_name = "fec.fer"

    def setup(self) -> None:
        self.code = encoder.code_from_dict(load_input("code_m8.json"))
        if trellis.weight_enumerator(self.code, 0).a(0) != 1:
            raise ValueError("code_m8.json is not injective")
        self.trellis = trellis.build_trellis(self.code)

    def make_input(self, i: int):
        rng = self.rng(i)
        msgs = rng.integers(0, 2, size=(self.items_per_op, self.code.K), dtype=np.uint8)
        flips = (rng.random((self.items_per_op, self.code.N)) < P_C_M8).astype(np.uint8)
        return msgs, flips

    def op(self, inp):
        msgs, flips = inp
        r = encoder.encode_many(self.code, msgs) ^ flips
        return r, wava.wava_decode_many(self.trellis, r)

    def check(self, inp, out) -> Outcome:
        msgs, _ = inp
        r, res = out
        bad = (encoder.encode_many(self.code, res.msg_bits) != res.cw_bits).any(axis=1)
        bad |= (res.cw_bits ^ r).sum(axis=1, dtype=np.int64) != res.distance
        block_errors = int((res.msg_bits != msgs).any(axis=1).sum())
        blob = b"".join(np.ascontiguousarray(a).tobytes() for a in (
            res.msg_bits, res.distance, res.iterations, res.converged))
        return Outcome(len(msgs), int(bad.sum()), block_errors, blob)

    def complexity(self) -> list[dict]:
        s = self.code.spec
        return [_complexity(self.code.N, s.n, 1, s.m)]


class _KeyAgreeM6(Workload):
    error_name = "keyagree.key_error_rate"

    def setup(self) -> None:
        self.pair = keyagree.pair_from_dict(load_input("pair_m6.json"))
        trellis.build_trellis(self.pair.vq_code)
        trellis.build_trellis(self.pair.fec_code)
        # message index of each key and helper bit, found through the public merge
        k_s, k_w = self.pair.K_fec, self.pair.K_vq - self.pair.K_fec

        def position(s: int, w: int) -> int:
            merged = self.pair.merge_message(gf2.BitVector.from_int(s, k_s),
                                             gf2.BitVector.from_int(w, k_w))
            return merged.word.bit_length() - 1

        self.key_idx = np.array([position(1 << j, 0) for j in range(k_s)])
        self.helper_idx = np.array([position(0, 1 << j) for j in range(k_w)])

    def words(self, i: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
        rng = self.rng(i)
        x = (rng.random((rows, self.pair.N)) < 0.5).astype(np.uint8)
        flips = (rng.random((rows, self.pair.N)) < P_A).astype(np.uint8)
        return x, x ^ flips

    def enroll_distances(self, x: np.ndarray, s: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Hamming distance between x and the encoding of the enrolled message."""
        msgs = np.zeros((len(x), self.pair.K_vq), dtype=np.uint8)
        msgs[:, self.key_idx] = s
        msgs[:, self.helper_idx] = w
        cw = encoder.encode_many(self.pair.vq_code, msgs)
        return (cw ^ x).sum(axis=1, dtype=np.int64)

    def complexity(self) -> list[dict]:
        s = self.pair.vq_code.spec
        return [_complexity(self.pair.N, s.n, s.k, s.m), _complexity(self.pair.N, s.n, 1, s.m)]


class KeyAgreeBatchM6(_KeyAgreeM6):
    """sim-e2e path: enroll_many, BSC(p_A), reconstruct_many."""

    name = "keyagree-batch-m6"
    items_per_op = 1024

    def make_input(self, i: int):
        return self.words(i, self.items_per_op)

    def op(self, inp):
        x, y = inp
        s, w, dist = keyagree.enroll_many(self.pair, x)
        return s, w, dist, keyagree.reconstruct_many(self.pair, y, w)

    def check(self, inp, out) -> Outcome:
        x, _ = inp
        s, w, dist, s_hat = out
        if s_hat.shape != s.shape:
            return Outcome(len(x), len(x))
        bad = self.enroll_distances(x, s, w) != dist
        bad |= ~np.isin(s_hat, (0, 1)).all(axis=1)
        mismatches = int((s_hat != s).any(axis=1).sum())
        blob = b"".join(np.ascontiguousarray(a).tobytes() for a in (s, w, dist, s_hat))
        return Outcome(len(x), int(bad.sum()), mismatches, blob)


class KeyAgreeSingleM6(_KeyAgreeM6):
    """CLI enroll/reconstruct path: one BitVector word per call."""

    name = "keyagree-single-m6"
    digest_ops = 100

    def make_input(self, i: int):
        x, y = self.words(i, 1)
        return gf2.BitVector.from_bits(x[0].tolist()), gf2.BitVector.from_bits(y[0].tolist())

    def op(self, inp):
        x, y = inp
        rec = keyagree.enroll(self.pair, x)
        return rec, keyagree.reconstruct(self.pair, y, rec.helper_data)

    def check(self, inp, out) -> Outcome:
        x, _ = inp
        rec, s_hat = out
        s = rec.secret_key.to_numpy()[None, :]
        w = rec.helper_data.to_numpy()[None, :]
        dist = self.enroll_distances(x.to_numpy()[None, :], s, w)[0]
        ok = float(dist) / self.pair.N == rec.distortion and s_hat.n == self.pair.K_fec
        blob = repr((rec.secret_key.word, rec.helper_data.word, rec.distortion,
                     s_hat.word)).encode()
        return Outcome(1, 0 if ok else 1, int(s_hat != rec.secret_key), blob)


WORKLOADS = {w.name: w for w in (DesignM6, FecM8, KeyAgreeBatchM6, KeyAgreeSingleM6)}
