"""Generated-secret and chosen-secret key agreement over a nested code pair.

Enrollment quantizes the identifier word to the nearest high-rate codeword;
the bits feeding the shift register become the secret key and the remaining
unfrozen input bits become the public helper data.  Reconstruction subtracts
the helper offset codeword and error-corrects on the low-rate subcode:

    encode(s, w) = encode(s, 0) xor encode(0, w)

so y xor encode(0, w) is the key codeword corrupted by quantization noise
plus measurement noise, decodable on the cheaper k=1 trellis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .encoder import (
    EncoderSpecError,
    FreezingSchedule,
    TailbitingCode,
    _layout,
    code_from_dict,
    code_to_dict,
    encode_many,
    encode_tailbiting,
    fec_restriction,
)
from .gf2 import BitVector
from .trellis import build_trellis
from .wava import WavaConfig, wava_decode_many


@dataclass(frozen=True)
class NestedCodePair:
    """A vector-quantizer code with its key-carrying error-correction subcode.

    Input 0 of the encoder carries the key (one bit per section); all other
    unfrozen inputs carry helper data.  Restricting inputs 1..k-1 to zero
    yields the subcode exactly.
    """

    vq_code: TailbitingCode
    provenance: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.vq_code.spec.k < 2:
            raise EncoderSpecError("a nested pair needs k >= 2 (no helper inputs otherwise)")
        if self.K_vq <= self.K_fec:
            raise EncoderSpecError(
                f"K_vq={self.K_vq} must exceed K_fec={self.K_fec}; too many frozen inputs"
            )

    @property
    def N(self) -> int:
        return self.vq_code.N

    @property
    def K_fec(self) -> int:
        return self.vq_code.ell

    @property
    def K_vq(self) -> int:
        return self.vq_code.K

    @property
    def fec_code(self) -> TailbitingCode:
        return _fec_code(self.vq_code)

    def split_message(self, msg: BitVector) -> tuple[BitVector, BitVector]:
        """Message -> (key bits, helper bits), time-major within each part."""
        key_idx, helper_idx = _role_indices(self.vq_code)
        s = 0
        for j, i in enumerate(key_idx):
            s |= ((msg.word >> int(i)) & 1) << j
        w = 0
        for j, i in enumerate(helper_idx):
            w |= ((msg.word >> int(i)) & 1) << j
        return BitVector(s, len(key_idx)), BitVector(w, len(helper_idx))

    def merge_message(self, s: BitVector, w: BitVector) -> BitVector:
        key_idx, helper_idx = _role_indices(self.vq_code)
        if s.n != len(key_idx) or w.n != len(helper_idx):
            raise ValueError(
                f"expected key length {len(key_idx)} and helper length {len(helper_idx)}, "
                f"got {s.n} and {w.n}"
            )
        word = 0
        for j, i in enumerate(key_idx):
            word |= ((s.word >> j) & 1) << int(i)
        for j, i in enumerate(helper_idx):
            word |= ((w.word >> j) & 1) << int(i)
        return BitVector(word, self.K_vq)


@lru_cache(maxsize=None)
def _fec_code(vq_code: TailbitingCode) -> TailbitingCode:
    spec = fec_restriction(vq_code.spec)
    return TailbitingCode(spec, FreezingSchedule.none(vq_code.ell))


@lru_cache(maxsize=None)
def _role_indices(vq_code: TailbitingCode) -> tuple[np.ndarray, np.ndarray]:
    """Message-bit indices of key bits (input 0 per section) and helper bits."""
    positions, offsets = _layout(vq_code)
    key, helper = [], []
    for t in range(vq_code.ell):
        for j, pos in enumerate(positions[t]):
            (key if pos == 0 else helper).append(offsets[t] + j)
    k = np.array(key, dtype=np.int64)
    h = np.array(helper, dtype=np.int64)
    k.setflags(write=False)
    h.setflags(write=False)
    return k, h


@dataclass(frozen=True)
class EnrollmentRecord:
    """Key and public helper data from one enrollment; the helper is the only
    value meant to be stored."""

    secret_key: BitVector
    helper_data: BitVector
    distortion: float


@dataclass(frozen=True)
class CsEnrollmentRecord:
    """Helper data of the chosen-secret model: (W, S xor S')."""

    helper_data: BitVector
    pad: BitVector

    @property
    def w_prime(self) -> BitVector:
        """The full stored value (W, S xor S'), K_vq bits."""
        return self.helper_data.concat(self.pad)


def enroll(pair: NestedCodePair, x: BitVector, cfg: WavaConfig | None = None) -> EnrollmentRecord:
    """Quantize x on the high-rate code and split the message into (S, W)."""
    if x.n != pair.N:
        raise ValueError(f"identifier length {x.n} != N={pair.N}")
    s_bits, w_bits, dist = enroll_many(pair, x.to_numpy()[None, :], cfg)
    return EnrollmentRecord(
        secret_key=BitVector.from_bits(s_bits[0].tolist()),
        helper_data=BitVector.from_bits(w_bits[0].tolist()),
        distortion=float(dist[0]) / pair.N,
    )


def enroll_many(
    pair: NestedCodePair, x_bits: np.ndarray, cfg: WavaConfig | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch enrollment: returns (key bits [B,K_fec], helper bits [B,K_w],
    quantization Hamming distances [B])."""
    trellis = build_trellis(pair.vq_code)
    res = wava_decode_many(trellis, x_bits, cfg)
    key_idx, helper_idx = _role_indices(pair.vq_code)
    return res.msg_bits[:, key_idx], res.msg_bits[:, helper_idx], res.distance


def helper_offset_codeword(pair: NestedCodePair, w: BitVector) -> BitVector:
    """encode(0, W): the codeword carrying only the helper bits."""
    zero_key = BitVector.zeros(pair.K_fec)
    return encode_tailbiting(pair.vq_code, pair.merge_message(zero_key, w))


def reconstruct(
    pair: NestedCodePair, y: BitVector, w: BitVector, cfg: WavaConfig | None = None
) -> BitVector:
    """Recover the key from the noisy measurement y and helper data W."""
    if y.n != pair.N:
        raise ValueError(f"measurement length {y.n} != N={pair.N}")
    helper_len = pair.K_vq - pair.K_fec
    if w.n != helper_len:
        raise ValueError(f"helper length {w.n} != K_vq - K_fec = {helper_len}")
    s_bits = reconstruct_many(pair, y.to_numpy()[None, :], w.to_numpy()[None, :], cfg)
    return BitVector.from_bits(s_bits[0].tolist())


def reconstruct_many(
    pair: NestedCodePair, y_bits: np.ndarray, w_bits: np.ndarray, cfg: WavaConfig | None = None
) -> np.ndarray:
    """Batch reconstruction: returns decoded key bits [B, K_fec]."""
    y_bits = np.asarray(y_bits, dtype=np.uint8)
    w_bits = np.asarray(w_bits, dtype=np.uint8)
    B = y_bits.shape[0]
    key_idx, helper_idx = _role_indices(pair.vq_code)
    msgs = np.zeros((B, pair.K_vq), dtype=np.uint8)
    msgs[:, helper_idx] = w_bits
    offsets = encode_many(pair.vq_code, msgs)
    shifted = y_bits ^ offsets
    fec_trellis = build_trellis(pair.fec_code)
    res = wava_decode_many(fec_trellis, shifted, cfg)
    return res.msg_bits


def enroll_cs(
    pair: NestedCodePair, x: BitVector, s_prime: BitVector, cfg: WavaConfig | None = None
) -> CsEnrollmentRecord:
    """Chosen-secret enrollment: one-time-pad the chosen key onto the
    generated one and store both helper parts."""
    if s_prime.n != pair.K_fec:
        raise ValueError(f"chosen key length {s_prime.n} != K_fec={pair.K_fec}")
    rec = enroll(pair, x, cfg)
    return CsEnrollmentRecord(helper_data=rec.helper_data, pad=rec.secret_key ^ s_prime)


def reconstruct_cs(
    pair: NestedCodePair, y: BitVector, record: CsEnrollmentRecord, cfg: WavaConfig | None = None
) -> BitVector:
    s_hat = reconstruct(pair, y, record.helper_data, cfg)
    return s_hat ^ record.pad


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def pair_to_dict(pair: NestedCodePair) -> dict:
    d = code_to_dict(pair.vq_code)
    d["provenance"] = pair.provenance
    return d


def pair_from_dict(d: dict) -> NestedCodePair:
    return NestedCodePair(code_from_dict(d), d.get("provenance", {}))


def save_pair(pair: NestedCodePair, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(pair_to_dict(pair), fh, indent=2)
        fh.write("\n")


def load_pair(path: str) -> NestedCodePair:
    with open(path) as fh:
        return pair_from_dict(json.load(fh))


def read_bit_lines(path: str) -> list[BitVector]:
    """Text format: one 0/1 sequence per newline-terminated line."""
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(BitVector.from_bits(int(c) for c in line))
    return out


def write_bit_lines(path: str, vectors: list[BitVector]) -> None:
    with open(path, "w") as fh:
        for v in vectors:
            fh.write("".join(str(b) for b in v))
            fh.write("\n")
