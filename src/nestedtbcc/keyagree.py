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
from functools import cached_property

import numpy as np

from .encoder import (
    EncoderSpecError,
    TailbitingCode,
    _bit_rows,
    code_from_dict,
    code_to_dict,
    encode_many,
    fec_restriction,
    write_json,
)
from .gf2 import BitVector
from .trellis import build_trellis
from .wava import wava_decode_many


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

    @cached_property
    def fec_code(self) -> TailbitingCode:
        return TailbitingCode.unfrozen(fec_restriction(self.vq_code.spec), self.vq_code.ell)

    @cached_property
    def key_index(self) -> np.ndarray:
        """Read-only [K_fec]: the message bits that carry the key (input 0 of each section)."""
        return _read_only(np.flatnonzero(self.vq_code.input_index % self.vq_code.spec.k == 0))

    @cached_property
    def helper_index(self) -> np.ndarray:
        """Read-only [K_vq - K_fec]: the message bits that carry helper data."""
        return _read_only(np.flatnonzero(self.vq_code.input_index % self.vq_code.spec.k != 0))

    def merge_message(self, s: BitVector, w: BitVector) -> BitVector:
        key_idx, helper_idx = self.key_index, self.helper_index
        if s.n != len(key_idx) or w.n != len(helper_idx):
            raise ValueError(
                f"expected key length {len(key_idx)} and helper length {len(helper_idx)}, "
                f"got {s.n} and {w.n}"
            )
        bits = np.zeros(self.K_vq, dtype=np.uint8)
        bits[key_idx] = s.to_numpy()
        bits[helper_idx] = w.to_numpy()
        return BitVector.from_numpy(bits)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


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


def enroll(pair: NestedCodePair, x: BitVector) -> EnrollmentRecord:
    """Quantize x on the high-rate code and split the message into (S, W)."""
    s_bits, w_bits, dist = enroll_many(pair, x.to_numpy()[None, :])
    return EnrollmentRecord(
        secret_key=BitVector.from_numpy(s_bits[0]),
        helper_data=BitVector.from_numpy(w_bits[0]),
        distortion=float(dist[0]) / pair.N,
    )


def enroll_many(
    pair: NestedCodePair, x_bits: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch enrollment at the decoder's sweep cap (wava.SWEEPS): returns (key
    bits [B,K_fec], helper bits [B,K_w], quantization Hamming distances [B])."""
    x_bits = _bit_rows(x_bits, "identifier", pair.N, f"N={pair.N}")
    trellis = build_trellis(pair.vq_code)
    res = wava_decode_many(trellis, x_bits)
    return res.msg_bits[:, pair.key_index], res.msg_bits[:, pair.helper_index], res.distance


def reconstruct(pair: NestedCodePair, y: BitVector, w: BitVector) -> BitVector:
    """Recover the key from the noisy measurement y and helper data W."""
    s_bits = reconstruct_many(pair, y.to_numpy()[None, :], w.to_numpy()[None, :])
    return BitVector.from_numpy(s_bits[0])


def reconstruct_many(
    pair: NestedCodePair, y_bits: np.ndarray, w_bits: np.ndarray
) -> np.ndarray:
    """Batch reconstruction at the decoder's sweep cap (wava.SWEEPS): returns
    decoded key bits [B, K_fec]."""
    y_bits = _bit_rows(y_bits, "measurement", pair.N, f"N={pair.N}")
    helper_len = pair.K_vq - pair.K_fec
    w_bits = _bit_rows(w_bits, "helper", helper_len, f"K_vq - K_fec = {helper_len}")
    B = y_bits.shape[0]
    if w_bits.shape[0] != B:
        raise ValueError(f"{B} measurements but {w_bits.shape[0]} helper rows")
    msgs = np.zeros((B, pair.K_vq), dtype=bool)
    msgs[:, pair.helper_index] = w_bits
    shifted = y_bits ^ encode_many(pair.vq_code, msgs).view(bool)
    res = wava_decode_many(build_trellis(pair.fec_code), shifted)
    return res.msg_bits


def enroll_cs(pair: NestedCodePair, x: BitVector, s_prime: BitVector) -> CsEnrollmentRecord:
    """Chosen-secret enrollment: one-time-pad the chosen key onto the
    generated one and store both helper parts."""
    if s_prime.n != pair.K_fec:
        raise ValueError(f"chosen key length {s_prime.n} != K_fec={pair.K_fec}")
    rec = enroll(pair, x)
    return CsEnrollmentRecord(helper_data=rec.helper_data, pad=rec.secret_key ^ s_prime)


def reconstruct_cs(pair: NestedCodePair, y: BitVector, record: CsEnrollmentRecord) -> BitVector:
    s_hat = reconstruct(pair, y, record.helper_data)
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
        write_json(pair_to_dict(pair), fh)


def load_pair(path: str) -> NestedCodePair:
    with open(path) as fh:
        return pair_from_dict(json.load(fh))
