"""State-space convolutional encoder with tailbiting and time-variant freezing.

The encoder is the single-shift-register machine

    c_t     = s_t . C^T + u_t . D^T
    s_{t+1} = s_t . A^T + u_t . B^T

with A the m x m down-shift matrix, B = (e1^T | B~) and D = (0 | D~), so the
machine is fully described by (B~, C, D~).  Indexing is 0-based throughout the
code: input 0 is the register input (the one that may never be frozen),
delay cell 0 is the cell fed by it.

One transition table per spec (EncoderSpec.transitions: next state and
output per (state, input)) serves the encoder, the trellis and free_distance,
and encode_many is the one encoder; encode_tailbiting wraps it for one message.
Tables derived from a spec or a code are cached properties of that object,
computed on first read and read-only.
Because A^m = 0 the wrap-around state depends only on the last m inputs, so
the first of its two passes runs only the last m sections.

Packed conventions used everywhere in this package:

* state int: bit j  <-> content of delay cell j
* input int: bit j  <-> input j of the current step
* output int: bit i <-> output i of the current step
* codeword bit index t*n + i <-> output i of section t (time-major)

_bits_to_section_ints and _ints_to_bits convert between bit rows in this
layout and per-section ints, for codewords (width n) and inputs (width k).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .gf2 import BitMatrix, BitVector, Gf2ShapeError


class EncoderSpecError(ValueError):
    """Raised for malformed encoder specifications or schedules."""


@dataclass(frozen=True)
class EncoderSpec:
    """An (m, k, n) single-shift-register encoder given by B~, C, D~."""

    m: int
    k: int
    n: int
    B_tilde: BitMatrix  # m x (k-1)
    C: BitMatrix        # n x m
    D_tilde: BitMatrix  # n x (k-1)

    def __post_init__(self) -> None:
        if self.m < 1 or self.k < 1 or self.n < 1:
            raise EncoderSpecError(f"need m,k,n >= 1, got m={self.m} k={self.k} n={self.n}")
        if self.B_tilde.shape != (self.m, self.k - 1):
            raise EncoderSpecError(
                f"B_tilde must be {self.m}x{self.k - 1}, got {self.B_tilde.shape}"
            )
        if self.C.shape != (self.n, self.m):
            raise EncoderSpecError(f"C must be {self.n}x{self.m}, got {self.C.shape}")
        if self.D_tilde.shape != (self.n, self.k - 1):
            raise EncoderSpecError(
                f"D_tilde must be {self.n}x{self.k - 1}, got {self.D_tilde.shape}"
            )

    @staticmethod
    def from_lists(
        m: int,
        k: int,
        n: int,
        b_tilde: Sequence[Sequence[int]],
        c: Sequence[Sequence[int]],
        d_tilde: Sequence[Sequence[int]],
    ) -> "EncoderSpec":
        return EncoderSpec(
            m=m,
            k=k,
            n=n,
            B_tilde=BitMatrix.from_rows(list(b_tilde), k - 1),
            C=BitMatrix.from_rows(list(c), m),
            D_tilde=BitMatrix.from_rows(list(d_tilde), k - 1),
        )

    @staticmethod
    def rate_one_over_n(c: BitMatrix) -> "EncoderSpec":
        """k=1 spec (empty B~, D~) from an observation matrix C (n x m)."""
        n, m = c.shape
        return EncoderSpec(
            m=m, k=1, n=n,
            B_tilde=BitMatrix.zeros(m, 0),
            C=c,
            D_tilde=BitMatrix.zeros(n, 0),
        )

    @cached_property
    def transitions(self) -> tuple[np.ndarray, np.ndarray]:
        """(next_state, out_int), read-only int64 [2^m, 2^k]: the machine's one
        transition table, next_state[s, u] = s.A^T + u.B^T and
        out_int[s, u] = s.C^T + u.D^T as packed ints."""
        m, k, n = self.m, self.k, self.n
        # column j of B / D as a packed int over rows
        bcols = [1] + [self.B_tilde.column(j).word for j in range(k - 1)]
        dcols = [0] + [self.D_tilde.column(j).word for j in range(k - 1)]
        bu = np.zeros(1 << k, dtype=np.int64)
        du = np.zeros(1 << k, dtype=np.int64)
        for u in range(1 << k):
            for j in range(k):
                if (u >> j) & 1:
                    bu[u] ^= bcols[j]
                    du[u] ^= dcols[j]
        states = np.arange(1 << m, dtype=np.int64)
        state_out = np.zeros(1 << m, dtype=np.int64)
        for i in range(n):
            parity = np.bitwise_count(states & self.C.row_words[i]) & 1
            state_out |= parity.astype(np.int64) << i
        next_state = ((states[:, None] << 1) & ((1 << m) - 1)) ^ bu[None, :]
        out_int = state_out[:, None] ^ du[None, :]
        for a in (next_state, out_int):
            a.setflags(write=False)
        return next_state, out_int


@dataclass(frozen=True)
class FreezingSchedule:
    """Per-time-step sets of input indices pinned to 0 (index 0 never frozen)."""

    ell: int
    frozen: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if self.ell < 1:
            raise EncoderSpecError(f"need ell >= 1, got {self.ell}")
        if len(self.frozen) != self.ell:
            raise EncoderSpecError(
                f"schedule has {len(self.frozen)} entries for ell={self.ell}"
            )
        for t, fs in enumerate(self.frozen):
            if 0 in fs:
                raise EncoderSpecError(f"input 0 frozen at t={t}; the register input stays free")
            if any(type(i) is not int or i < 1 for i in fs):
                raise EncoderSpecError(f"input indices at t={t} must be positive integers: {fs}")

    @staticmethod
    def from_lists(ell: int, frozen: Sequence[Sequence[int]]) -> "FreezingSchedule":
        return FreezingSchedule(ell, tuple(frozenset(f) for f in frozen))


@dataclass(frozen=True)
class TailbitingCode:
    """A tailbiting block code: encoder spec + freezing schedule over ell sections."""

    spec: EncoderSpec
    schedule: FreezingSchedule

    def __post_init__(self) -> None:
        if self.schedule.ell < self.spec.m:
            raise EncoderSpecError(
                f"ell={self.schedule.ell} < m={self.spec.m}: the wrap-around state "
                "would depend on the start state"
            )
        for t, fs in enumerate(self.schedule.frozen):
            bad = [i for i in fs if i >= self.spec.k]
            if bad:
                raise EncoderSpecError(f"frozen indices {bad} out of range for k={self.spec.k} at t={t}")

    @staticmethod
    def unfrozen(spec: EncoderSpec, ell: int) -> "TailbitingCode":
        return TailbitingCode(spec, FreezingSchedule(ell, (frozenset(),) * ell))

    @property
    def ell(self) -> int:
        return self.schedule.ell

    @property
    def N(self) -> int:
        return self.schedule.ell * self.spec.n

    @cached_property
    def K(self) -> int:
        return sum(self.spec.k - len(f) for f in self.schedule.frozen)

    @cached_property
    def input_index(self) -> np.ndarray:
        """Read-only [K]: message bit j is input bit t*k + i of the [ell*k]
        section-input row (time-major, unfrozen input index i ascending)."""
        k = self.spec.k
        idx = np.array([t * k + i for t, fs in enumerate(self.schedule.frozen)
                        for i in range(k) if i not in fs], dtype=np.int64)
        idx.setflags(write=False)
        return idx


def _bit_rows(bits, name: str, width: int, width_name: str) -> np.ndarray:
    """bits as a bool [B, width] array: the one check of every batch entry point's bits.
    ValueError, naming the argument, when an entry is not 0 or 1 (tested before the
    cast, which would wrap 256 to 0), when bits are not 2-D or a row is not width long.
    A bool array passes the entry test by its type and comes back as is."""
    bits = np.asarray(bits)
    if bits.dtype != bool:
        if ((bits != 0) & (bits != 1)).any():
            raise ValueError(f"{name} bits may hold only 0 and 1")
        bits = bits.astype(np.uint8, copy=False).view(bool)
    if bits.ndim != 2:
        raise ValueError(f"{name} bits must be [B, {width_name}], got shape {bits.shape}")
    if bits.shape[1] != width:
        raise ValueError(f"{name} length {bits.shape[1]} != {width_name}")
    return bits


def _bits_to_section_ints(bits: np.ndarray, n: int) -> np.ndarray:
    """Time-major bits [B, ell*n] -> [B, ell] in the smallest unsigned type that holds
    2^n - 1 (uint8 for n <= 8): bit i of entry t is bit t*n + i."""
    B, N = bits.shape
    dtype = np.min_scalar_type((1 << n) - 1)
    ints = np.zeros((B, N // n), dtype=dtype)
    for i in range(n):
        ints |= bits[:, i::n].astype(dtype) << i
    return ints


def _ints_to_bits(ints: np.ndarray, n: int) -> np.ndarray:
    """Inverse of _bits_to_section_ints: ints [B, ell] -> uint8 bits [B, ell*n]."""
    B, ell = ints.shape
    bits = np.zeros((B, ell * n), dtype=np.uint8)
    for i in range(n):
        bits[:, i::n] = ((ints >> i) & 1).astype(np.uint8)
    return bits


def encode_tailbiting(code: TailbitingCode, message: BitVector) -> BitVector:
    """Encode one message (a thin wrapper over encode_many)."""
    return BitVector.from_numpy(encode_many(code, message.to_numpy()[None, :])[0])


def encode_many(code: TailbitingCode, messages: np.ndarray) -> np.ndarray:
    """Tailbiting encoding of a batch of messages: uint8 [B, K] -> uint8 [B, N].

    Pass 1 runs the last m sections from the zero state to find the
    wrap-around state (A^m = 0), pass 2 encodes all ell sections from it, and
    the end state must equal the start state.
    """
    messages = _bit_rows(messages, "message", code.K, f"K={code.K}")
    spec = code.spec
    k, ell, B = spec.k, code.ell, messages.shape[0]
    next_state, out_int = (a.ravel() for a in spec.transitions)
    bits_in = np.zeros((B, ell * k), dtype=np.uint8)
    bits_in[:, code.input_index] = messages
    # [ell, B] input ints, widened once so that no section mixes integer types;
    # edge (s, u) is entry s*2^k + u of the raveled tables
    u_ints = _bits_to_section_ints(bits_in, k).T.astype(np.int64)

    wrap = np.zeros(B, dtype=np.int64)
    for t in range(ell - spec.m, ell):
        wrap = next_state[(wrap << k) | u_ints[t]]
    s = wrap
    outs = np.empty((ell, B), dtype=np.int64)
    for t in range(ell):
        e = (s << k) | u_ints[t]
        outs[t] = out_int[e]
        s = next_state[e]
    if not np.array_equal(s, wrap):
        raise AssertionError("tailbiting failed: end state differs from start state")
    return _ints_to_bits(outs.T, spec.n)


def append_input_columns(spec: EncoderSpec, b_block: BitMatrix, d_block: BitMatrix) -> EncoderSpec:
    """Add c inputs whose taps are the columns of b_block (m x c) and d_block (n x c),
    in column order: the old code becomes a subcode."""
    c = b_block.ncols
    if b_block.shape != (spec.m, c) or d_block.shape != (spec.n, c):
        raise Gf2ShapeError(f"need b_block {spec.m}xc and d_block {spec.n}xc, "
                            f"got {b_block.shape} and {d_block.shape}")
    def widen(mat: BitMatrix, block: BitMatrix) -> BitMatrix:  # block's columns come last
        return BitMatrix(tuple(w | b << mat.ncols for w, b in zip(mat.row_words, block.row_words)),
                         mat.ncols + c)

    return EncoderSpec(m=spec.m, k=spec.k + c, n=spec.n, B_tilde=widen(spec.B_tilde, b_block),
                       C=spec.C, D_tilde=widen(spec.D_tilde, d_block))


def fec_restriction(spec: EncoderSpec) -> EncoderSpec:
    """The k=1 encoder obtained by pinning every input but the register input."""
    return EncoderSpec.rate_one_over_n(spec.C)


# ---------------------------------------------------------------------------
# JSON persistence (the on-disk format used by the CLI)
# ---------------------------------------------------------------------------

def code_to_dict(code: TailbitingCode) -> dict:
    return {
        "m": code.spec.m,
        "n": code.spec.n,
        "k": code.spec.k,
        "B_tilde": code.spec.B_tilde.to_lists(),
        "C": code.spec.C.to_lists(),
        "D_tilde": code.spec.D_tilde.to_lists(),
        "ell": code.ell,
        "frozen": [sorted(f) for f in code.schedule.frozen],
    }


def code_from_dict(d: dict) -> TailbitingCode:
    try:
        m, k, n, ell = (d[f] for f in ("m", "k", "n", "ell"))
        if any(type(v) is not int for v in (m, k, n, ell)):
            raise EncoderSpecError(f"non-integer m, k, n or ell: {m!r}, {k!r}, {n!r}, {ell!r}")
        spec = EncoderSpec.from_lists(
            m=m, k=k, n=n, b_tilde=d["B_tilde"], c=d["C"], d_tilde=d["D_tilde"],
        )
        schedule = FreezingSchedule.from_lists(ell, d["frozen"])
        return TailbitingCode(spec, schedule)
    except EncoderSpecError:
        raise
    except KeyError as exc:
        raise EncoderSpecError(f"code spec missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise EncoderSpecError(f"malformed code spec: {exc}") from exc


def write_json(obj, fh) -> None:
    """obj as strict JSON (a non-finite float is a ValueError) indented by two, then a
    newline: every JSON file the package writes."""
    json.dump(obj, fh, indent=2, allow_nan=False)
    fh.write("\n")


def save_code(code: TailbitingCode, path: str) -> None:
    with open(path, "w") as fh:
        write_json(code_to_dict(code), fh)


def load_code(path: str) -> TailbitingCode:
    with open(path) as fh:
        return code_from_dict(json.load(fh))
