"""State-space convolutional encoder with tailbiting and time-variant freezing.

The encoder is the single-shift-register machine

    c_t     = s_t . C^T + u_t . D^T
    s_{t+1} = s_t . A^T + u_t . B^T

with A the m x m down-shift matrix, B = (e1^T | B~) and D = (0 | D~), so the
machine is fully described by (B~, C, D~).  Indexing is 0-based throughout the
code: input 0 is the register input (the one that may never be frozen or
removed), delay cell 0 is the cell fed by it.

Packed conventions used everywhere in this package:

* state int: bit j  <-> content of delay cell j
* input int: bit j  <-> input j of the current step
* output int: bit i <-> output i of the current step
* codeword bit index t*n + i <-> output i of section t (time-major)
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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


@lru_cache(maxsize=None)
def _tables(spec: EncoderSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(bu, du, state_out): per input int the B^T/D^T products, per state s.C^T."""
    m, k, n = spec.m, spec.k, spec.n
    # column j of B / D as a packed int over rows
    bcols = [1] + [spec.B_tilde.column(j).word for j in range(k - 1)]
    dcols = [0] + [spec.D_tilde.column(j).word for j in range(k - 1)]
    bu = np.zeros(1 << k, dtype=np.int64)
    du = np.zeros(1 << k, dtype=np.int64)
    for u in range(1 << k):
        acc_b = 0
        acc_d = 0
        for j in range(k):
            if (u >> j) & 1:
                acc_b ^= bcols[j]
                acc_d ^= dcols[j]
        bu[u] = acc_b
        du[u] = acc_d
    states = np.arange(1 << m, dtype=np.uint64)
    state_out = np.zeros(1 << m, dtype=np.int64)
    for i in range(n):
        row = np.uint64(spec.C.row_words[i])
        parity = (np.bitwise_count(states & row) & 1).astype(np.int64)
        state_out |= parity << i
    for a in (bu, du, state_out):
        a.setflags(write=False)
    return bu, du, state_out


def step(spec: EncoderSpec, s_t: BitVector, u_t: BitVector) -> tuple[BitVector, BitVector]:
    """One encoder clock: returns (c_t, s_{t+1})."""
    if s_t.n != spec.m:
        raise Gf2ShapeError(f"state length {s_t.n} != m={spec.m}")
    if u_t.n != spec.k:
        raise Gf2ShapeError(f"input length {u_t.n} != k={spec.k}")
    bu, du, state_out = _tables(spec)
    c = int(state_out[s_t.word]) ^ int(du[u_t.word])
    mask = (1 << spec.m) - 1
    s_next = ((s_t.word << 1) & mask) ^ int(bu[u_t.word])
    return BitVector(c, spec.n), BitVector(s_next, spec.m)


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
            if any(i < 0 for i in fs):
                raise EncoderSpecError(f"negative input index at t={t}")

    @staticmethod
    def none(ell: int) -> "FreezingSchedule":
        return FreezingSchedule(ell, (frozenset(),) * ell)

    @staticmethod
    def from_lists(ell: int, frozen: Sequence[Sequence[int]]) -> "FreezingSchedule":
        return FreezingSchedule(ell, tuple(frozenset(f) for f in frozen))

    def effective_dim(self, k: int) -> int:
        return sum(k - len(f) for f in self.frozen)

    def freeze_count(self) -> int:
        return sum(len(f) for f in self.frozen)


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
        return TailbitingCode(spec, FreezingSchedule.none(ell))

    @property
    def ell(self) -> int:
        return self.schedule.ell

    @property
    def N(self) -> int:
        return self.schedule.ell * self.spec.n

    @property
    def K(self) -> int:
        return self.schedule.effective_dim(self.spec.k)


@lru_cache(maxsize=None)
def _layout(code: TailbitingCode) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Per-section unfrozen input positions (ascending) and message-bit offsets."""
    positions = []
    offsets = []
    off = 0
    for t in range(code.ell):
        p = tuple(i for i in range(code.spec.k) if i not in code.schedule.frozen[t])
        positions.append(p)
        offsets.append(off)
        off += len(p)
    return tuple(positions), tuple(offsets)


def message_to_inputs(code: TailbitingCode, message: BitVector) -> list[int]:
    """Spread message bits over sections: time-major, input index ascending."""
    if message.n != code.K:
        raise Gf2ShapeError(f"message length {message.n} != K={code.K}")
    positions, offsets = _layout(code)
    u_ints = []
    for t in range(code.ell):
        u = 0
        for j, pos in enumerate(positions[t]):
            u |= ((message.word >> (offsets[t] + j)) & 1) << pos
        u_ints.append(u)
    return u_ints


def inputs_to_message(code: TailbitingCode, u_ints: Sequence[int]) -> BitVector:
    """Inverse of message_to_inputs (frozen positions must hold 0)."""
    positions, offsets = _layout(code)
    word = 0
    for t in range(code.ell):
        for j, pos in enumerate(positions[t]):
            word |= ((u_ints[t] >> pos) & 1) << (offsets[t] + j)
    return BitVector(word, code.K)


def _run(spec: EncoderSpec, start_state: int, u_ints: Sequence[int]) -> tuple[list[int], int]:
    bu, du, state_out = _tables(spec)
    mask = (1 << spec.m) - 1
    s = start_state
    outs = []
    for u in u_ints:
        outs.append(int(state_out[s]) ^ int(du[u]))
        s = ((s << 1) & mask) ^ int(bu[u])
    return outs, s


def encode_tailbiting(code: TailbitingCode, message: BitVector) -> BitVector:
    """Encode with the two-pass tailbiting method.

    A is nilpotent (A^ell = 0 for ell >= m), so the end state does not depend
    on the start state: pass 1 from the zero state yields the wrap-around
    state, pass 2 re-encodes from it, giving s_1 = s_{ell+1}.
    """
    u_ints = message_to_inputs(code, message)
    _, wrap = _run(code.spec, 0, u_ints)
    outs, end = _run(code.spec, wrap, u_ints)
    if end != wrap:
        raise AssertionError("tailbiting failed: end state differs from start state")
    word = 0
    n = code.spec.n
    for t, c in enumerate(outs):
        word |= c << (t * n)
    return BitVector(word, code.N)


def encode_many(code: TailbitingCode, messages: np.ndarray) -> np.ndarray:
    """Vectorized tailbiting encoding of a batch of messages.

    messages: uint8 array [B, K] -> uint8 array [B, N].  Bit order matches
    encode_tailbiting exactly.
    """
    messages = np.asarray(messages, dtype=np.uint8)
    if messages.ndim != 2 or messages.shape[1] != code.K:
        raise Gf2ShapeError(f"messages must be [B, {code.K}], got {messages.shape}")
    spec = code.spec
    bu, du, state_out = _tables(spec)
    positions, offsets = _layout(code)
    B = messages.shape[0]
    mask = (1 << spec.m) - 1

    u_ints = np.zeros((B, code.ell), dtype=np.int64)
    for t in range(code.ell):
        for j, pos in enumerate(positions[t]):
            u_ints[:, t] |= messages[:, offsets[t] + j].astype(np.int64) << pos

    def sweep(start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s = start.copy()
        outs = np.zeros((B, code.ell), dtype=np.int64)
        for t in range(code.ell):
            u = u_ints[:, t]
            outs[:, t] = state_out[s] ^ du[u]
            s = ((s << 1) & mask) ^ bu[u]
        return outs, s

    _, wrap = sweep(np.zeros(B, dtype=np.int64))
    outs, _ = sweep(wrap)

    n = spec.n
    bits = np.zeros((B, code.N), dtype=np.uint8)
    for i in range(n):
        bits[:, i::n] = (outs >> i) & 1
    return bits


def remove_input_column(spec: EncoderSpec, i: int) -> EncoderSpec:
    """Drop input i (0-based, never 0): the new code is a subcode of the old."""
    if spec.k < 2:
        raise EncoderSpecError("cannot remove an input from a k=1 encoder")
    if i == 0:
        raise EncoderSpecError("input 0 feeds the shift register and is not removable")
    if not 1 <= i < spec.k:
        raise EncoderSpecError(f"input index {i} out of range 1..{spec.k - 1}")
    bt = spec.B_tilde.to_lists()
    dt = spec.D_tilde.to_lists()
    for row in bt:
        del row[i - 1]
    for row in dt:
        del row[i - 1]
    return EncoderSpec(
        m=spec.m, k=spec.k - 1, n=spec.n,
        B_tilde=BitMatrix.from_rows(bt, spec.k - 2),
        C=spec.C,
        D_tilde=BitMatrix.from_rows(dt, spec.k - 2),
    )


def append_input_column(spec: EncoderSpec, b_col: BitVector, d_col: BitVector) -> EncoderSpec:
    """Add one input with taps (b_col, d_col): the old code becomes a subcode."""
    if b_col.n != spec.m:
        raise Gf2ShapeError(f"b_col length {b_col.n} != m={spec.m}")
    if d_col.n != spec.n:
        raise Gf2ShapeError(f"d_col length {d_col.n} != n={spec.n}")
    bt = spec.B_tilde.to_lists()
    dt = spec.D_tilde.to_lists()
    for r, row in enumerate(bt):
        row.append(b_col[r])
    for r, row in enumerate(dt):
        row.append(d_col[r])
    return EncoderSpec(
        m=spec.m, k=spec.k + 1, n=spec.n,
        B_tilde=BitMatrix.from_rows(bt, spec.k),
        C=spec.C,
        D_tilde=BitMatrix.from_rows(dt, spec.k),
    )


def fec_restriction(spec: EncoderSpec) -> EncoderSpec:
    """The k=1 encoder obtained by pinning every input but the register input."""
    return EncoderSpec.rate_one_over_n(spec.C)


def effective_rate(code: TailbitingCode) -> Fraction:
    return Fraction(code.K, code.N)


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
        spec = EncoderSpec.from_lists(
            m=int(d["m"]), k=int(d["k"]), n=int(d["n"]),
            b_tilde=d["B_tilde"], c=d["C"], d_tilde=d["D_tilde"],
        )
        schedule = FreezingSchedule.from_lists(int(d["ell"]), d["frozen"])
        return TailbitingCode(spec, schedule)
    except EncoderSpecError:
        raise
    except KeyError as exc:
        raise EncoderSpecError(f"code spec missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise EncoderSpecError(f"malformed code spec: {exc}") from exc


def save_code(code: TailbitingCode, path: str, extra: dict | None = None) -> None:
    d = code_to_dict(code)
    if extra:
        d.update(extra)
    with open(path, "w") as fh:
        json.dump(d, fh, indent=2)
        fh.write("\n")


def load_code(path: str) -> TailbitingCode:
    with open(path) as fh:
        return code_from_dict(json.load(fh))


def load_code_dict(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
