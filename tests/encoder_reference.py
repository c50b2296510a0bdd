"""The scalar two-pass tailbiting encoder that ``encoder.encode_many``
replaced, kept as a test oracle.

It builds its own per-input and per-state tables from (B~, C, D~), spreads
each message over the sections one bit at a time, and runs both passes over
all ell sections from Python integers.
"""

from __future__ import annotations

import numpy as np

from nestedtbcc.encoder import EncoderSpec, TailbitingCode


def _tables(spec: EncoderSpec) -> tuple[list[int], list[int], list[int]]:
    """(bu, du, state_out): per input int the B^T/D^T products, per state s.C^T."""
    m, k, n = spec.m, spec.k, spec.n
    bcols = [1] + [spec.B_tilde.column(j).word for j in range(k - 1)]
    dcols = [0] + [spec.D_tilde.column(j).word for j in range(k - 1)]
    bu, du = [], []
    for u in range(1 << k):
        acc_b = 0
        acc_d = 0
        for j in range(k):
            if (u >> j) & 1:
                acc_b ^= bcols[j]
                acc_d ^= dcols[j]
        bu.append(acc_b)
        du.append(acc_d)
    state_out = []
    for s in range(1 << m):
        c = 0
        for i in range(n):
            c |= (bin(s & spec.C.row_words[i]).count("1") & 1) << i
        state_out.append(c)
    return bu, du, state_out


def message_to_inputs(code: TailbitingCode, message: np.ndarray) -> list[int]:
    """Spread message bits over sections: time-major, input index ascending."""
    u_ints = []
    j = 0
    for t in range(code.ell):
        u = 0
        for pos in range(code.spec.k):
            if pos not in code.schedule.frozen[t]:
                u |= int(message[j]) << pos
                j += 1
        u_ints.append(u)
    assert j == code.K
    return u_ints


def _run(spec: EncoderSpec, start_state: int, u_ints: list[int]) -> tuple[list[int], int]:
    bu, du, state_out = _tables(spec)
    mask = (1 << spec.m) - 1
    s = start_state
    outs = []
    for u in u_ints:
        outs.append(state_out[s] ^ du[u])
        s = ((s << 1) & mask) ^ bu[u]
    return outs, s


def encode_reference(code: TailbitingCode, messages: np.ndarray) -> np.ndarray:
    """uint8 [B, K] -> uint8 [B, N], one message at a time; pass 1 runs all
    ell sections from the zero state."""
    n = code.spec.n
    out = np.zeros((len(messages), code.N), dtype=np.uint8)
    for b, message in enumerate(messages):
        u_ints = message_to_inputs(code, message)
        _, wrap = _run(code.spec, 0, u_ints)
        outs, end = _run(code.spec, wrap, u_ints)
        assert end == wrap, "tailbiting failed: end state differs from start state"
        for t, c in enumerate(outs):
            for i in range(n):
                out[b, t * n + i] = (c >> i) & 1
    return out
