"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's transfer-matrix and
Viterbi code paths: spectra come from encoding every message, nearest
codewords from full codebook scans, and detours from depth-first search
over the raw state machine.
"""

from __future__ import annotations

import numpy as np
import pytest

from nestedtbcc.encoder import (
    EncoderSpec,
    FreezingSchedule,
    TailbitingCode,
    encode_many,
)
from nestedtbcc.gf2 import BitMatrix, BitVector, gf2_vec_mat, sample_uniform_matrix


def all_messages(k_bits: int) -> np.ndarray:
    """[2^K, K] uint8 enumeration of every message."""
    ids = np.arange(1 << k_bits, dtype=np.int64)
    return ((ids[:, None] >> np.arange(k_bits)[None, :]) & 1).astype(np.uint8)


def exhaustive_codebook(code: TailbitingCode) -> np.ndarray:
    return encode_many(code, all_messages(code.K))


def exhaustive_spectrum(code: TailbitingCode) -> dict[int, int]:
    w = exhaustive_codebook(code).sum(axis=1)
    vals, counts = np.unique(w, return_counts=True)
    return {int(d): int(c) for d, c in zip(vals, counts)}


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack bit rows into little-endian uint64 words for fast XOR-popcount."""
    b, n = bits.shape
    nw = (n + 63) // 64
    out = np.zeros((b, nw), dtype=np.uint64)
    for j in range(n):
        out[:, j // 64] |= bits[:, j].astype(np.uint64) << np.uint64(j % 64)
    return out


def nearest_distances(codebook_packed: np.ndarray, r_packed: np.ndarray) -> np.ndarray:
    """Min Hamming distance from each received row to the codebook."""
    # [B, M, W] xor table; fine at toy sizes
    x = r_packed[:, None, :] ^ codebook_packed[None, :, :]
    return np.bitwise_count(x).sum(axis=2).min(axis=1)


def nearest_codeword_rows(codebook_packed: np.ndarray, r_packed: np.ndarray) -> np.ndarray:
    x = r_packed[:, None, :] ^ codebook_packed[None, :, :]
    return np.bitwise_count(x).sum(axis=2).argmin(axis=1)


def oracle_detours(spec: EncoderSpec, max_len: int = 64) -> tuple[int, int]:
    """(d_free, A_free) by DFS over first-return detours from the zero state.

    Transitions come from the spec matrices by vector-matrix products:
    s' = s.A^T + u.B^T and c = s.C^T + u.D^T with A the down-shift,
    B = (e1^T | B~) and D = (0 | D~).
    """
    m, k, n = spec.m, spec.k, spec.n
    a_t = BitMatrix.from_rows([[int(i == j + 1) for i in range(m)] for j in range(m)])
    e1 = [int(i == 0) for i in range(m)]
    b_t = BitMatrix.from_rows([e1] + spec.B_tilde.transpose().to_lists(), m)
    c_t = spec.C.transpose()
    d_t = BitMatrix.from_rows([[0] * n] + spec.D_tilde.transpose().to_lists(), n)
    nu = 1 << k
    best = [None]
    count = [0]

    def weight(s: int, u: int) -> int:
        return (gf2_vec_mat(BitVector(s, m), c_t) ^ gf2_vec_mat(BitVector(u, k), d_t)).weight()

    def advance(s: int, u: int) -> int:
        return (gf2_vec_mat(BitVector(s, m), a_t) ^ gf2_vec_mat(BitVector(u, k), b_t)).word

    def dfs(state: int, acc: int, depth: int) -> None:
        if depth > max_len:
            return
        if best[0] is not None and acc > best[0]:
            return
        for u in range(nu):
            w = acc + weight(state, u)
            nxt = advance(state, u)
            if best[0] is not None and w > best[0]:
                continue
            if nxt == 0:
                if best[0] is None or w < best[0]:
                    best[0], count[0] = w, 1
                elif w == best[0]:
                    count[0] += 1
            else:
                dfs(nxt, w, depth + 1)

    for u in range(1, nu):
        w = weight(0, u)
        nxt = advance(0, u)
        if nxt == 0:
            if best[0] is None or w < best[0]:
                best[0], count[0] = w, 1
            elif w == best[0]:
                count[0] += 1
        else:
            dfs(nxt, w, 1)
    return best[0], count[0]


def random_spec(rng: np.random.Generator, m: int, k: int, n: int) -> EncoderSpec:
    return EncoderSpec(
        m=m, k=k, n=n,
        B_tilde=sample_uniform_matrix(m, k - 1, rng),
        C=sample_uniform_matrix(n, m, rng),
        D_tilde=sample_uniform_matrix(n, k - 1, rng),
    )


def random_code(
    rng: np.random.Generator, m: int, k: int, n: int, ell: int, freeze_prob: float = 0.0
) -> TailbitingCode:
    spec = random_spec(rng, m, k, n)
    frozen = []
    for _ in range(ell):
        fs = frozenset(i for i in range(1, k) if rng.random() < freeze_prob)
        frozen.append(fs)
    return TailbitingCode(spec, FreezingSchedule(ell, tuple(frozen)))


def codeword_set(code: TailbitingCode) -> set[tuple[int, ...]]:
    return {tuple(row) for row in exhaustive_codebook(code).tolist()}


def toy_pair_a():
    """m=2, n=3, ell=4, k=2: fec d_min 4, injective, covering radius 2,
    nearest-codeword exact under WAVA for every input word."""
    from nestedtbcc.keyagree import NestedCodePair

    spec = EncoderSpec.from_lists(
        2, 2, 3, [[0], [0]], [[1, 0], [0, 1], [1, 1]], [[1], [1], [1]]
    )
    return NestedCodePair(TailbitingCode.unfrozen(spec, 4))


def toy_pair_b():
    """m=1, n=2, ell=5, k=2: a rate-1 quantizer covering all of F_2^10."""
    from nestedtbcc.keyagree import NestedCodePair

    spec = EncoderSpec.from_lists(1, 2, 2, [[1]], [[1], [1]], [[0], [1]])
    return NestedCodePair(TailbitingCode.unfrozen(spec, 5))


def toy_pair_c():
    """m=3, n=3, ell=4, k=2 with one frozen step: fec d_min 6, K_vq=7."""
    from nestedtbcc.keyagree import NestedCodePair

    spec = EncoderSpec.from_lists(
        3, 2, 3, [[1], [1], [0]], [[1, 1, 1], [0, 1, 1], [0, 0, 1]], [[1], [1], [1]]
    )
    frozen = (frozenset(), frozenset({1}), frozenset(), frozenset())
    return NestedCodePair(TailbitingCode(spec, FreezingSchedule(4, frozen)))


@pytest.fixture
def repetition_toy() -> TailbitingCode:
    """m=1, k=1, n=3: each state bit emitted three times; spectrum 1+2X^3+X^6."""
    spec = EncoderSpec.rate_one_over_n(BitMatrix.from_rows([[1], [1], [1]]))
    return TailbitingCode.unfrozen(spec, 2)


@pytest.fixture
def unit_toy() -> TailbitingCode:
    """m=1, k=1, n=1, ell=2: the four messages map onto all of F_2^2."""
    spec = EncoderSpec.rate_one_over_n(BitMatrix.from_rows([[1]]))
    return TailbitingCode.unfrozen(spec, 2)


def bits(*vals: int) -> BitVector:
    return BitVector.from_bits(vals)
