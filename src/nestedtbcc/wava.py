"""Wrap-around Viterbi decoding of tailbiting trellises (hard decision).

One decoder serves two roles: BSC error correction on the low-rate code and
nearest-codeword vector quantization on the high-rate code.  The metric is
Hamming distance; each wrap iteration reruns Viterbi over the ell sections
with the previous iteration's end metrics as start metrics, and survivors
that start and end in the same state are collected as tailbiting candidates.

Kernel: survivors are kept state-major ([S, C] for C words) as packed keys
metric | edge rank j | origin state.  A section's add-compare-select gathers
whole predecessor rows, adds a (branch metric | j) table looked up by the
received block and takes one min over the A edges: the smallest key has the
smallest metric, then the smallest j, and carries backpointer and origin.
Traceback runs for all words at once; words that stopped are not swept again.
Temporaries (two [A, S, C] key buffers that every section and sweep of a call
reuses, [ell, S, C] backpointers) grow with C, which is capped so they fit in
_BUDGET_BYTES; larger batches run in blocks.

Determinism rules (all ties): incoming edges are ranked by input int (the
input tuple read little-endian) then source state; tailbiting candidates by
block distance then end-state index.  If no candidate emerges after the last
iteration -- or a zero-distance path exists that no candidate matched -- the
best path constrained to start AND end at s is extracted for every state s
and the winner (smallest distance, then smallest s) returned, so a valid
codeword always comes back; this fallback sweeps (start state, word) columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import TailbitingCode, _input_index
from .gf2 import BitVector
from .trellis import TailbitingTrellis, build_trellis

_LARGE = 1 << 40
_BUDGET_BYTES = 8 << 20


@dataclass(frozen=True)
class WavaConfig:
    """Decoder knobs: V = maximum wrap-around iterations."""

    max_iterations: int = 4

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError(f"need V >= 1, got {self.max_iterations}")


@dataclass(frozen=True)
class DecodeResult:
    message: BitVector
    codeword: BitVector
    distance: int
    iterations_used: int
    converged: bool


class BatchDecodeResult:
    """Vectorized decode output; row b corresponds to input word b."""

    def __init__(self, msg_bits, cw_bits, distance, iterations, converged):
        self.msg_bits = msg_bits        # uint8 [B, K]
        self.cw_bits = cw_bits          # uint8 [B, N]
        self.distance = distance        # int64 [B]
        self.iterations = iterations    # int64 [B]
        self.converged = converged      # bool  [B]


def _bits_to_section_ints(bits: np.ndarray, n: int) -> np.ndarray:
    B, N = bits.shape
    ints = np.zeros((B, N // n), dtype=np.int64)
    for i in range(n):
        ints |= bits[:, i::n].astype(np.int64) << i
    return ints


def _ints_to_bits(ints: np.ndarray, n: int) -> np.ndarray:
    B, ell = ints.shape
    bits = np.zeros((B, ell * n), dtype=np.uint8)
    for i in range(n):
        bits[:, i::n] = ((ints >> i) & 1).astype(np.uint8)
    return bits


class _Kernel:
    """Packed-key add-compare-select tables of one trellis."""

    def __init__(self, trellis: TailbitingTrellis):
        self.trellis = trellis
        S, N, n = trellis.S, trellis.N, trellis.n
        A = max(v.out_degree for v in trellis.sections)
        self.ob = S.bit_length() - 1                 # origin field: m bits
        self.sh = self.ob + (A - 1).bit_length()     # metric field starts here
        self.jmask = (1 << (self.sh - self.ob)) - 1
        # keys stay below top: renormalised start metrics are <= N (the free
        # register input reaches every state within ell >= m sections), a
        # block adds <= N, and the fallback's unreachable start is N+1
        top = (2 * N + 2) << self.sh
        if top >= 1 << 63:
            raise OverflowError(f"packed ACS key needs {top.bit_length()} bits")
        self.dtype = np.int32 if top < 1 << 31 else np.int64
        self.bp_dtype = np.uint8 if self.jmask < 1 << 8 else np.uint16
        o, j = np.divmod(np.arange(A << n), A)      # lut[o * A + j, r]: output o, rank j, block r
        bm = np.bitwise_count(o[:, None] ^ np.arange(1 << n)).astype(np.int64)
        self.lut = ((bm << self.sh) | (j[:, None] << self.ob)).astype(self.dtype)
        # per section: predecessors [A, S], lut row of each edge [A, S], packed src|u|out [S, A]
        tables: dict[int, tuple] = {}
        for view in trellis.sections:
            if id(view) not in tables:
                edge = (view.in_src << (trellis.k + n)) | (view.in_u << n) | view.in_out
                tables[id(view)] = (np.ascontiguousarray(view.in_src.T),
                                    view.in_out.T * A + np.arange(view.out_degree)[:, None], edge)
        self.sections = [tables[id(v)] for v in trellis.sections]
        self.key_col_bytes = (2 * A * S + (A << n)) * np.dtype(self.dtype).itemsize
        self.sizes, self.buf = (A << n, A * S, A * S), [np.empty(0, self.dtype)] * 3

    def columns(self, bp: bool) -> int:
        """Columns per block so that one block's temporaries fit the budget."""
        S, ell = self.trellis.S, self.trellis.ell
        per_col = self.key_col_bytes + 8 * (ell + 8 * S)   # keys, blocks, [S, C] metrics
        per_col += bp * ell * S * np.dtype(self.bp_dtype).itemsize
        return max(1, _BUDGET_BYTES // per_col)

    def sweep(self, r_cols: np.ndarray, P: np.ndarray, bp: np.ndarray | None) -> np.ndarray:
        """One Viterbi sweep of packed keys P [S, C] (row-major, updated in place) over blocks
        r_cols [ell, C]; bp[t] receives the key bits from j up, truncated to bp's width."""
        S, C, clear = self.trellis.S, P.shape[1], ~(self.jmask << self.ob)
        if len(self.buf[0]) < self.sizes[0] * C:   # buffers outlive the sweep; free old first
            self.buf[:] = [np.empty(0, self.dtype)] * 3
            self.buf[:] = [np.empty(size * C, self.dtype) for size in self.sizes]
        lut_r = self.buf[0][:self.sizes[0] * C].reshape(-1, C)
        keys, preds = (b[:self.sizes[1] * C].reshape(-1, S, C) for b in self.buf[1:])
        for t, (src, lut_rows, _) in enumerate(self.sections):
            key, pred = keys[:len(src)], preds[:len(src)]
            self.lut.take(r_cols[t], axis=1, out=lut_r, mode="clip")    # [A << n, C]
            lut_r.take(lut_rows, axis=0, out=key, mode="clip")         # branch metric | j
            key += P.take(src, axis=0, out=pred, mode="clip")          # + metric | origin
            np.minimum.reduce(key, axis=0, out=P)
            if bp is not None:
                np.right_shift(P, self.ob, out=bp[t], casting="unsafe")
            P &= clear
        return P

    def traceback(self, bp: np.ndarray, s: np.ndarray, cols: np.ndarray):
        """Follow backpointers from state s[c] in column cols[c] of bp [ell, S, C];
        returns (start states, u_ints [c, ell], out_ints [c, ell])."""
        k, n = self.trellis.k, self.trellis.n
        path = np.empty((len(self.sections), len(cols)), dtype=np.int64)
        for t in range(len(self.sections) - 1, -1, -1):
            path[t] = self.sections[t][2][s, bp[t, s, cols] & self.jmask]
            s = path[t] >> (k + n)
        return s, ((path >> n) & ((1 << k) - 1)).T, (path & ((1 << n) - 1)).T

    def constrained(self, r_ints, rows, starts, bp=None) -> np.ndarray:
        """Metric of the best path from starts[c] back to starts[c] on word rows[c]."""
        cols = np.arange(len(rows))
        P = np.full((self.trellis.S, len(rows)), (self.trellis.N + 1) << self.sh, dtype=self.dtype)
        P[starts, cols] = 0
        end = self.sweep(np.ascontiguousarray(r_ints[rows].T), P, bp)
        return (end[starts, cols] >> self.sh).astype(np.int64)


def _exhaustive_constrained(kern, r_ints, idx, best_u, best_out, best_dist):
    """Exact search over start states for the rows in idx (rare fallback): for each
    state s the best path constrained to start and end at s; the winner (smallest
    distance, then smallest s) replaces the candidate when strictly better or when none exists."""
    S, Bf, ell = kern.trellis.S, len(idx), kern.trellis.ell
    dist = np.empty(S * Bf, dtype=np.int64)          # column c = (s, row) = divmod(c, Bf)
    step = kern.columns(bp=False)
    for lo in range(0, S * Bf, step):
        c = np.arange(lo, min(lo + step, S * Bf))
        dist[c] = kern.constrained(r_ints, idx[c % Bf], c // Bf)
    dist = dist.reshape(S, Bf)
    win_state, win_dist = dist.argmin(axis=0), dist.min(axis=0)
    improved = win_dist < best_dist[idx]
    rows = np.flatnonzero(improved)
    step = kern.columns(bp=True)
    for lo in range(0, len(rows), step):
        blk = rows[lo:lo + step]
        bp = np.empty((ell, S, len(blk)), dtype=kern.bp_dtype)
        kern.constrained(r_ints, idx[blk], win_state[blk], bp)
        start, best_u[idx[blk]], best_out[idx[blk]] = kern.traceback(
            bp, win_state[blk], np.arange(len(blk)))
        if not np.array_equal(start, win_state[blk]):
            raise AssertionError("constrained traceback left the start state")
    best_dist[idx[improved]] = win_dist[improved]
    return improved


def wava_decode_many(
    trellis: TailbitingTrellis, r_bits: np.ndarray, cfg: WavaConfig | None = None
) -> BatchDecodeResult:
    """Decode a batch of received words; rows are independent and deterministic."""
    cfg = cfg or WavaConfig()
    r_bits = np.asarray(r_bits, dtype=np.uint8)
    if r_bits.ndim != 2 or r_bits.shape[1] != trellis.N:
        raise ValueError(f"received words must be [B, {trellis.N}], got {r_bits.shape}")
    B, S, V = r_bits.shape[0], trellis.S, cfg.max_iterations
    r_ints = _bits_to_section_ints(r_bits, trellis.n)
    kern = _Kernel(trellis)
    states = np.arange(S)[:, None]

    best_dist = np.full(B, _LARGE, dtype=np.int64)
    best_u = np.zeros((B, trellis.ell), dtype=np.int64)
    best_out = np.zeros((B, trellis.ell), dtype=np.int64)
    iterations = np.full(B, V, dtype=np.int64)
    converged = np.zeros(B, dtype=bool)
    min_metric_iter1 = np.zeros(B, dtype=np.int64)

    step = kern.columns(bp=True)
    for lo in range(0, B, step):
        g = np.arange(lo, min(lo + step, B))          # rows still active
        r_cols = np.ascontiguousarray(r_ints[g].T)
        M = np.zeros((S, len(g)), dtype=np.int64)
        prev_tuple = np.full((len(g), 3), -1)
        bp_block = np.empty((trellis.ell, S, len(g)), dtype=kern.bp_dtype)
        for v in range(1, V + 1):
            cols, bp = np.arange(len(g)), bp_block[:, :, :len(g)]
            end = kern.sweep(r_cols, ((M << kern.sh) | states).astype(kern.dtype), bp)
            Mend = (end >> kern.sh).astype(np.int64)
            origin = (end & (S - 1)).astype(np.int64)
            blockdist = Mend - np.take_along_axis(M, origin, axis=0)
            tb = origin == states
            cand_dist = np.where(tb, blockdist, _LARGE)
            s_tb = cand_dist.argmin(axis=0)
            d_tb = cand_dist[s_tb, cols]
            upd = np.flatnonzero(d_tb < best_dist[g])
            if len(upd):
                start, u_ints, out_ints = kern.traceback(bp, s_tb[upd], upd)
                if not np.array_equal(start, s_tb[upd]):
                    raise AssertionError("tailbiting candidate traceback mismatch")
                best_dist[g[upd]] = d_tb[upd]
                best_u[g[upd]] = u_ints
                best_out[g[upd]] = out_ints

            s_best = Mend.argmin(axis=0)
            if v == 1:
                min_metric_iter1[g] = Mend[s_best, cols]
            best_is_tb = tb[s_best, cols]
            cur_tuple = np.stack([s_best, origin[s_best, cols], blockdist[s_best, cols]], axis=1)
            # at v == 1 the start metrics are uniform: a tailbiting best survivor is provably ML
            stop = best_is_tb & ((v == 1) | (cur_tuple == prev_tuple).all(axis=1))
            stop |= best_dist[g] == 0  # a zero-distance codeword cannot be beaten
            converged[g[stop]] = True
            iterations[g[stop]] = v
            keep = ~stop
            if not keep.any():
                break
            # compress, not a mask index: masking columns would return column-major arrays
            g, prev_tuple, r_cols = g[keep], cur_tuple[keep], r_cols.compress(keep, axis=1)
            M = (Mend - Mend[s_best, cols]).compress(keep, axis=1)

    # exact fallback: no candidate at all, or a perfect-match path was seen
    # on the first sweep but no candidate reached distance 0
    need = (best_dist >= _LARGE) | ((min_metric_iter1 == 0) & (best_dist > 0))
    idx = np.flatnonzero(need)
    if len(idx):
        improved = _exhaustive_constrained(kern, r_ints, idx, best_u, best_out, best_dist)
        converged[idx[improved]] = False

    cw_bits = _ints_to_bits(best_out, trellis.n)
    dist = np.bitwise_count((best_out ^ r_ints).astype(np.uint64)).sum(axis=1).astype(np.int64)
    if not np.array_equal(dist, best_dist):
        raise AssertionError("survivor metric disagrees with recomputed distance")

    u_bits = ((best_u[:, :, None] >> np.arange(trellis.k)) & 1).reshape(B, trellis.ell * trellis.k)
    msg_bits = u_bits[:, _input_index(trellis.code)].astype(np.uint8)
    return BatchDecodeResult(msg_bits, cw_bits, dist, iterations, converged)


def wava_decode(trellis: TailbitingTrellis | TailbitingCode, r: BitVector,
                cfg: WavaConfig | None = None) -> DecodeResult:
    """Decode one received word to the best tailbiting codeword found."""
    if isinstance(trellis, TailbitingCode):
        trellis = build_trellis(trellis)
    if r.n != trellis.N:
        raise ValueError(f"received length {r.n} != N={trellis.N}")
    res = wava_decode_many(trellis, r.to_numpy()[None, :], cfg)
    msg_word = int.from_bytes(np.packbits(res.msg_bits[0], bitorder="little").tobytes(), "little")
    cw_word = int.from_bytes(np.packbits(res.cw_bits[0], bitorder="little").tobytes(), "little")
    return DecodeResult(BitVector(msg_word, trellis.K), BitVector(cw_word, trellis.N),
                        int(res.distance[0]), int(res.iterations[0]), bool(res.converged[0]))


def quantize(
    trellis: TailbitingTrellis | TailbitingCode,
    x: BitVector,
    cfg: WavaConfig | None = None,
) -> DecodeResult:
    """Nearest-codeword quantization: same machinery, distance/N is distortion."""
    return wava_decode(trellis, x, cfg)
