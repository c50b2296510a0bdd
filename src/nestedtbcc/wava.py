"""Wrap-around Viterbi decoding of tailbiting trellises (hard decision).

One decoder serves two roles: BSC error correction on the low-rate code and
nearest-codeword vector quantization on the high-rate code.  The metric is
Hamming distance; each wrap iteration reruns Viterbi over the ell sections
with the previous iteration's end metrics as start metrics, and survivors
that start and end in the same state are collected as tailbiting candidates.

Kernel: survivors are kept state-major ([S, C] for C words) as packed keys
metric | edge rank j | origin state; the smallest key has the smallest
metric, then the smallest j, and carries backpointer and origin.
Add-compare-select runs in pair form (the butterfly): states s and s ^ S/2
reach the same states under the same input with the same output, and the
admissible inputs come in classes of two that differ in the register input
only.  A forward section gathers one (branch metric | j) row per (class,
state) from a table looked up by the received block, adds the state's key,
takes the min of each pair {s, s ^ S/2}, and per target picks its pair's min
in each class, then the min over the classes; the backward sweep first takes
the min of each successor pair, then per class adds the branch metric.

Keys are uint16 where the metric field holds m*n + 1 + n*every for a
renormalisation interval every >= m, else int32 (the paper's m=8, k=3
quantizer and the m=11 codes); codes past int32 (from m=18, k=5, n=8) or
past one-byte backpointers (k >= 9) are rejected.  Narrow keys are exact
because the register input is never frozen and shifts one bit into the state
per section: every state reaches every state in exactly m sections, each
adding at most n, so from section m on a column's survivor metrics span at
most m*n.  Start metrics lie in [0, m*n + 1]: zero, the previous sweep's end
metrics minus their minimum (ell >= m), or the exact fallback's start, whose
other states start at m*n + 1, which no path from the start state exceeds by
section m, so no other start survives past it.  Every `every` sections each
column's least metric is subtracted, folded into that section's branch
metrics (the wrap-around of unsigned keys cancels in the add), and the sum of
the subtractions is an int64 offset per column that the sweep's readers add
back.  States x and x ^ 1 end every section with the same key, since the
register input's bit reaches no output until the next section, so a sweep
keeps one backpointer per state pair, [ell, S/2, C].  Traceback follows the
pairs X = src >> 1 through the in-edges of each pair's even target, which
the odd target shares but for the register bit of the input, and then flips
that bit in one pass where the section's target (the next section's source)
is odd.  It runs for all words at once; words that stopped are not swept
again.

Temporaries (the [A/2, S, C] keys, their [A/2, S/2, C] pair minima and picks,
and the backpointer buffer, each allocated once per call and reused by every
section and sweep; a block's [S, C] start keys and candidate arrays) grow with
C, which is capped so that what a block holds fits in _BUDGET_BYTES.  A block's
start keys are built in the key dtype, and a tailbiting candidate's start
metric is read at its end state, where it starts.  The order is sweep-major:
sweep v runs once per call over every word still active, in the fewest column
blocks of that cap, of even widths (512 words at a cap of 348 run as 256 + 256,
not 348 + 164), and the backward bound sweep, each later sweep and the exact
fallback each run once over the open words pooled from all blocks, so a few
open words cost one small sweep, not one per block.  The [S, words] state that
crosses sweeps (start metrics, the fallback's bound) is held per row group,
sized from the same budget and never below one block; larger batches run in
the fewest groups, of even sizes.  Every word's computation is the same in any
order.

Stop rule: a word stops after sweep v when its best candidate distance equals
the bound of an ML certificate, or after sweep V.  The first sweep starts from
zero metrics, so fwd[s], its end metric at s, is the distance of the best path
of any start that ends at s; one backward sweep (below) gives h0[s], the best
of any path that starts at s.  A tailbiting path s -> s is both, so its
distance is at least LB[s] = max(fwd[s], h0[s]), and LB* = min_s LB[s] bounds
every tailbiting codeword from below.  The bound is min fwd for the words
whose candidate reaches it at sweep 1; only the others run the backward sweep,
and their bound is LB* >= min fwd.  A candidate at the bound is ML, later
sweeps replace a candidate only when strictly better, and the exact fallback
cannot improve on it, so stopping there changes no message, codeword or
distance, only the iteration count.

Determinism rules (all ties): incoming edges are ranked by input int (the
input tuple read little-endian) then source state; tailbiting candidates by
block distance then end-state index.  If no candidate emerges after the last
iteration -- or a zero-distance path exists that no candidate matched -- the
exact fallback returns the best path constrained to start AND end at the same
state s, the winner over all s by smallest distance, then smallest s, so a
valid codeword always comes back.

Exact fallback: the constrained distance d[s] of a word is one sweep of the
(start state s, word) column, and a two-phase search sweeps only the columns
that can still win.  It reuses the certificate's LB[s] <= d[s]: a word that
reaches the fallback has no candidate at the first sweep's minimum, so it ran
the backward sweep, over the out-edges from the last section back to the
first, and the fallback runs once per row group with that group's [S, words]
bound, which the group size counts.  Columns are swept in rounds, given
(bd, bs), the best (distance, state) swept so far: the first round sweeps,
per word, the column of lowest (LB, s); each later round sweeps every column
that can still win.  A column can still win while LB < bd, or LB == bd and
s < bs, since a tie goes to the smaller s; and only while LB is below the
distance of the word's candidate, which an equal distance does not replace.
The search ends when no such column is left: every unswept column then has
d >= LB > bd, or d >= LB == bd and s > bs, so (bd, bs) is the exact winner.
Winners are traced as the WAVA candidate of a forward sweep that starts at the
winning state alone (0 there, m*n + 1 elsewhere, the constrained start): from
section m on every survivor starts there, so it is the only tailbiting
candidate, at the constrained distance; one traceback serves every path.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .encoder import TailbitingCode, _bit_rows, _bits_to_section_ints, _ints_to_bits
from .trellis import TailbitingTrellis, build_trellis

_LARGE = 1 << 40
_BUDGET_BYTES = 8 << 20
# the sweep cap V, as in every TBCC row of the paper
SWEEPS = 4


class BatchDecodeResult:
    """Vectorized decode output; row b corresponds to input word b."""

    def __init__(self, msg_bits, cw_bits, distance, iterations, converged, fallback=None):
        self.msg_bits = msg_bits        # uint8 [B, K]
        self.cw_bits = cw_bits          # uint8 [B, N]
        self.distance = distance        # int64 [B]
        self.iterations = iterations    # int64 [B]: forward sweeps run, V where none certified
        self.converged = converged      # bool  [B]: certified ML (no fallback replaces it)
        self.fallback = fallback        # bool  [B]: the row reached the exact search


class _Tables:
    """Pair-form add-compare-select tables of one trellis.  They hold no reference to
    the trellis, so that caching them keeps no trellis alive.

    A state s is (h, i): its top bit and s mod S/2.  The tables follow the butterfly
    form of a section (bu, du, so, classes 2c and 2c + 1, rank j = 2a + h), which the
    trellis module docstring states."""

    def __init__(self, trellis: TailbitingTrellis):
        S, n = trellis.S, trellis.n
        self.A = A = max(v.out_degree for v in trellis.views)
        if A > 1 << 8:
            raise ValueError(f"{A} in-edges per state overflow one-byte WAVA backpointers (k <= 8)")
        m = self.ob = S.bit_length() - 1             # origin field: m bits
        self.sh = self.ob + (A - 1).bit_length()     # metric field starts here
        self.jmask = (1 << (self.sh - self.ob)) - 1
        # the narrowest keys whose metric field holds m*n + 1 + n*every for a
        # renormalisation interval every >= m: start metrics are <= m*n + 1 (the
        # fallback's unreachable start; renormalised end metrics span <= m*n, as the
        # free register input reaches every state in m sections), and the sections up
        # to the next renormalisation add <= n*every
        for dtype in (np.uint16, np.int32):
            room = int(np.iinfo(dtype).max) >> self.sh
            self.every = (room - (m * n + 1)) // n
            if self.every >= max(m, 1):
                break
        else:
            raise ValueError(f"WAVA keys need over 32 bits (metric bit {self.sh}, m={m}, n={n})")
        self.dtype = dtype
        self.unreachable = (m * n + 1) << self.sh
        self.clear = np.array(~(self.jmask << self.ob)).astype(dtype)[()]   # all bits but j
        self.metric_mask = np.array(-1 << self.sh).astype(dtype)[()]
        j, o = np.divmod(np.arange(A << n), 1 << n)  # lut[j << n | o, r]: rank j, output o, block r
        bm = np.bitwise_count(o[:, None] ^ np.arange(1 << n)).astype(np.int64)
        self.lut = ((bm << self.sh) | (j[:, None] << self.ob)).astype(dtype)
        # per distinct section, for its classes a (rank order, classes ascending) and states s:
        # forward, the lut row [A/2, S] of the edge from s in class a, whose rank is 2a + h,
        # and the row [A/2, S] of the [A/2 * S/2] pair minima that reaches s in class a;
        # backward, the output [A/2, S] of the edges out of s in class a (a rank 0 lut row)
        # and the pair i' [A/2, S] of its successors {2i', 2i' + 1}
        bu, du, so = trellis.next_state[0], trellis.out_int[0], trellis.out_int[:, 0]
        s, half = np.arange(S), S >> 1
        h, i = np.divmod(s, half)
        self.order = trellis.order                               # distinct tables of section t
        self.fwd, self.bwd, edges = [], [], []
        for view in trellis.views:
            a, c2 = np.arange(view.out_degree // 2)[:, None], view.inputs[0::2, None]
            out = so ^ du[c2]
            self.fwd.append((((2 * a + h) << n) | out, a * half + ((s ^ bu[c2]) >> 1)))
            self.bwd.append((out, i ^ (bu[c2] >> 1)))
            # targets 2X and 2X + 1 share the source and output of each rank, and their
            # inputs differ in the register bit only: the even target's row stands for both
            edges.append((view.in_src[0::2] << (trellis.k + n)) | (view.in_u[0::2] << n)
                         | view.in_out[0::2])
        self.edges = [edges[o] for o in self.order]   # traceback: packed src | u | out [S/2, A]
        # buffers per column: the lut rows of a block, the [A/2, S] keys, their [A/2, S/2]
        # pair minima, and the [A/2, S] picks that sections of two or more classes reduce
        self.sizes = (A << n, A // 2 * S, A // 2 * half, A // 2 * S if A > 2 else 0)
        self.key_col_bytes = sum(self.sizes) * np.dtype(dtype).itemsize


# two codes: a key-agreement run alternates between a pair's quantizer and FEC
# code; a design decodes each code it makes in one stretch and never again, and
# 64 entries of such tables raised a design run's peak RSS by about 0.7 MB
@lru_cache(maxsize=2)
def _tables(code: TailbitingCode) -> _Tables:
    return _Tables(build_trellis(code))


class _Kernel:
    """The cached tables of one trellis and the key buffers of one decode call."""

    def __init__(self, trellis: TailbitingTrellis):
        self.trellis = trellis
        self.tab = _tables(trellis.code)
        self.buf = [np.empty(0, self.tab.dtype)] * len(self.tab.sizes)
        self.offset = np.zeros(0, np.int64)

    def columns(self) -> int:
        """Columns per block so that one forward block's temporaries fit the budget: the
        sweep's keys, the intp blocks, `_forward`'s [S, C] arrays (three of the key dtype:
        start keys, end metrics and origins; a bool mask; two int64 candidate arrays) and
        the one-byte backpointers."""
        S, ell, size = self.trellis.S, self.trellis.ell, np.dtype(self.tab.dtype).itemsize
        per_col = self.tab.key_col_bytes + 8 * ell + S * (3 * size + 17) + ell * (S >> 1)
        return max(1, _BUDGET_BYTES // per_col)

    def group_rows(self) -> int:
        """Rows per group, whose [S, rows] state that crosses sweeps fits the budget: five
        int64 arrays, the start metrics, the previous sweep's end metrics, the blocks of
        the next ones and their concatenation, and the bound that the exact fallback
        reuses.  Never below columns()."""
        return max(self.columns(), _BUDGET_BYTES // (40 * self.trellis.S))

    @staticmethod
    def r_cols(r_ints: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The blocks of the words rows as a C-contiguous [ell, len(rows)] sweep input,
        widened to intp once, so that no section's take casts its indices."""
        return np.ascontiguousarray(r_ints[rows].T, dtype=np.intp)

    def _renormalise(self, low: np.ndarray, lut_r: np.ndarray) -> None:
        """Subtract low [C], each column's least metric (shifted into the metric field),
        from the section's branch metrics lut_r [rows, C]; every key it is added to is at
        least low, so the wrap-around of unsigned keys cancels."""
        lut_r -= low
        self.offset += low >> self.tab.sh

    def sweep(self, r_cols: np.ndarray, P: np.ndarray, bp: np.ndarray | None,
              reverse: bool = False) -> np.ndarray:
        """One Viterbi sweep of packed keys P [S, C] (row-major, updated in place) over blocks
        r_cols [ell, C], or over the reversed sections and blocks when reverse; bp[t] [S/2, C]
        (uint8) receives the edge rank j of each state pair {2X, 2X + 1} in its low bits (the
        bits above are not read).  Start metrics lie in [0, m*n + 1]; the metric of a returned key
        plus self.offset [C] (int64) of its column is the path's metric."""
        tab, C = self.tab, P.shape[1]
        if len(self.buf[0]) < tab.sizes[0] * C:   # buffers outlive the sweep; free old first
            self.buf[:] = [np.empty(0, tab.dtype)] * len(tab.sizes)
            self.buf[:] = [np.empty(size * C, tab.dtype) for size in tab.sizes]
        self.offset = np.zeros(C, np.int64)
        marks = range(tab.every, len(tab.order), tab.every)   # sections that renormalise
        if reverse:
            return self._backward(r_cols[::-1], P, marks)
        S, half, clear = self.trellis.S, self.trellis.S >> 1, tab.clear
        lut_r = self.buf[0][:tab.sizes[0] * C].reshape(-1, C)
        plan = []                    # per distinct section: its tables and buffer views
        for lut_rows, pick in tab.fwd:
            a = len(lut_rows)
            T = self.buf[1][:a * S * C].reshape(a, S, C)
            R = self.buf[2][:a * half * C].reshape(a, half, C)
            G = self.buf[3][:a * S * C].reshape(a, S, C) if a > 1 else None
            plan.append((lut_rows, pick if a > 1 else pick[0], T, T[:, :half], T[:, half:],
                         R, R.reshape(a * half, C), G))
        # one class: j = h of the pair's min, written as bool where bp has bytes; more
        # classes: targets 2X and 2X + 1 hold the same key, whose j the even one gives
        bp_h = None if bp is None else bp.view(bool)
        P_even = P[0::2]
        for t, o in enumerate(tab.order):
            lut_rows, pick, T, T_lo, T_hi, R, R_rows, G = plan[o]
            tab.lut.take(r_cols[t], axis=1, out=lut_r, mode="clip")   # [A << n, C]
            if t in marks:
                self._renormalise(P.min(axis=0) & tab.metric_mask, lut_r)
            lut_r.take(lut_rows, axis=0, out=T, mode="clip")          # bm | j per (class, s)
            T += P                                                     # + metric | origin
            np.minimum(T_lo, T_hi, out=R)                              # min over the pair h
            if G is None:              # one class: target x takes pair x >> 1, with j = h
                if bp is not None:     # (a pair's two keys differ in j, so they never tie)
                    np.less(T_hi[0], T_lo[0], out=bp_h[t])
                R &= clear
                R_rows.take(pick, axis=0, out=P, mode="clip")
            else:
                R_rows.take(pick, axis=0, out=G, mode="clip")          # per class, target x
                np.minimum.reduce(G, axis=0, out=P)
                if bp is not None:
                    np.right_shift(P_even, tab.ob, out=bp[t], casting="unsafe")
                P &= clear
        return P

    def _backward(self, r_cols: np.ndarray, P: np.ndarray, marks: range) -> np.ndarray:
        """The sweep over the out-edges of the sections last to first, from metric-only keys
        P [S, C]: first the min over each pair of successors {2i', 2i' + 1}, which every
        class shares, then per class the branch metric (rank 0 rows) plus that pair minimum."""
        tab, S, C = self.tab, self.trellis.S, P.shape[1]
        if not P.flags.c_contiguous:      # the pair views below must not be copies
            raise ValueError("the backward sweep needs C-contiguous keys")
        half, rows = S >> 1, 1 << self.trellis.n
        lut, lut_r = tab.lut[:rows], self.buf[0][:rows * C].reshape(rows, C)
        M = self.buf[2][:half * C].reshape(half, C)
        succ, halves = P.reshape(half, 2, C), P.reshape(2, half, C)
        plan = []
        for out, pick in tab.bwd:
            a = len(out)
            plan.append((out, pick, self.buf[1][:a * S * C].reshape(a, S, C),
                         self.buf[3][:a * S * C].reshape(a, S, C) if a > 1 else None))
        for t, o in enumerate(reversed(tab.order)):
            out, pick, T, G = plan[o]
            lut.take(r_cols[t], axis=1, out=lut_r, mode="clip")       # [2^n, C]
            np.minimum(succ[:, 0], succ[:, 1], out=M)
            if t in marks:
                self._renormalise(M.min(axis=0), lut_r)
            if G is None:                                              # one class: pair i' = i
                lut_r.take(out[0], axis=0, out=P, mode="clip")
                halves += M
            else:
                lut_r.take(out, axis=0, out=T, mode="clip")
                T += M.take(pick, axis=0, out=G, mode="clip")
                np.minimum.reduce(T, axis=0, out=P)
        return P

    def traceback(self, bp: np.ndarray, s: np.ndarray, cols: np.ndarray):
        """Follow backpointers from state s[c] in column cols[c] of bp [ell, S/2, C];
        returns (start states, u_ints [c, ell], out_ints [c, ell])."""
        k, n, edges, jmask = self.trellis.k, self.trellis.n, self.tab.edges, self.tab.jmask
        ell = len(edges)
        path = np.empty((ell + 1, len(cols)), dtype=np.int64)
        path[ell] = s << (k + n)             # the last section's targets, as a source field
        X = s >> 1
        for t in range(ell - 1, -1, -1):
            path[t] = edges[t][X, bp[t, X, cols] & jmask]
            X = path[t] >> (k + n + 1)
        # each edge is its pair's even target's: an odd target flips the register bit of u
        u = ((path[:-1] >> n) & ((1 << k) - 1)) ^ ((path[1:] >> (k + n)) & 1)
        return path[0] >> (k + n), u.T, (path[:-1] & ((1 << n) - 1)).T

    def constrained(self, r_ints, rows, starts, bp=None) -> np.ndarray:
        """Metric of the best path from starts[c] back to starts[c] on word rows[c]: the other
        states start at m*n + 1, which no path from starts[c] exceeds by section m."""
        cols, tab = np.arange(len(rows)), self.tab
        P = np.full((self.trellis.S, len(rows)), tab.unreachable, dtype=tab.dtype)
        P[starts, cols] = 0
        end = self.sweep(self.r_cols(r_ints, rows), P, bp)
        return (end[starts, cols] >> tab.sh) + self.offset

    def bound(self, r_cols, fwd) -> np.ndarray:
        """Lower bound [S, C] on every constrained s -> s metric of the words r_cols [ell, C],
        given fwd [S, C], the end metrics of a forward sweep from zero: the larger of the best
        metric of a path that ends at s and of a path that starts at s."""
        h0 = self.sweep(r_cols, np.zeros(fwd.shape, self.tab.dtype), None, reverse=True)
        return np.maximum(fwd, (h0 >> self.tab.sh) + self.offset)


def _two_phase_search(kern, r_ints, idx, lb, bp, best_u, best_out, best_dist):
    """Exact search over start states for the rows in idx (rare fallback), given lb, their
    lower bounds (`_Kernel.bound`), and bp, a backpointer buffer [ell, S/2, C]: the best path
    constrained to start and end at s, for the states s whose bound can still win (module
    docstring); the winner (smallest distance, then smallest s) replaces the candidate when
    strictly better or when none exists.  `_forward` traces the winners, C rows at a time, as
    the WAVA candidate of a sweep that starts at the winning state alone (0 there, m*n + 1
    elsewhere).  Returns the mask of replaced rows."""
    states, step = np.arange(kern.trellis.S)[:, None], kern.columns()
    best = best_dist[idx]
    dist = np.full(lb.shape, _LARGE, dtype=np.int64)       # _LARGE: column not swept
    todo = (states == lb.argmin(axis=0)) & (lb < best)      # round 1: the lowest bound per row
    while todo.any():
        s, c = np.nonzero(todo)
        pick = np.argsort(lb[s, c], kind="stable")[:step]
        s, c = s[pick], c[pick]
        dist[s, c] = kern.constrained(r_ints, idx[c], s)
        bd, bs = dist.min(axis=0), dist.argmin(axis=0)
        # the columns that can still win
        todo = (dist == _LARGE) & (lb < best) & ((lb < bd) | ((lb == bd) & (states < bs)))
    win_state, improved = dist.argmin(axis=0), dist.min(axis=0) < best
    won = np.flatnonzero(improved)
    M = np.full((kern.trellis.S, len(won)), kern.tab.unreachable >> kern.tab.sh, np.int64)
    M[win_state[won], np.arange(len(won))] = 0
    _forward(kern, r_ints, idx[won], M, bp, best_dist, best_u, best_out)
    return improved


def _width(rows: int, cap: int) -> int:
    """Columns per block when rows run in the fewest blocks of at most cap columns, as
    even as they go; at least 1."""
    return max(1, -(-rows // max(1, -(-rows // cap))))


def _forward(kern, r_ints, g, M, bp_buf, best_dist, best_u, best_out):
    """One forward sweep of the rows g from start metrics M [S, len(g)], in the fewest
    column blocks that fit the backpointer buffer bp_buf [ell, S/2, cap], of even widths:
    a block's tailbiting candidates that beat best_dist are traced back before the next
    block overwrites it.  Returns the end metrics [S, len(g)]."""
    S, ell, tab = kern.trellis.S, kern.trellis.ell, kern.tab
    step = _width(len(g), bp_buf.shape[2])
    states, ends = np.arange(S, dtype=tab.dtype)[:, None], np.empty(M.shape, np.int64)
    for lo in range(0, len(g), step):
        rows, M_blk = g[lo:lo + step], M[:, lo:lo + step]
        cols = np.arange(len(rows))
        bp = bp_buf.reshape(-1)[:ell * (S >> 1) * len(rows)].reshape(ell, S >> 1, len(rows))
        P = M_blk.astype(tab.dtype)
        P <<= tab.sh
        P |= states
        end = kern.sweep(kern.r_cols(r_ints, rows), P, bp)
        Mend = np.add(end >> tab.sh, kern.offset, out=ends[:, lo:lo + step])
        # a candidate ends where it starts, so its start metric is M_blk at its end state
        cand_dist = np.where((end & (S - 1)) == states, Mend - M_blk, _LARGE)
        s_tb = cand_dist.argmin(axis=0)
        d_tb = cand_dist[s_tb, cols]
        upd = np.flatnonzero(d_tb < best_dist[rows])
        if len(upd):
            start, best_u[rows[upd]], best_out[rows[upd]] = kern.traceback(bp, s_tb[upd], upd)
            if not np.array_equal(start, s_tb[upd]):
                raise AssertionError("tailbiting candidate traceback mismatch")
            best_dist[rows[upd]] = d_tb[upd]
    return ends


def wava_decode_many(trellis: TailbitingTrellis, r_bits: np.ndarray, *,
                     V: int = SWEEPS) -> BatchDecodeResult:
    """Decode a batch of received words with at most V wrap-around sweeps each; rows are
    independent and deterministic.  V is the only sweep cap in the package: every
    caller above the decoder runs at SWEEPS."""
    if V < 1:
        raise ValueError(f"need V >= 1, got {V}")
    r_bits = _bit_rows(r_bits, "received", trellis.N, f"N={trellis.N}")
    B, S, ell = r_bits.shape[0], trellis.S, trellis.ell
    r_ints = _bits_to_section_ints(r_bits, trellis.n)
    kern = _Kernel(trellis)

    best_dist = np.full(B, _LARGE, dtype=np.int64)
    best_u = np.zeros((B, ell), dtype=np.min_scalar_type((1 << trellis.k) - 1))
    best_out = np.zeros_like(r_ints)
    iterations = np.full(B, V, dtype=np.int64)
    converged = np.zeros(B, dtype=bool)
    need = np.zeros(B, dtype=bool)

    step, group = kern.columns(), _width(B, kern.group_rows())
    bp_buf = np.empty((ell, S >> 1, _width(group, step)), dtype=np.uint8)
    for lo in range(0, B, group):
        g = np.arange(lo, min(lo + group, B))          # rows still active
        M = np.zeros((S, len(g)), dtype=np.int64)
        for v in range(1, V + 1):
            Mend = _forward(kern, r_ints, g, M, bp_buf, best_dist, best_u, best_out)
            if v == 1:
                # the certificate's bound (module docstring): the first sweep's minimum, then
                # LB* for the rows that it leaves open, whose LB the exact fallback reuses
                bound = Mend.min(axis=0)
                open_ = np.flatnonzero(best_dist[g] > bound)
                g1, perfect = g[open_], bound[open_] == 0
                if len(open_):
                    lb = np.empty((S, len(open_)), dtype=np.int64)
                    w = _width(len(open_), step)
                    for o in range(0, len(open_), w):
                        blk = open_[o:o + w]
                        lb[:, o:o + len(blk)] = kern.bound(kern.r_cols(r_ints, g[blk]),
                                                           Mend[:, blk])
                    bound[open_] = lb.min(axis=0)
            stop = best_dist[g] == bound                     # an ML candidate
            converged[g[stop]] = True
            iterations[g[stop]] = v
            keep = ~stop
            if not keep.any():
                break
            # compress, not a mask index: masking columns would return column-major arrays
            Mend -= Mend.min(axis=0)
            g, bound = g[keep], bound[keep]
            M = Mend.compress(keep, axis=1)

        # exact fallback: no candidate at all, or a perfect-match path was seen
        # on the first sweep but no candidate reached distance 0
        need[g1] = (best_dist[g1] >= _LARGE) | (perfect & (best_dist[g1] > 0))
        fb = np.flatnonzero(need[g1])
        if len(fb):   # it never replaces a certified candidate, so converged stands
            _two_phase_search(kern, r_ints, g1[fb], lb[:, fb], bp_buf, best_u, best_out, best_dist)

    cw_bits = _ints_to_bits(best_out, trellis.n)
    dist = np.bitwise_count(best_out ^ r_ints).sum(axis=1, dtype=np.int64)
    if not np.array_equal(dist, best_dist):
        raise AssertionError("survivor metric disagrees with recomputed distance")

    msg_bits = _ints_to_bits(best_u, trellis.k)[:, trellis.code.input_index]
    return BatchDecodeResult(msg_bits, cw_bits, dist, iterations, converged, need)
