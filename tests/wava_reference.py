"""Reference WAVA decoder: the row-major implementation that the packed-key
kernel in ``nestedtbcc.wava`` replaced, kept unchanged (apart from taking V
directly and reading the unfrozen inputs of each section from the freezing
schedule) as a test oracle.

Metrics are batch-major ``[B, S]``; each section builds ``[B, S, A]``
candidates and takes ``argmin`` over the edge axis (first minimum, i.e. the
smaller input, then the smaller source state); traceback is a Python loop per
row; the exact fallback reruns one Viterbi pass per start state.  The new
kernel must reproduce all five ``BatchDecodeResult`` arrays exactly.
"""

from __future__ import annotations

import numpy as np

from nestedtbcc.wava import BatchDecodeResult

_LARGE = 1 << 40


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


def _branch_metrics(view, r_col: np.ndarray) -> np.ndarray:
    # [B, S, A] Hamming distances between edge outputs and the received block
    return np.bitwise_count(view.in_out[None, :, :] ^ r_col[:, None, None]).astype(np.int64)


def _sections(trellis) -> list:
    """The view of each section t, views[order[t]]."""
    return [trellis.views[o] for o in trellis.order]


def _viterbi_pass(trellis, r_ints, M0, record_bp):
    """One Viterbi sweep.  Returns (M_end, origin, bp or None)."""
    B = r_ints.shape[0]
    S = trellis.S
    M = M0.copy()
    origin = np.broadcast_to(np.arange(S, dtype=np.int64), (B, S)).copy()
    bp = None
    if record_bp:
        bp_dtype = np.int8 if max(v.out_degree for v in trellis.views) <= 127 else np.int16
        bp = np.empty((trellis.ell, B, S), dtype=bp_dtype)
    rows = np.arange(B)[:, None]
    for t, view in enumerate(_sections(trellis)):
        cand = M[:, view.in_src] + _branch_metrics(view, r_ints[:, t])
        j = cand.argmin(axis=2)
        M = np.take_along_axis(cand, j[:, :, None], axis=2)[:, :, 0]
        src = view.in_src[np.arange(S)[None, :], j]
        origin = origin[rows, src]
        if record_bp:
            bp[t] = j
    return M, origin, bp


def _traceback(trellis, bp, b: int, end_state: int):
    """Follow backpointers from end_state; returns (start, u_ints, out_ints)."""
    s = int(end_state)
    u_ints = np.zeros(trellis.ell, dtype=np.int64)
    out_ints = np.zeros(trellis.ell, dtype=np.int64)
    for t in range(trellis.ell - 1, -1, -1):
        view = trellis.views[trellis.order[t]]
        j = int(bp[t, b, s])
        u_ints[t] = view.in_u[s, j]
        out_ints[t] = view.in_out[s, j]
        s = int(view.in_src[s, j])
    return s, u_ints, out_ints


def _exhaustive_constrained(trellis, r_ints, idx, best_u, best_out, best_dist):
    """Exact search over start states for the rows in idx (rare fallback).

    For each state s the best path constrained to start and end at s is
    evaluated; the winner (smallest distance, then smallest s) replaces the
    current candidate when strictly better or when none exists.
    """
    sub = r_ints[idx]
    Bf = len(idx)
    S = trellis.S
    bms = [_branch_metrics(view, sub[:, t]) for t, view in enumerate(_sections(trellis))]

    win_dist = np.full(Bf, _LARGE, dtype=np.int64)
    win_state = np.full(Bf, -1, dtype=np.int64)
    for s in range(S):
        M = np.full((Bf, S), _LARGE, dtype=np.int64)
        M[:, s] = 0
        for t, view in enumerate(_sections(trellis)):
            cand = M[:, view.in_src] + bms[t]
            M = cand.min(axis=2)
        better = M[:, s] < win_dist
        win_dist[better] = M[better, s]
        win_state[better] = s

    improved = np.zeros(Bf, dtype=bool)
    for s in np.unique(win_state):
        rows = np.flatnonzero(win_state == s)
        M = np.full((Bf, S), _LARGE, dtype=np.int64)
        M[:, s] = 0
        _, _, bp = _viterbi_pass_sub(trellis, bms, M)
        for rb in rows:
            start, u_ints, out_ints = _traceback(trellis, bp, int(rb), int(s))
            if start != s:
                raise AssertionError("constrained traceback left the start state")
            b = idx[rb]
            if win_dist[rb] < best_dist[b]:
                best_dist[b] = win_dist[rb]
                best_u[b] = u_ints
                best_out[b] = out_ints
                improved[rb] = True
    return improved


def _viterbi_pass_sub(trellis, bms, M0):
    """Viterbi sweep from explicit start metrics with precomputed branch metrics."""
    B, S = M0.shape
    M = M0.copy()
    bp_dtype = np.int8 if max(v.out_degree for v in trellis.views) <= 127 else np.int16
    bp = np.empty((trellis.ell, B, S), dtype=bp_dtype)
    for t, view in enumerate(_sections(trellis)):
        cand = M[:, view.in_src] + bms[t]
        j = cand.argmin(axis=2)
        M = np.take_along_axis(cand, j[:, :, None], axis=2)[:, :, 0]
        bp[t] = j
    return M, None, bp


def reference_decode_many(trellis, r_bits: np.ndarray, V: int = 4) -> BatchDecodeResult:
    """The decoder as it was before the packed-key kernel, row-major and unbatched."""
    r_bits = np.asarray(r_bits, dtype=np.uint8)
    if r_bits.ndim != 2 or r_bits.shape[1] != trellis.N:
        raise ValueError(f"received words must be [B, {trellis.N}], got {r_bits.shape}")
    B = r_bits.shape[0]
    S = trellis.S
    if B == 0:
        return BatchDecodeResult(
            np.zeros((0, trellis.K), dtype=np.uint8),
            np.zeros((0, trellis.N), dtype=np.uint8),
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=bool),
        )
    r_ints = _bits_to_section_ints(r_bits, trellis.n)

    best_dist = np.full(B, _LARGE, dtype=np.int64)
    best_u = np.zeros((B, trellis.ell), dtype=np.int64)
    best_out = np.zeros((B, trellis.ell), dtype=np.int64)
    iterations = np.full(B, V, dtype=np.int64)
    converged = np.zeros(B, dtype=bool)
    active = np.ones(B, dtype=bool)
    min_metric_iter1 = np.zeros(B, dtype=np.int64)
    prev_tuple = np.full((B, 3), -1, dtype=np.int64)

    M = np.zeros((B, S), dtype=np.int64)
    rows = np.arange(B)[:, None]
    for v in range(1, V + 1):
        if not active.any():
            break
        Mstart = M
        Mend, origin, bp = _viterbi_pass(trellis, r_ints, Mstart, record_bp=True)
        blockdist = Mend - Mstart[rows, origin]
        tb = origin == np.arange(S)[None, :]

        cand_dist = np.where(tb, blockdist, _LARGE)
        s_tb = cand_dist.argmin(axis=1)
        d_tb = cand_dist[np.arange(B), s_tb]
        for b in np.flatnonzero(active & (d_tb < best_dist)):
            start, u_ints, out_ints = _traceback(trellis, bp, int(b), int(s_tb[b]))
            if start != s_tb[b]:
                raise AssertionError("tailbiting candidate traceback mismatch")
            best_dist[b] = d_tb[b]
            best_u[b] = u_ints
            best_out[b] = out_ints

        s_best = Mend.argmin(axis=1)
        if v == 1:
            min_metric_iter1 = Mend.min(axis=1)
        best_is_tb = tb[np.arange(B), s_best]
        cur_tuple = np.stack(
            [s_best, origin[np.arange(B), s_best], blockdist[np.arange(B), s_best]], axis=1
        )
        if v == 1:
            # uniform start metrics: a tailbiting best survivor is provably ML
            stop = best_is_tb
        else:
            stop = best_is_tb & (cur_tuple == prev_tuple).all(axis=1)
        stop |= best_dist == 0  # a zero-distance codeword cannot be beaten
        newly = active & stop
        converged[newly] = True
        iterations[newly] = v
        active &= ~stop
        prev_tuple = cur_tuple
        M = Mend - Mend.min(axis=1, keepdims=True)

    # exact fallback: no candidate at all, or a perfect-match path was seen
    # on the first sweep but no candidate reached distance 0
    need = (best_dist >= _LARGE) | ((min_metric_iter1 == 0) & (best_dist > 0))
    idx = np.flatnonzero(need)
    if len(idx):
        improved = _exhaustive_constrained(trellis, r_ints, idx, best_u, best_out, best_dist)
        converged[idx[improved]] = False

    cw_bits = _ints_to_bits(best_out, trellis.n)
    dist = np.bitwise_count((best_out ^ r_ints).astype(np.uint64)).sum(axis=1).astype(np.int64)
    if not np.array_equal(dist, best_dist):
        raise AssertionError("survivor metric disagrees with recomputed distance")

    msg_bits = np.zeros((B, trellis.K), dtype=np.uint8)
    off = 0
    for t, frozen in enumerate(trellis.code.schedule.frozen):
        for pos in range(trellis.k):
            if pos not in frozen:
                msg_bits[:, off] = ((best_u[:, t] >> pos) & 1).astype(np.uint8)
                off += 1
    return BatchDecodeResult(msg_bits, cw_bits, dist, iterations, converged)
