"""Tailbiting trellis, weight-enumerator, and free-distance computations.

Every section of the trellis is a butterfly of the one shift register, so its
in-edges have a closed form in three rows of the transition table, bu =
next_state[0], du = out_int[0] and so = out_int[:, 0].  next_state(s, u) =
(s << 1 & (S - 1)) ^ bu[u], so states s and s ^ S/2 reach the same targets;
input 0 is the register input, never frozen, so the admissible inputs come in
classes of two, 2c and 2c + 1, that differ only in the bit shifted in.  In the
a-th admissible class (ascending), target x is reached by the input
u = 2c | ((x ^ bu[2c]) & 1) from the sources ((x ^ bu[u]) >> 1) + h*S/2,
h = 0, 1, at rank j = 2a + h (input, then source), with output
so[src] ^ du[u].

The weight enumerator A(X) of a tailbiting code is the trace of the product of
the sections' transition matrices, whose entries are weight monomials; it
propagates truncated weight polynomials along the trellis, one block of starts
at a time.  Targets x and x ^ 1 have the same in-edges (input u ^ 1, same
sources and output), so after a section every count vector is equal on 2X and
2X + 1: counts are kept per pair X < H = S/2, and start X stands for both
states.  Pair X reads N(2X->2X) + N(2X+1->2X) = N(2X->2X) + N(2X+1->2X+1),
as the last section's targets share their in-edges, so the trace is
unchanged.  Row d*H + X of an [H*L + 1, G] array (the last row is zero) holds
weight d for each of G starts, so a section is one precomputed row gather per
edge rank plus adds over the live degree prefix.  The three arrays (current,
next, scratch) start in int32 and widen one step at a time, to int64 and then
to Python integers, only when the next section could pass 2^31 - 1 (then
2^62): a bound on every entry is multiplied by each section's out-degree and
refreshed from the largest entry when it would pass the limit.  A widening
frees the next and scratch arrays, copies the current one to the wider type
and makes the other two anew.  G keeps the arrays within _BUDGET_BYTES.

free_distance relaxes one edge list of the state graph min-plus (weights to
and from state 0) and keeps the tight edges, those that lie on a detour of
weight d_free.  A cycle among them makes A_free infinite; otherwise they form
a DAG and A_free is a count of paths through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .encoder import EncoderSpec, TailbitingCode

_OVERFLOW_GUARD = 1 << 62
# largest entry the enumerator lets each integer dtype reach
_INT_LIMITS = {np.dtype(np.int32): (1 << 31) - 1, np.dtype(np.int64): _OVERFLOW_GUARD}
_WIDER = {np.dtype(np.int32): np.int64, np.dtype(np.int64): object}
# the weight enumerator's three [H*L + 1, G] arrays, counted at int64 width,
# fit in this many bytes; it caps the start-pair block G
_BUDGET_BYTES = 8 << 20


@dataclass(frozen=True)
class SectionView:
    """Edge tables of one trellis section, restricted to its admissible inputs.

    Incoming edges of every state are stored in tie-break order: ascending
    input int (the input tuple read little-endian), then ascending source
    state.  in_* arrays have shape [2^m, A] with A the admissible input count.
    """

    inputs: np.ndarray    # [A] admissible input ints, ascending
    in_src: np.ndarray    # [S, A]
    in_u: np.ndarray      # [S, A]
    in_out: np.ndarray    # [S, A]
    in_w: np.ndarray      # [S, A] Hamming weight of in_out

    @property
    def out_degree(self) -> int:
        return len(self.inputs)


class TailbitingTrellis:
    """ell-section circular trellis of a TailbitingCode with 2^m states."""

    def __init__(self, code: TailbitingCode):
        self.code = code
        spec = code.spec
        self.S = 1 << spec.m
        self.n = spec.n
        self.k = spec.k
        self.ell = code.ell
        self.N = code.N
        self.K = code.K

        # forward tables over the full input alphabet
        self.next_state, self.out_int = spec.transitions

        # the distinct sections once, keyed by frozen set in order of first use,
        # and per section t the index of its view: section t is views[order[t]]
        index: dict[frozenset[int], int] = {}
        self.views: list[SectionView] = []
        self.order: list[int] = []
        u = np.arange(1 << spec.k, dtype=np.int64)
        for fs in code.schedule.frozen:
            if fs not in index:
                index[fs] = len(self.views)
                self.views.append(self._build_view(u[(u & sum(1 << i for i in fs)) == 0]))
            self.order.append(index[fs])

    def _build_view(self, inputs: np.ndarray) -> SectionView:
        """The view of a section with these admissible inputs, in closed form."""
        S, A = self.S, len(inputs)
        # every state has in-degree exactly A (the register input makes the bit
        # shifted in a balanced function of the admissible inputs)
        if not (np.bincount(self.next_state[:, inputs].ravel(), minlength=S) == A).all():
            raise AssertionError("trellis in-degree is not uniform")
        bu, du, so = self.next_state[0], self.out_int[0], self.out_int[:, 0]
        x = np.arange(S, dtype=np.int64)[:, None]   # target; columns are ranks j = 2a + h
        u = np.repeat(inputs[0::2] | ((x ^ bu[inputs[0::2]]) & 1), 2, axis=1)
        src = ((x ^ bu[u]) >> 1) + (S >> 1) * (np.arange(A) & 1)
        out = so[src] ^ du[u]
        view = SectionView(inputs, src, u, out, np.bitwise_count(out).astype(np.int64))
        for a in (inputs, src, u, out, view.in_w):
            a.setflags(write=False)
        return view


@lru_cache(maxsize=64)
def build_trellis(code: TailbitingCode) -> TailbitingTrellis:
    """Build (and memoize) the tailbiting trellis of a code."""
    return TailbitingTrellis(code)


@dataclass(frozen=True)
class WeightSpectrum:
    """Coefficients A_d of the weight enumerator, possibly weight-truncated.

    When the encoder is non-injective the coefficients count tailbiting
    paths rather than distinct codewords, which A_0 > 1 flags.
    """

    coeffs: dict[int, int]
    d_max: int
    block_length: int
    dimension: int

    @property
    def truncated(self) -> bool:
        return self.d_max < self.block_length

    def a(self, d: int) -> int:
        return self.coeffs.get(d, 0)

    def d_min(self) -> int | None:
        nz = [d for d, v in self.coeffs.items() if d >= 1 and v > 0]
        return min(nz) if nz else None

    def items(self) -> list[tuple[int, int]]:
        return sorted(self.coeffs.items())


def _gathers(view: SectionView, H: int, L: int) -> tuple[list[np.ndarray], int]:
    """Gather rows of one section view in the degree-major pair layout.

    Row d*H + X of the j-th array is the row (d - w)*H + (src >> 1) of the
    j-th incoming edge (src, weight w) of state 2X, or the zero row H*L when
    d < w.  Also returns the view's largest edge weight.
    """
    d = np.arange(L, dtype=np.int64)[:, None]
    src, w = view.in_src[0::2].T[:, None] >> 1, view.in_w[0::2].T[:, None]  # [A, 1, H]
    rows = np.where(d >= w, (d - w) * H + src, H * L).reshape(len(w), -1)
    return list(rows), int(w.max())


def _closed_paths(
    trellis: TailbitingTrellis, gathers: list, starts: np.ndarray, L: int
) -> np.ndarray:
    """Closed-path counts by output weight (< L) summed over a block of pairs.

    P[d*H + X, g] counts the partial paths from both states of pair starts[g]
    that reach state 2X (equally 2X + 1) with output weight d; Q receives the
    next section and T is scratch.  `bound` bounds every entry of P; the
    module docstring gives the widening rule.
    """
    H, g = trellis.S >> 1, len(starts)
    # the scratch T, which never swaps, is made first: the arrays a widening
    # frees then sit next to each other, so the wide copies can reuse them
    T = np.empty((H * L + 1, g), dtype=np.int32)
    Q = np.zeros_like(T)  # rows at or above the live prefix stay zero
    P = np.zeros_like(T)
    P[starts, np.arange(g)] = 1
    live, bound = 1, 1
    for o in trellis.order:
        rows, max_w = gathers[o]
        A = len(rows)  # one gather per edge rank
        limit = _INT_LIMITS.get(P.dtype)
        if limit is not None and bound * A > limit:
            bound = int(P[: live * H].max())
            if bound * A > limit:
                del Q, T  # freed first: the copy then holds less than the wide arrays
                P = P.astype(_WIDER[P.dtype])
                Q, T = np.zeros_like(P), np.empty_like(P)
        bound *= A
        live = min(L, live + max_w)
        n = live * H
        np.take(P, rows[0][:n], axis=0, out=Q[:n], mode="clip")
        for r in rows[1:]:
            np.take(P, r[:n], axis=0, out=T[:n], mode="clip")
            Q[:n] += T[:n]
        P, Q = Q, P
    # summed as Python integers: the total over the block may pass int64
    return P[np.arange(L)[:, None] * H + starts, np.arange(g)].sum(axis=1, dtype=object)


def weight_enumerator(code: TailbitingCode, d_max: int | None = None) -> WeightSpectrum:
    """Distance spectrum of a tailbiting code, exact up to weight d_max.

    Coefficients are exact integers (int32 and int64 fast paths, arbitrary
    precision past int64).  d_max defaults to the full block length N.
    """
    trellis = build_trellis(code)
    if d_max is None:
        d_max = code.N
    if d_max < 0:
        raise ValueError(f"d_max={d_max} is negative")
    if d_max > code.N:
        raise ValueError(f"d_max={d_max} exceeds block length N={code.N}")
    H, L = trellis.S >> 1, d_max + 1
    gathers = [_gathers(v, H, L) for v in trellis.views]
    G = max(1, min(H, _BUDGET_BYTES // (3 * 8 * (H * L + 1))))
    coeffs: dict[int, int] = {}
    for lo in range(0, H, G):
        starts = np.arange(lo, min(lo + G, H), dtype=np.int64)
        for d, v in enumerate(_closed_paths(trellis, gathers, starts, L)):
            if v:
                coeffs[d] = coeffs.get(d, 0) + v
    return WeightSpectrum(coeffs, d_max, code.N, code.K)


@dataclass(frozen=True)
class FreeDistanceReport:
    """Minimum detour weight of an encoder and its multiplicity.

    A detour leaves the zero state at a fixed time origin with a nonzero
    input tuple and is counted up to its first return to the zero state.
    degenerate: a nonzero input sequence with all-zero output exists
    (d_free = 0).  divergent: infinitely many minimum-weight detours exist
    (a zero-weight cycle lies on a minimal detour); A_free is None then.
    """

    d_free: int
    a_free: int | None
    degenerate: bool = False
    divergent: bool = False


def _relax(dist: np.ndarray, src: np.ndarray, dst: np.ndarray, w: np.ndarray) -> None:
    """Min-plus Bellman-Ford in place: dist[dst] = min(dist[dst], dist[src] + w)
    over every edge, repeated until no entry changes (weights are >= 0)."""
    while True:
        prev = dist.copy()
        np.minimum.at(dist, dst, dist[src] + w)
        if np.array_equal(dist, prev):
            return


def free_distance(spec: EncoderSpec) -> FreeDistanceReport:
    """Exact d_free and A_free: min-plus distances to and from state 0, then a
    count of the detours that use only edges of minimal detours."""
    nxt, out_int = spec.transitions
    out_w = np.bitwise_count(out_int).astype(np.int64)
    S, nu = 1 << spec.m, 1 << spec.k

    # leaving state 0 by a nonzero input: a one-edge detour or a seed
    t0, w0 = nxt[0, 1:], out_w[0, 1:]
    direct, seed_dst, seed_w = w0[t0 == 0], t0[t0 != 0], w0[t0 != 0]
    # every edge out of a nonzero state, split into inner and return edges
    src = np.repeat(np.arange(1, S, dtype=np.int64), nu)
    dst, w = nxt[1:].ravel(), out_w[1:].ravel()
    inner = dst != 0
    src_in, dst_in, w_in = src[inner], dst[inner], w[inner]
    ret_src, ret_w = src[~inner], w[~inner]

    # cheapest way to reach each nonzero state after leaving 0, and cheapest
    # completion from it back to 0; unreached states keep INF (INF + INF fits)
    INF = np.iinfo(np.int64).max // 2
    dist_from = np.full(S, INF, dtype=np.int64)
    np.minimum.at(dist_from, seed_dst, seed_w)
    _relax(dist_from, src_in, dst_in, w_in)
    dist_to = np.full(S, INF, dtype=np.int64)
    np.minimum.at(dist_to, ret_src, ret_w)
    _relax(dist_to, dst_in, src_in, w_in)
    through = dist_from + dist_to
    d_free = int(min(direct.min(initial=INF), through.min()))
    if d_free == 0:
        return FreeDistanceReport(0, None, degenerate=True)

    # a detour weighs d_free iff every edge on it is tight: both ends have
    # through == d_free and dist_from grows by the edge's weight.  A cycle of
    # tight edges therefore weighs zero and lies on a minimal detour, which
    # makes A_free infinite; a directed graph has a cycle iff in-degree-zero
    # peeling leaves an edge
    on_min = through == d_free
    tight = on_min[src_in] & on_min[dst_in] & (dist_from[src_in] + w_in == dist_from[dst_in])
    ts, td = src_in[tight], dst_in[tight]
    zs, zd = ts, td
    while len(zs):
        live = np.isin(zs, zd)
        if live.all():
            return FreeDistanceReport(d_free, None, divergent=True)
        zs, zd = zs[live], zd[live]

    # count tight paths from tight seeds to tight returns; the tight edges
    # form a DAG on the S - 1 nonzero states, so the frontier dies out
    seed = on_min[seed_dst] & (seed_w == dist_from[seed_dst])
    f = np.bincount(seed_dst[seed], minlength=S).astype(np.int64)
    ret = ret_src[on_min[ret_src] & (dist_to[ret_src] == ret_w)]
    a_free = int(np.count_nonzero(direct == d_free))
    for _ in range(S):
        # completions into state 0 at exact weight d_free
        a_free += int(f[ret].sum())
        if not f.any():
            break
        fn = np.zeros_like(f)
        np.add.at(fn, td, f[ts])
        f = fn
        if f.max() > _OVERFLOW_GUARD // nu:
            raise RuntimeError("detour count exceeds the int64 budget")
    else:
        raise AssertionError("detour count failed to terminate")
    return FreeDistanceReport(d_free, a_free)
