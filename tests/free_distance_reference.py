"""Reference free distance: the two heap Dijkstras and the (input, weight)
grouped count DP that the edge-list relaxation in ``nestedtbcc.trellis``
replaced, kept unchanged as a test oracle.

The forward and backward passes walk generator closures over the state
graph one edge at a time; zero-weight edges are collected by a Python double
loop.  The new implementation must return the same ``FreeDistanceReport``.
``has_zero_weight_cycle`` finds a zero-weight cycle wherever it lies, so a
test can count the cycles that the divergence check must ignore.
"""

from __future__ import annotations

import heapq

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from nestedtbcc.encoder import EncoderSpec
from nestedtbcc.trellis import FreeDistanceReport

_OVERFLOW_GUARD = 1 << 62


def _dijkstra(S: int, relax_edges, sources: list[tuple[int, int]]) -> np.ndarray:
    """Plain Dijkstra over states 1..S-1; sources are (state, weight) seeds."""
    INF = np.iinfo(np.int64).max
    dist = np.full(S, INF, dtype=np.int64)
    heap = []
    for s, w in sources:
        if w < dist[s]:
            dist[s] = w
            heapq.heappush(heap, (w, s))
    while heap:
        w, s = heapq.heappop(heap)
        if w > dist[s]:
            continue
        for t, we in relax_edges(s):
            nw = w + we
            if nw < dist[t]:
                dist[t] = nw
                heapq.heappush(heap, (nw, int(t)))
    return dist


def has_zero_weight_cycle(spec: EncoderSpec) -> bool:
    """Whether the zero-weight edges between nonzero states hold a cycle,
    on a minimal detour or not: a self-loop or a strongly connected
    component of two or more states."""
    nxt, out_int = spec.transitions
    S = 1 << spec.m
    src = np.repeat(np.arange(S), nxt.shape[1])
    dst = nxt.ravel()
    zero = (np.bitwise_count(out_int).ravel() == 0) & (src != 0) & (dst != 0)
    zr, zc = src[zero], dst[zero]
    if np.any(zr == zc):
        return True
    g = csr_matrix((np.ones(len(zr), dtype=np.int8), (zr, zc)), shape=(S, S))
    _, labels = connected_components(g, directed=True, connection="strong")
    return bool(np.bincount(labels).max() >= 2)


def reference_free_distance(spec: EncoderSpec) -> FreeDistanceReport:
    """Exact d_free and A_free by weight-bounded search over the state graph."""
    nxt, out_int = spec.transitions
    out_w = np.bitwise_count(out_int).astype(np.int64)
    S = 1 << spec.m
    nu = 1 << spec.k

    if spec.C.is_zero() and spec.D_tilde.is_zero():
        return FreeDistanceReport(0, None, degenerate=True)

    # forward pass: cheapest way to reach each nonzero state after leaving 0
    seeds = []
    direct = []  # single-edge detours 0 -> 0 with u != 0
    for u in range(1, nu):
        t, w = int(nxt[0, u]), int(out_w[0, u])
        if t == 0:
            direct.append(w)
        else:
            seeds.append((t, w))

    def fwd_edges(s: int):
        for u in range(nu):
            t = int(nxt[s, u])
            if t != 0:
                yield t, int(out_w[s, u])

    dist_from = _dijkstra(S, fwd_edges, seeds)

    # backward pass: cheapest completion from each nonzero state back to 0
    radj: list[list[tuple[int, int]]] = [[] for _ in range(S)]
    for s in range(1, S):
        for u in range(nu):
            radj[int(nxt[s, u])].append((s, int(out_w[s, u])))

    def bwd_edges(s: int):
        for p, we in radj[s]:
            yield p, we

    dist_to = _dijkstra(S, bwd_edges, [(p, w) for p, w in radj[0]])

    INF = np.iinfo(np.int64).max
    best = min(direct, default=INF)
    for s in range(1, S):
        if dist_from[s] < INF and dist_to[s] < INF:
            best = min(best, int(dist_from[s] + dist_to[s]))
    d_free = int(best)
    if d_free == 0:
        return FreeDistanceReport(0, None, degenerate=True)

    # a zero-weight cycle on a minimal detour makes A_free infinite
    zr, zc = [], []
    zero_self = np.zeros(S, dtype=bool)
    for s in range(1, S):
        for u in range(nu):
            t = int(nxt[s, u])
            if t != 0 and out_w[s, u] == 0:
                if t == s:
                    zero_self[s] = True
                zr.append(s)
                zc.append(t)
    if zr:
        g = csr_matrix((np.ones(len(zr), dtype=np.int8), (zr, zc)), shape=(S, S))
        ncomp, labels = connected_components(g, directed=True, connection="strong")
        sizes = np.bincount(labels, minlength=ncomp)
        on_cycle = zero_self | (sizes[labels] >= 2)
        on_cycle[0] = False
        z = np.flatnonzero(on_cycle)
        if len(z) and np.any(
            (dist_from[z] < INF) & (dist_to[z] < INF)
            & (dist_from[z] + dist_to[z] <= d_free)
        ):
            return FreeDistanceReport(d_free, None, divergent=True)

    # count minimal first-return detours with a (state, weight)-bounded DP;
    # mass that cannot complete within the remaining budget is pruned, which
    # both keeps the count exact and guarantees the frontier dies out
    W = d_free
    wrange = np.arange(W + 1, dtype=np.int64)
    can_finish = dist_to[:, None] <= (W - wrange)[None, :]
    f = np.zeros((S, W + 1), dtype=np.int64)
    a_free = sum(1 for w in direct if w == d_free)
    for t, w in seeds:
        if w <= W:
            f[t, w] += 1
    f *= can_finish
    # pre-group inner edges by (input, branch weight) and completion edges
    inner_groups = []
    comp_src = []
    comp_rem = []
    for u in range(nu):
        s_all = np.arange(1, S, dtype=np.int64)
        to = nxt[s_all, u]
        w = out_w[s_all, u]
        done = to == 0
        rem = W - w[done]
        ok = rem >= 0
        comp_src.append(s_all[done][ok])
        comp_rem.append(rem[ok])
        s_in = s_all[~done]
        w_in = w[~done]
        for wv in np.unique(w_in):
            wv = int(wv)
            sel = s_in[w_in == wv]
            inner_groups.append((wv, sel, nxt[sel, u]))
    comp_src = np.concatenate(comp_src) if comp_src else np.empty(0, dtype=np.int64)
    comp_rem = np.concatenate(comp_rem) if comp_rem else np.empty(0, dtype=np.int64)
    max_steps = S * (W + 1) + 2
    for _ in range(max_steps):
        # completions into state 0 at exact weight d_free
        if len(comp_src):
            a_free += int(f[comp_src, comp_rem].sum())
        if not f.any():
            break
        fn = np.zeros_like(f)
        for wv, sel, dst in inner_groups:
            if wv > W:
                continue
            if wv:
                np.add.at(fn[:, wv:], dst, f[sel, : W + 1 - wv])
            else:
                np.add.at(fn, dst, f[sel])
        f = fn * can_finish
        if f.max(initial=0) > _OVERFLOW_GUARD // nu:
            raise RuntimeError("detour count exceeds the int64 budget")
    else:
        raise AssertionError("detour DP failed to terminate")
    return FreeDistanceReport(d_free, int(a_free))
