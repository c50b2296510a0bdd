"""Reference weight enumerator: the state-major block propagation that the
degree-major kernel in ``nestedtbcc.trellis`` replaced, kept as a test
oracle.

Partial-path counts are ``[S, G, L]`` (state, start, degree) tensors; each
section adds the shifted counts of every edge rank with boolean-mask
read-modify-writes grouped by branch weight, in int64 with a max-entry guard
that reruns the block in object dtype on overflow; a block's closed counts
are summed in object dtype, since entries below the guard can sum past int64.
The kernel must reproduce its spectra exactly.
"""

from __future__ import annotations

import numpy as np

from nestedtbcc.trellis import WeightSpectrum, build_trellis

_OVERFLOW_GUARD = 1 << 62


class _Overflow(Exception):
    pass


def _propagate_block(trellis, starts: np.ndarray, L: int, dtype) -> np.ndarray:
    S = trellis.S
    G = len(starts)
    guard = _OVERFLOW_GUARD // max(v.out_degree for v in trellis.views)
    P = np.zeros((S, G, L), dtype=dtype)
    P[starts, np.arange(G), 0] = 1
    for view in (trellis.views[o] for o in trellis.order):
        Pn = np.zeros_like(P)
        for j in range(view.out_degree):
            src = view.in_src[:, j]
            w = view.in_w[:, j]
            for wv in np.unique(w):
                wv = int(wv)
                if wv >= L:
                    continue
                m = w == wv
                if wv:
                    Pn[m, :, wv:] += P[src[m], :, : L - wv]
                else:
                    Pn[m] += P[src[m]]
        P = Pn
        if dtype is np.int64 and P.max(initial=0) > guard:
            raise _Overflow
    return P


def reference_weight_enumerator(code, d_max: int | None = None) -> WeightSpectrum:
    trellis = build_trellis(code)
    if d_max is None:
        d_max = code.N
    L = d_max + 1
    G = int(max(1, min(trellis.S, (8 << 23) // max(1, trellis.S * L))))
    coeffs: dict[int, int] = {}
    for lo in range(0, trellis.S, G):
        starts = np.arange(lo, min(lo + G, trellis.S), dtype=np.int64)
        try:
            P = _propagate_block(trellis, starts, L, np.int64)
        except _Overflow:
            P = _propagate_block(trellis, starts, L, object)
        closed = P[starts, np.arange(len(starts)), :].astype(object).sum(axis=0)
        for d in range(L):
            v = int(closed[d])
            if v:
                coeffs[d] = coeffs.get(d, 0) + v
    return WeightSpectrum(coeffs, d_max, code.N, code.K)
