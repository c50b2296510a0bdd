"""The gather-form add-compare-select of the WAVA kernel, kept as a test oracle.

Before the pair form, every section of a sweep gathered, for each of the A
incoming edges of every state, the predecessor's row of keys and the edge's
(branch metric | rank j) row, added them and took one min over the A edges.
``GatherTables`` holds that form's tables (``sections`` forward over
in-edges, ``reverse`` backward over out-edges) and ``gather_sweep`` is its
sweep, both as they were in ``nestedtbcc.wava`` apart from allocating their
buffers per call.  The keys use the kernel's packing (``wava._Tables``
fields ``sh``, ``ob``, ``jmask``, ``dtype``), so the pair-form sweep must
leave the same end keys and backpointers bit for bit.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np


class GatherTables:
    """lut[o * A + j, r] = bm(o, r) << sh | j << ob; per section the predecessors [A, S]
    and each edge's lut row [A, S] (forward), or per section last to first the successors
    [A, S] and lut rows [A, S] (``reverse``)."""

    def __init__(self, trellis, tab):
        S, n = trellis.S, trellis.n
        self.S, self.A, self.tab = S, tab.A, tab
        A = tab.A
        o, j = np.divmod(np.arange(A << n), A)
        bm = np.bitwise_count(o[:, None] ^ np.arange(1 << n)).astype(np.int64)
        self.lut = ((bm << tab.sh) | (j[:, None] << tab.ob)).astype(tab.dtype)
        tables: dict[int, tuple] = {}
        for view in trellis.views:
            if id(view) not in tables:
                tables[id(view)] = (np.ascontiguousarray(view.in_src.T),
                                    view.in_out.T * A + np.arange(view.out_degree)[:, None])
        self.sections = [tables[id(trellis.views[o])] for o in trellis.order]
        self.transitions = trellis.next_state, trellis.out_int
        self.inputs = [trellis.views[o].inputs for o in trellis.order]

    @cached_property
    def reverse(self) -> list[tuple]:
        (next_state, out_int), tables = self.transitions, {}
        for u in self.inputs:
            if id(u) not in tables:
                tables[id(u)] = (np.ascontiguousarray(next_state[:, u].T),
                                 out_int[:, u].T * self.A + np.arange(len(u))[:, None])
        return [tables[id(u)] for u in reversed(self.inputs)]


def gather_sweep(gt: GatherTables, r_cols, P, bp, reverse=False):
    """One sweep of packed keys P [S, C] (updated in place) over blocks r_cols [ell, C], or
    over the reversed sections and blocks when reverse; bp[t] receives the key bits from j
    up, truncated to bp's width."""
    tab, S, C = gt.tab, gt.S, P.shape[1]
    clear = ~(tab.jmask << tab.ob)
    sections = gt.reverse if reverse else gt.sections
    if reverse:
        r_cols = r_cols[::-1]
    lut_r = np.empty((gt.lut.shape[0], C), tab.dtype)
    keys, preds = np.empty((gt.A, S, C), tab.dtype), np.empty((gt.A, S, C), tab.dtype)
    for t, (src, lut_rows) in enumerate(sections):
        key, pred = keys[:len(src)], preds[:len(src)]
        gt.lut.take(r_cols[t], axis=1, out=lut_r, mode="clip")
        lut_r.take(lut_rows, axis=0, out=key, mode="clip")
        key += P.take(src, axis=0, out=pred, mode="clip")
        np.minimum.reduce(key, axis=0, out=P)
        if bp is not None:
            np.right_shift(P, tab.ob, out=bp[t], casting="unsafe")
        P &= clear
    return P
