"""The exhaustive exact fallback of the WAVA decoder, kept as a test oracle.

``exhaustive_constrained`` is the fallback as it was before the two-phase
search: it sweeps every (start state, word) column of every row that reaches
it, then keeps the winner (smallest distance, then smallest start state).
``wava._two_phase_search`` must return the same ``improved`` mask and leave
the same ``best_u``, ``best_out`` and ``best_dist``.  ``CountingKernel``
counts the columns a search sweeps.
"""

import numpy as np

from nestedtbcc import wava


def exhaustive_constrained(kern, r_ints, idx, best_u, best_out, best_dist):
    """Exact search over start states for the rows in idx (rare fallback): for each
    state s the best path constrained to start and end at s; the winner (smallest
    distance, then smallest s) replaces the candidate when strictly better or when none exists."""
    S, Bf, ell = kern.trellis.S, len(idx), kern.trellis.ell
    dist = np.empty(S * Bf, dtype=np.int64)          # column c = (s, row) = divmod(c, Bf)
    step = kern.columns()
    for lo in range(0, S * Bf, step):
        c = np.arange(lo, min(lo + step, S * Bf))
        dist[c] = kern.constrained(r_ints, idx[c % Bf], c // Bf)
    dist = dist.reshape(S, Bf)
    win_state, win_dist = dist.argmin(axis=0), dist.min(axis=0)
    improved = win_dist < best_dist[idx]
    rows = np.flatnonzero(improved)
    step = kern.columns()
    for lo in range(0, len(rows), step):
        blk = rows[lo:lo + step]
        bp = np.empty((ell, S // 2, len(blk)), dtype=kern.tab.bp_dtype)
        kern.constrained(r_ints, idx[blk], win_state[blk], bp)
        start, best_u[idx[blk]], best_out[idx[blk]] = kern.traceback(
            bp, win_state[blk], np.arange(len(blk)))
        if not np.array_equal(start, win_state[blk]):
            raise AssertionError("constrained traceback left the start state")
    best_dist[idx[improved]] = win_dist[improved]
    return improved


class CountingKernel(wava._Kernel):
    """A kernel that counts the columns of its distance sweeps (no backpointers)."""

    swept = 0

    def constrained(self, r_ints, rows, starts, bp=None):
        self.swept += len(rows) if bp is None else 0
        return super().constrained(r_ints, rows, starts, bp)
