"""Reference union bound: the per-degree loop that the segment-wise evaluator
in ``nestedtbcc.bounds`` replaced, kept unchanged as a test oracle.

Each degree's half tail is computed on its own from rows of exact
log-binomials ``math.log(math.comb(d, i))``, cached by degree, and the terms
are summed by ``math.fsum``.  The new ``union_bound_pb`` must stay within a
relative 1e-12 of ``union_bound_pb`` here, and ``solve_crossover`` must
return the same float as the unchanged bisection below, run over this bound.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from nestedtbcc.bounds import (
    CROSSOVER_FLOOR,
    CROSSOVER_MAX_ITER,
    CROSSOVER_REL_TOL,
    above_band,
)
from nestedtbcc.trellis import WeightSpectrum


@lru_cache(maxsize=1024)
def _half_tail_rows(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The p-independent rows of _log_half_tail: i, d - i and log C(d, i)."""
    i = np.arange((d + 1) // 2, d + 1, dtype=np.float64)
    rows = (i, d - i, np.array([math.log(math.comb(d, int(j))) for j in i]))
    for r in rows:
        r.setflags(write=False)
    return rows


def _log_half_tail(d: int, p: float) -> float:
    """log of sum_{i=ceil(d/2)}^{d} C(d,i) p^i (1-p)^(d-i)."""
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return 0.0
    i, d_minus_i, logc = _half_tail_rows(d)
    terms = logc + i * math.log(p) + d_minus_i * math.log1p(-p)
    mx = float(terms.max())
    return mx + math.log(float(np.exp(terms - mx).sum()))


def union_bound_pb(spectrum: WeightSpectrum, p_c: float) -> float:
    """Spectrum-weighted union bound on the ML block-error probability.

    Sums A_d * P[Bin(d, p_c) >= ceil(d/2)] from the smallest nonzero-weight
    coefficient up to the spectrum's truncation weight.
    """
    if not 0.0 <= p_c <= 0.5:
        raise ValueError(f"p_c must be in [0, 0.5], got {p_c}")
    dmin = spectrum.d_min()
    if dmin is None:
        raise ValueError("spectrum has no nonzero-weight term")
    if p_c == 0.0:
        return 0.0
    terms = []
    for d, a_d in spectrum.items():
        if d < dmin:
            continue
        lt = math.log(a_d) + _log_half_tail(d, p_c)
        terms.append(math.exp(lt) if lt > -745.0 else 0.0)
    return math.fsum(terms)


def solve_crossover(spectrum: WeightSpectrum, target_pb: float) -> float:
    """The bisection of ``nestedtbcc.bounds.solve_crossover`` over the bound above."""
    if target_pb <= 0.0:
        raise ValueError(f"target must be positive, got {target_pb}")
    top = union_bound_pb(spectrum, 0.5)
    if target_pb >= top * (1.0 - 1e-12):
        if target_pb <= top * (1.0 + 1e-9):
            return 0.5
        raise ValueError(
            f"target {target_pb} unreachable: bound at p=0.5 is {top}"
        )
    lo, hi = CROSSOVER_FLOOR, 0.5
    if union_bound_pb(spectrum, lo) >= target_pb:
        return lo
    for _ in range(CROSSOVER_MAX_ITER):
        mid = 0.5 * (lo + hi)
        val = union_bound_pb(spectrum, mid)
        if above_band(val, target_pb):
            hi = mid
        elif target_pb - val > CROSSOVER_REL_TOL * target_pb:
            lo = mid
        else:
            return mid
    return lo
