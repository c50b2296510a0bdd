"""Reference subcode search: the loop that certified pruning in
``nestedtbcc.design.search_fec`` replaced, kept as a test oracle.

Every candidate is enumerated up to the full truncation weight and solved by
``solve_crossover``; nothing is pruned.  The edits since are the ``pruned=0``
argument the result type gained, and plain arguments in place of a config
object with the winner's doubled-truncation recheck dropped, as in
``search_fec``.  The pruned search must return the same winner, crossover,
spectrum and skip count, and the same value for every candidate it scores.
"""

from __future__ import annotations

from typing import Sequence

from nestedtbcc.bounds import solve_crossover
from nestedtbcc.design import DesignFailure, FecSearchResult
from nestedtbcc.encoder import EncoderSpec, TailbitingCode
from nestedtbcc.gf2 import sample_uniform_matrix
from nestedtbcc.simulate import STREAM_FEC_CAND, seed_key
from nestedtbcc.trellis import WeightSpectrum, weight_enumerator


def reference_search_fec(
    n: int, m: int, K_fec: int, target_pb: float, w_max: int,
    seed: int | Sequence[int] = 0, d_max: int | None = None,
) -> FecSearchResult:
    """Random search for the observation matrix of a rate-1/n subcode."""
    truncation = min(n * K_fec, 4 * m * n) if d_max is None else d_max
    key = seed_key(seed)
    best_pc = -1.0
    best: tuple[WeightSpectrum, TailbitingCode] | None = None
    log: list[tuple[int, float | None]] = []
    skipped = 0
    for w in range(1, w_max + 1):
        c_mat = sample_uniform_matrix(n, m, key + (STREAM_FEC_CAND, w))
        spec = EncoderSpec.rate_one_over_n(c_mat)
        code = TailbitingCode.unfrozen(spec, K_fec)
        spectrum = weight_enumerator(code, truncation)
        if spectrum.a(0) != 1 or spectrum.d_min() is None:
            # non-injective (a nonzero message encodes to zero) or no
            # low-weight mass to bound with: unusable candidate
            log.append((w, None))
            skipped += 1
            continue
        p_c = solve_crossover(spectrum, target_pb)
        log.append((w, p_c))
        if p_c >= best_pc:
            best_pc = p_c
            best = (spectrum, code)
    if best is None:
        raise DesignFailure(
            f"all {w_max} candidates were degenerate (non-injective or weightless)"
        )
    spectrum, code = best
    return FecSearchResult(best_pc, spectrum, code, tuple(log), skipped, 0)
