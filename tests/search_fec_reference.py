"""Reference subcode search: the loop that certified pruning in
``nestedtbcc.design.search_fec`` replaced, kept as a test oracle.

Every candidate is enumerated up to the full truncation weight and solved by
``solve_crossover``; nothing is pruned.  The only edit is the ``pruned=0``
argument the result type now has.  The pruned search must return the same
winner, crossover, spectrum, skip count and recheck, and the same value for
every candidate it scores.
"""

from __future__ import annotations

from nestedtbcc.bounds import solve_crossover
from nestedtbcc.design import DesignFailure, FecSearchConfig, FecSearchResult
from nestedtbcc.encoder import EncoderSpec, TailbitingCode
from nestedtbcc.gf2 import BitMatrix, sample_uniform_matrix
from nestedtbcc.simulate import STREAM_FEC_CAND, seed_key
from nestedtbcc.trellis import WeightSpectrum, weight_enumerator


def reference_search_fec(cfg: FecSearchConfig) -> FecSearchResult:
    """Random search for the observation matrix of a rate-1/n subcode."""
    key = seed_key(cfg.seed)
    best_pc = -1.0
    best: tuple[BitMatrix, WeightSpectrum, TailbitingCode] | None = None
    log: list[tuple[int, float | None]] = []
    skipped = 0
    for w in range(1, cfg.w_max + 1):
        c_mat = sample_uniform_matrix(cfg.n, cfg.m, key + (STREAM_FEC_CAND, w))
        spec = EncoderSpec.rate_one_over_n(c_mat)
        code = TailbitingCode.unfrozen(spec, cfg.K_fec)
        spectrum = weight_enumerator(code, cfg.truncation)
        if spectrum.a(0) != 1 or spectrum.d_min() is None:
            # non-injective (a nonzero message encodes to zero) or no
            # low-weight mass to bound with: unusable candidate
            log.append((w, None))
            skipped += 1
            continue
        p_c = solve_crossover(spectrum, cfg.target_pb)
        log.append((w, p_c))
        if p_c >= best_pc:
            best_pc = p_c
            best = (c_mat, spectrum, code)
    if best is None:
        raise DesignFailure(
            f"all {cfg.w_max} candidates were degenerate (non-injective or weightless)"
        )
    c_mat, spectrum, code = best
    # re-verify the winner at doubled truncation; a moving solution means the
    # dropped high-weight mass mattered
    d2 = min(cfg.n_block, 2 * cfg.truncation)
    p2 = best_pc
    if d2 > cfg.truncation:
        p2 = solve_crossover(weight_enumerator(code, d2), cfg.target_pb)
    moved = abs(p2 - best_pc) > 0.01 * best_pc
    return FecSearchResult(c_mat, best_pc, spectrum, code, tuple(log), skipped, 0, p2, moved)
