"""Randomized nested-code design.

Stage 1 draws observation matrices uniformly and keeps the candidate whose
truncated distance spectrum tolerates the largest BSC crossover at the target
block-error probability (ties keep the latest candidate, matching the ">="
update of the search listing).  Stage 2 extends the encoder by random column
blocks and keeps the candidate with the largest free distance, breaking ties
toward the smaller multiplicity.  The nested procedure chains stage 1, a
Monte Carlo crossover calibration, and incremental stage-2 extensions until
the measured distortion fits the budget (p_c - p_A)/(1 - 2 p_A), then prunes
rate by freezing time steps of the last added input.

Stage 1 prunes candidates that cannot win, and picks the same winner as the
unpruned search.  Once an incumbent with crossover p_inc exists, a candidate
is first enumerated only up to a third of the truncation weight.  It is
rejected, without the full enumeration and without a solve, when the union
bound of that short spectrum at p_inc lies above solve_crossover's tolerance
band (bounds.above_band) by a margin of PRUNE_MARGIN.  This is exact:

- the short spectrum is exact up to its weight, so its union-bound terms are
  a prefix of the full spectrum's (the same floats, since each degree's term
  comes from its own row alone, summed by a correctly rounded fsum:
  tests/test_bounds.py::test_union_bound_terms_come_from_their_own_rows), and
  the full bound is at least the short one at every p;
- the bound does not decrease in p, so the full bound lies above the band at
  every bisection probe at or above p_inc (the margin covers the rounding of
  the log/exp evaluation between probes), each such probe moves the upper
  end of the bracket down, and the solve returns a value below p_inc: a
  probe below it, or the lower end of the bracket when the iterations run
  out, or the floor CROSSOVER_FLOOR;
- the same bound at p = 0.5 rules out the solve's 0.5 and "unreachable"
  exits, and a candidate strictly below p_inc loses under ">=".

No pruning happens while p_inc is the floor itself: a candidate whose bound
reaches the target there also solves to the floor, ties, and wins.  A short
spectrum with A_0 != 1 already shows the candidate degenerate (A_0 is exact
at any truncation); one with no nonzero weight proves nothing and goes to the
full enumeration.  Candidates that survive are enumerated and solved exactly
as without pruning.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import (
    CROSSOVER_FLOOR,
    above_band,
    distortion_limit,
    solve_crossover,
    union_bound_pb,
)
from .encoder import (
    EncoderSpec,
    FreezingSchedule,
    TailbitingCode,
    append_input_columns,
)
from .gf2 import BitMatrix, sample_uniform_matrix
from .keyagree import NestedCodePair
from .simulate import (
    STREAM_FEC_CAND,
    STREAM_FREEZE,
    STREAM_VQ_CAND,
    DesignFailure,
    StopRule,
    TrialReport,
    _at_least_one,
    calibrate_pc,
    seed_key,
    simulate_distortion,
)
from .trellis import FreeDistanceReport, WeightSpectrum, free_distance, weight_enumerator


@dataclass(frozen=True)
class FecSearchResult:
    """Winner of the subcode search; spectrum.d_max is the truncation weight.

    candidate_log holds (w, p_c) for every candidate w in draw order: the
    solved crossover for a scored candidate, None for a skipped (degenerate)
    one and -inf for a pruned one, whose crossover is below the incumbent's
    at its turn.  skipped + pruned + scored = w_max.
    """

    p_c: float
    spectrum: WeightSpectrum
    code: TailbitingCode
    candidate_log: tuple[tuple[int, float | None], ...]
    skipped: int
    pruned: int


# A short bound must clear the band top by this relative margin before it
# prunes: far more than the relative rounding error of union_bound_pb
# (about 1e-12), so the full bound stays above the band at every larger probe.
PRUNE_MARGIN = 1e-6


def _loses(short: WeightSpectrum, p_inc: float, target_pb: float) -> bool:
    """True when the short spectrum proves a crossover below p_inc."""
    if short.d_min() is None:
        return False
    pb = union_bound_pb(short, p_inc)
    return above_band(pb * (1.0 - PRUNE_MARGIN), target_pb)


def search_fec(
    n: int, m: int, K_fec: int, target_pb: float, w_max: int,
    seed: int | Sequence[int] = 0, d_max: int | None = None,
) -> FecSearchResult:
    """Random search for the observation matrix of a rate-1/n subcode with
    K_fec sections, scored on its spectrum up to d_max (default min(N, 4mn)).

    Candidates that provably lose are pruned (see the module docstring).
    """
    _at_least_one(w_max=w_max)
    if not 0.0 < target_pb < 1.0:
        raise ValueError(f"target_pb must be in (0, 1), got {target_pb}")
    if K_fec < m:
        raise ValueError(f"need K_fec >= m for tailbiting, got {K_fec} < {m}")
    n_block = n * K_fec
    if d_max is None:
        d_max = min(n_block, 4 * m * n)
    elif not 0 <= d_max <= n_block:
        raise ValueError(f"d_max must be in [0, N={n_block}], got {d_max}")
    key = seed_key(seed)
    d_short = d_max // 3
    best_pc = -1.0
    best: tuple[WeightSpectrum, TailbitingCode] | None = None
    log: list[tuple[int, float | None]] = []
    skipped = pruned = 0
    for w in range(1, w_max + 1):
        c_mat = sample_uniform_matrix(n, m, key + (STREAM_FEC_CAND, w))
        code = TailbitingCode.unfrozen(EncoderSpec.rate_one_over_n(c_mat), K_fec)
        # no pruning at the floor: a candidate that also solves to it ties;
        # a short spectrum without a nonzero weight cannot prune
        if best_pc > CROSSOVER_FLOOR and d_short >= 1:
            short = weight_enumerator(code, d_short)
            if short.a(0) != 1:
                log.append((w, None))
                skipped += 1
                continue
            if _loses(short, best_pc, target_pb):
                log.append((w, -math.inf))
                pruned += 1
                continue
        spectrum = weight_enumerator(code, d_max)
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
    return FecSearchResult(best_pc, *best, tuple(log), skipped, pruned)


@dataclass(frozen=True)
class VqSearchResult:
    """The winner's encoder and free_distance report; candidate_log holds (w, d_free,
    a_free) in draw order, a_free None where it diverges or the candidate is degenerate."""

    free: FreeDistanceReport
    spec: EncoderSpec
    candidate_log: tuple[tuple[int, int, int | None], ...]


def _rank(rep: FreeDistanceReport) -> tuple[int, float]:
    """Stage 2's order: larger d_free, then smaller A_free, a divergent A_free last."""
    return rep.d_free, -math.inf if rep.a_free is None else -rep.a_free


def search_vq_extension(
    parent: EncoderSpec, k_vq: int, w_max: int, seed: int | Sequence[int] = 0
) -> VqSearchResult:
    """Random column-block search for a k_vq-input supercode of `parent` with
    large free distance; a tie keeps the first candidate drawn.  Keeps `parent`
    extended by zero columns when no candidate reaches d_free >= 1."""
    if k_vq <= parent.k:
        raise ValueError(f"need k_vq > k = {parent.k} of the parent, got {k_vq}")
    _at_least_one(w_max=w_max)
    key = seed_key(seed)
    cols = k_vq - parent.k
    best = append_input_columns(parent, BitMatrix.zeros(parent.m, cols),
                                BitMatrix.zeros(parent.n, cols))
    best_rep = FreeDistanceReport(0, None, degenerate=True)  # the zero extension's report
    log: list[tuple[int, int, int | None]] = []
    for w in range(1, w_max + 1):
        rng = np.random.default_rng(key + (STREAM_VQ_CAND, w))
        b_block = sample_uniform_matrix(parent.m, cols, rng)
        d_block = sample_uniform_matrix(parent.n, cols, rng)
        spec = append_input_columns(parent, b_block, d_block)
        rep = free_distance(spec)
        log.append((w, rep.d_free, rep.a_free))
        if _rank(rep) > _rank(best_rep):
            best_rep, best = rep, spec
    return VqSearchResult(best_rep, best, tuple(log))


def _frozen_code(spec: EncoderSpec, ell: int, f: int) -> TailbitingCode:
    """spec over ell sections with its last input frozen at the f steps (j*ell)//f, j < f;
    f = 0 gives TailbitingCode.unfrozen(spec, ell), the same value."""
    steps = {(j * ell) // f for j in range(f)}
    frozen = tuple(frozenset({spec.k - 1}) if t in steps else frozenset() for t in range(ell))
    return TailbitingCode(spec, FreezingSchedule(ell, frozen))


@dataclass(frozen=True)
class NestedDesignReport:
    p_c_sim: float
    q_max: float
    q_bar: float
    extension_log: tuple[dict, ...]
    frozen_steps: int
    calibration_log: tuple[dict, ...]
    fec: FecSearchResult
    # wall seconds of the four stages (search_fec, calibrate, extend, freeze); kept
    # out of the pair's provenance, which stays a pure function of (inputs, seed)
    stage_seconds: dict[str, float]


def design_nested(
    p_A: float,
    target_pb: float,
    K_fec: int,
    n: int,
    m: int,
    seed: int | Sequence[int] = 0,
    w_max: int = 1000,
    stop: StopRule = StopRule(),
    distortion_trials: int = 4096,
    workers: int = 1,
) -> tuple[NestedCodePair, NestedDesignReport]:
    """Full nested design: subcode search, crossover calibration, incremental
    quantizer extension, and last-input freezing refinement.

    Every decode runs at the decoder's sweep cap, wava.SWEEPS; `workers` threads
    run the distortion probes, and calibration runs serially.  Deterministic in
    (arguments, seed).  Raises ValueError for n < 2, which leaves no input to
    add, and DesignFailure when the target is unreachable or the distortion
    budget cannot be met at rate 1.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 for a quantizer extension, got n={n}")
    if not 0.0 <= p_A < 0.5:  # before the search: distortion_limit needs it at stage 3
        raise ValueError(f"p_A must be in [0, 0.5), got {p_A}")
    _at_least_one(distortion_trials=distortion_trials, workers=workers)
    key = seed_key(seed)
    clock = [time.perf_counter()]          # the start, then the end of each stage

    fec = search_fec(n, m, K_fec, target_pb, w_max, seed=key)
    ell = K_fec
    clock.append(time.perf_counter())

    p_c_sim, calib_log = calibrate_pc(fec.code, target_pb, p_A, stop=stop, seed=key)
    q_max = distortion_limit(p_c_sim, p_A)
    clock.append(time.perf_counter())

    def q(spec: EncoderSpec, f: int, seed: tuple[int, ...]) -> TrialReport:
        """The distortion of _frozen_code(spec, ell, f), the one probe of stages 3 and 4;
        simulate_distortion is read from this module per call (perfbench wraps it here)."""
        return simulate_distortion(_frozen_code(spec, ell, f), distortion_trials, seed, workers)

    # grow one input at a time until the measured distortion fits the budget
    spec = fec.code.spec
    ext_log: list[dict] = []
    for k_target in range(2, n + 1):
        res = search_vq_extension(spec, k_target, w_max, seed=key + (k_target,))
        spec = res.spec
        rep = q(spec, 0, key + (k_target,))
        ext_log.append({
            "k": k_target, "d_free": res.free.d_free, "a_free": res.free.a_free,
            "q_bar": rep.estimate, "q_halfwidth": rep.confidence_halfwidth,
        })
        if rep.estimate <= q_max:
            break
    else:
        raise DesignFailure(
            f"distortion budget q_max={q_max:.6g} unreachable even at rate 1 "
            f"(k_vq = n = {n}); last measured q_bar={ext_log[-1]['q_bar']:.6g}"
        )
    clock.append(time.perf_counter())

    # freeze as many time steps of the last added input as the budget allows;
    # distortion grows as the codebook shrinks, so binary-search the boundary
    lo, hi = 0, ell - 1
    q_bar = rep.estimate
    while lo < hi:
        mid = (lo + hi + 1) // 2
        qm = q(spec, mid, key + (STREAM_FREEZE, mid)).estimate
        if qm <= q_max:
            lo, q_bar = mid, qm
        else:
            hi = mid - 1
    final_code = _frozen_code(spec, ell, lo)
    clock.append(time.perf_counter())

    report = NestedDesignReport(
        p_c_sim=p_c_sim,
        q_max=q_max,
        q_bar=q_bar,
        extension_log=tuple(ext_log),
        frozen_steps=lo,
        calibration_log=tuple(calib_log),
        fec=fec,
        stage_seconds=dict(zip(("search_fec", "calibrate", "extend", "freeze"),
                               np.diff(clock).tolist())),
    )
    pair = NestedCodePair(final_code, provenance={
        "seed": list(key),
        "w_max": w_max,
        "n": n, "m": m, "K_fec": K_fec,
        "p_A": p_A, "target_pb": target_pb,
        "p_c_union_bound": fec.p_c,
        "p_c_simulated": p_c_sim,
        "q_max": q_max,
        "q_bar": q_bar,
        "frozen_steps": lo,
        "extensions": list(ext_log),
        "fec_spectrum_head": dict(fec.spectrum.items()[:16]),
    })
    return pair, report
