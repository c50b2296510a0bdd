"""Seeded Monte Carlo experiments and evaluation reports.

Randomness is drawn per fixed-size chunk of trials from a stream keyed by
(master seed, stream id, chunk index), and early stopping cuts at an exact
trial index, so every estimate is a pure function of (inputs, seed) no matter
how chunks are scheduled across workers.  Every decode runs at the decoder's
sweep cap, wava.SWEEPS, as every TBCC row of the paper does.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .bounds import (
    complexity_estimates,
    gs_region_point,
    key_storage_ratio,
    log2_ball_size,
    quantizer_rate_approx,
)
from .encoder import TailbitingCode, encode_many
from .keyagree import NestedCodePair, enroll_many, reconstruct_many
from .trellis import build_trellis
from .wava import SWEEPS, wava_decode_many

# chunk size is part of the sampling definition; do not make it configurable
CHUNK = 4096

# stream ids keeping every consumer of a master seed independent
STREAM_FEC_CAND = 1
STREAM_VQ_CAND = 2
STREAM_FER = 3
STREAM_DISTORTION = 4
STREAM_E2E = 5
STREAM_CALIBRATION = 6
STREAM_FREEZE = 7

# probes per crossover calibration: p_A, 0.5, then bisection steps
CALIBRATION_PROBES = 10


def seed_key(seed: int | Sequence[int]) -> tuple[int, ...]:
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    return tuple(int(s) for s in seed)


def chunk_rng(key: tuple[int, ...], stream: int, chunk: int) -> np.random.Generator:
    return np.random.default_rng(key + (stream, chunk))


def _at_least_one(**values: int) -> None:
    """ValueError for the first value below 1; callers check before hours of work."""
    for name, value in values.items():
        if value < 1:
            raise ValueError(f"need {name} >= 1, got {value}")


class DesignFailure(RuntimeError):
    """A search, calibration or budget step could not produce a usable code."""


@dataclass(frozen=True)
class StopRule:
    """Stop at target_errors observed events or max_trials, whichever first."""

    max_trials: int = 10_000_000
    target_errors: int = 50

    def __post_init__(self) -> None:
        if self.max_trials < 1 or self.target_errors < 1:
            raise ValueError("need max_trials >= 1 and target_errors >= 1")


@dataclass(frozen=True)
class TrialReport:
    """A Monte Carlo point estimate with normal-approximation 95% interval.

    event_count is the number of error events for error-rate experiments and
    the sum of per-trial distortions for distortion experiments; estimate is
    always event_count / trials.
    """

    estimate: float
    trials: int
    event_count: float
    confidence_halfwidth: float
    seed: tuple[int, ...]
    wallclock: float


def _chunks(
    chunk_fn: Callable[[int, int], np.ndarray], total: int, workers: int
) -> Iterator[np.ndarray]:
    """chunk_fn(i, count) over `total` trials in chunks of CHUNK, in chunk order.

    With workers > 1 the chunks run on a thread pool; closing the generator
    early cancels the queued chunks and waits for the running ones, so no
    chunk outlives the call.
    """
    _at_least_one(workers=workers)
    spans = ((i, min(CHUNK, total - done)) for i, done in enumerate(range(0, total, CHUNK)))
    if workers == 1:
        yield from (chunk_fn(i, c) for i, c in spans)
        return
    ex = ThreadPoolExecutor(max_workers=workers)
    try:
        yield from ex.map(lambda ic: chunk_fn(*ic), spans)
    finally:
        ex.shutdown(cancel_futures=True)


def _error_rate(
    trial_fn: Callable[[np.random.Generator, int], np.ndarray],
    stream: int,
    stop: StopRule,
    seed: int | Sequence[int],
    workers: int,
) -> TrialReport:
    """Error rate of chunks of Bernoulli trials, driven until the stop rule cuts.

    trial_fn(rng, count) returns a bool error array for one chunk, drawn from
    rng, the chunk's generator of (seed, stream, chunk index).
    """
    key = seed_key(seed)
    t0 = time.perf_counter()
    trials = errors = 0
    chunks = _chunks(lambda i, count: trial_fn(chunk_rng(key, stream, i), count),
                     stop.max_trials, workers)
    with closing(chunks) as batches:
        for errs in batches:
            n_err = int(errs.sum())
            if errors + n_err >= stop.target_errors:
                cum = np.cumsum(errs)
                cut = int(np.searchsorted(cum, stop.target_errors - errors))
                trials += cut + 1
                errors += int(cum[cut])
                break
            trials += len(errs)
            errors += n_err
    est = errors / trials
    hw = 1.96 * math.sqrt(max(est * (1.0 - est), 0.0) / trials)
    return TrialReport(est, trials, float(errors), hw, key, time.perf_counter() - t0)


def simulate_fer(
    code: TailbitingCode,
    p_c: float,
    stop: StopRule = StopRule(),
    seed: int | Sequence[int] = 0,
    workers: int = 1,
) -> TrialReport:
    """Block-error rate of WAVA decoding over a BSC(p_c).

    Random messages are transmitted (the zero codeword would bias the
    tie-breaking); an error is any decoded-message mismatch.
    """
    if not 0.0 <= p_c <= 1.0:
        raise ValueError(f"p_c must be in [0, 1], got {p_c}")
    trellis = build_trellis(code)

    def trial_fn(rng: np.random.Generator, count: int) -> np.ndarray:
        msgs = rng.integers(0, 2, size=(count, code.K), dtype=np.uint8)
        flips = (rng.random((count, code.N)) < p_c).astype(np.uint8)
        r = encode_many(code, msgs) ^ flips
        res = wava_decode_many(trellis, r)
        return (res.msg_bits != msgs).any(axis=1)

    return _error_rate(trial_fn, STREAM_FER, stop, seed, workers)


def simulate_distortion(
    vq_code: TailbitingCode,
    trials: int = CHUNK,
    seed: int | Sequence[int] = 0,
    workers: int = 1,
) -> TrialReport:
    """Average quantization distortion of Bern(1/2) words, d_H(x, x_q)/N."""
    _at_least_one(trials=trials)
    key = seed_key(seed)
    trellis = build_trellis(vq_code)
    t0 = time.perf_counter()

    def chunk_values(i: int, count: int) -> np.ndarray:
        rng = chunk_rng(key, STREAM_DISTORTION, i)
        x = (rng.random((count, vq_code.N)) < 0.5).astype(np.uint8)
        res = wava_decode_many(trellis, x)
        return res.distance / vq_code.N

    values = np.concatenate(list(_chunks(chunk_values, trials, workers)))
    est = float(values.mean())
    sd = float(values.std(ddof=1)) if trials > 1 else 0.0
    hw = 1.96 * sd / math.sqrt(trials)
    return TrialReport(est, trials, float(values.sum()), hw, key, time.perf_counter() - t0)


def simulate_end_to_end(
    pair: NestedCodePair,
    p_A: float,
    stop: StopRule = StopRule(),
    seed: int | Sequence[int] = 0,
    workers: int = 1,
) -> TrialReport:
    """Key-mismatch rate of the full enroll/measure/reconstruct pipeline."""
    if not 0.0 <= p_A <= 1.0:
        raise ValueError(f"p_A must be in [0, 1], got {p_A}")

    def trial_fn(rng: np.random.Generator, count: int) -> np.ndarray:
        x = (rng.random((count, pair.N)) < 0.5).astype(np.uint8)
        flips = (rng.random((count, pair.N)) < p_A).astype(np.uint8)
        s_bits, w_bits, _ = enroll_many(pair, x)
        s_hat = reconstruct_many(pair, x ^ flips, w_bits)
        return (s_hat != s_bits).any(axis=1)

    return _error_rate(trial_fn, STREAM_E2E, stop, seed, workers)


def calibrate_pc(
    code: TailbitingCode,
    target_pb: float,
    p_A: float,
    stop: StopRule = StopRule(),
    seed: int | Sequence[int] = 0,
) -> tuple[float, list[dict]]:
    """Largest probed crossover at which the code meets target_pb with 95%
    confidence, by bisection on [p_A, 0.5].

    A probe passes when the upper 95% bound of its estimate (rule of three
    when no errors were seen) is at most the target.  Each probe runs to
    target_errors or to a trial budget just large enough to certify a pass.
    Raises ValueError for p_A outside [0, 0.5), and DesignFailure when the
    probe at p_A fails or, at p_A = 0, when no probe passes.
    """
    if not 0.0 < target_pb < 1.0:
        raise ValueError(f"target_pb must be in (0, 1), got {target_pb}")
    if not 0.0 <= p_A < 0.5:
        raise ValueError(f"p_A must be in [0, 0.5), got {p_A}")
    key = seed_key(seed)
    log: list[dict] = []
    probe_stop = StopRule(
        max_trials=min(stop.max_trials, max(int(math.ceil(30.0 / target_pb)), 100)),
        target_errors=stop.target_errors,
    )

    def probe(i: int, p: float) -> bool:
        rep = simulate_fer(code, p, probe_stop, key + (STREAM_CALIBRATION, i))
        upper = rep.estimate + rep.confidence_halfwidth if rep.event_count else 3.0 / rep.trials
        ok = upper <= target_pb
        log.append({
            "p": p, "estimate": rep.estimate, "trials": rep.trials,
            "errors": rep.event_count, "upper95": upper, "passed": ok,
        })
        return ok

    lo, hi = p_A, 0.5
    # the decoder is idempotent on codewords: at p_A = 0 the error rate is exactly 0
    if p_A > 0.0 and not probe(0, lo):
        raise DesignFailure(f"crossover calibration failed: target P_B={target_pb} "
                            f"unreachable even at p_A={p_A}")
    if probe(1, hi):
        return hi, log
    for i in range(2, CALIBRATION_PROBES):
        mid = 0.5 * (lo + hi)
        if probe(i, mid):
            lo = mid
        else:
            hi = mid
    if lo == 0.0:  # p_A = 0 and no probe passed: hi is the smallest crossover probed
        raise DesignFailure(f"crossover calibration failed: target P_B={target_pb} "
                            f"unreachable even at p={hi}")
    return lo, log


def derived_rate_fields(n_block: int, k_fec: int, k_vq: int) -> tuple[Fraction, Fraction, int, Fraction]:
    """(R_vq, R_w, helper_bits, ratio) from exact dimensions."""
    if k_vq <= k_fec:
        raise ValueError(f"need K_vq > K_fec, got {k_vq} <= {k_fec}")
    r_vq = Fraction(k_vq, n_block)
    r_w = Fraction(k_vq - k_fec, n_block)
    helper_bits = math.ceil(n_block * r_w)
    return r_vq, r_w, helper_bits, key_storage_ratio(k_fec, k_vq)


def evaluate(
    pair: NestedCodePair,
    target_pb: float,
    seed: int | Sequence[int] = 0,
    stop: StopRule = StopRule(),
    distortion_trials: int = CHUNK,
    workers: int = 1,
) -> dict:
    """The evaluation row of a nested pair, as the JSON fields of the CLI's evaluate
    (rates exact up to the float conversion, the rest simulated; `workers` threads run
    the distortion run, calibration runs serially); the complexity columns count the
    decoder's SWEEPS iterations.  Raises DesignFailure (the CLI's exit 3) when no
    probed crossover meets target_pb."""
    _at_least_one(distortion_trials=distortion_trials, workers=workers)
    n = pair.vq_code.spec.n
    m = pair.vq_code.spec.m
    p_c, _ = calibrate_pc(pair.fec_code, target_pb, 0.0, stop, seed)
    q_bar = simulate_distortion(pair.vq_code, distortion_trials, seed, workers).estimate
    r_vq, r_w, helper_bits, ratio = derived_rate_fields(pair.N, pair.K_fec, pair.K_vq)
    c_fec = complexity_estimates(pair.N, n, 1, m, SWEEPS)
    c_vq = complexity_estimates(pair.N, n, math.ceil(n * r_vq), m, SWEEPS)
    return {
        "m": m, "R_fec": float(Fraction(pair.K_fec, pair.N)), "p_c": p_c, "q_bar": q_bar,
        "R_vq": float(r_vq), "R_w": float(r_w), "helper_bits": helper_bits, "ratio": float(ratio),
        "complexity_fec_log2": c_fec.log2_min, "complexity_fec_kind": c_fec.kind,
        "complexity_vq_log2": c_vq.log2_min, "complexity_vq_kind": c_vq.kind,
    }


def region_curve(p_A: float, q_grid: Sequence[float]) -> list[tuple[float, float, float]]:
    """Boundary points (q, R_s, R_w) of the binary GS region."""
    rows = []
    for q in q_grid:
        pt = gs_region_point(p_A, q)
        rows.append((float(q), pt.R_s, pt.R_w))
    return rows


def region_aux_series(
    p_A: float, q_grid: Sequence[float], n_block: int | None = None
) -> dict[str, list[tuple[float, float]]]:
    """Reference curves for rate-region plots, keyed by series name.

    Points are (x, y) pairs: the boundary and converse series use x = R_w,
    y = R_s; the quantizer series use x = q, y = rate.
    """
    series: dict[str, list[tuple[float, float]]] = {}
    series["gs_boundary"] = [(r_w, r_s) for _, r_s, r_w in region_curve(p_A, q_grid)]
    series["sw_line"] = [(w, 1.0 - w) for w in np.linspace(0.0, 1.0, len(q_grid) or 2)]
    if n_block is not None:
        approx = []
        converse = []
        for q in q_grid:
            if 0.0 < q <= 0.5:
                approx.append((float(q), quantizer_rate_approx(n_block, q)))
            converse.append((float(q), 1.0 - log2_ball_size(n_block, q) / n_block))
        series["quantizer_rate_approx"] = approx
        series["quantizer_converse_min_rate"] = converse
    return series
