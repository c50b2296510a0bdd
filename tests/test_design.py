import hashlib
import math
import time

import numpy as np
import pytest

from conftest import all_messages, codeword_set
from nestedtbcc import bounds, design
from nestedtbcc.bounds import CROSSOVER_FLOOR, distortion_limit, solve_crossover
from nestedtbcc.design import (
    DesignFailure,
    design_nested,
    search_fec,
    search_vq_extension,
)
from nestedtbcc.encoder import (
    EncoderSpec,
    TailbitingCode,
    encode_many,
)
from nestedtbcc.gf2 import BitMatrix, sample_uniform_matrix
from nestedtbcc.keyagree import pair_to_dict, save_pair
from nestedtbcc.simulate import (
    STREAM_FEC_CAND,
    StopRule,
    TrialReport,
    calibrate_pc,
    seed_key,
    simulate_distortion,
)
from nestedtbcc.trellis import FreeDistanceReport, free_distance, weight_enumerator
from search_fec_reference import reference_search_fec


def test_search_fec_single_candidate_is_deterministic():
    res = search_fec(2, 3, 8, 1e-2, 1, seed=5)
    # the sampled matrix is reproducible from the same stream
    expect = sample_uniform_matrix(2, 3, seed_key(5) + (STREAM_FEC_CAND, 1))
    assert res.code.spec.C == expect
    # and the reported crossover re-derives from an independent recomputation
    # at the default truncation min(N, 4mn) = 16
    code = TailbitingCode.unfrozen(EncoderSpec.rate_one_over_n(expect), 8)
    spectrum = weight_enumerator(code, 16)
    assert res.spectrum == spectrum
    assert res.p_c == solve_crossover(spectrum, 1e-2)


def test_search_fec_returns_argmax_of_log():
    res = search_fec(3, 3, 8, 1e-3, 60, seed=6)
    # pruned candidates are logged as -inf and are not scored
    scored = [p for _, p in res.candidate_log if p is not None and p != -math.inf]
    assert res.p_c == max(scored)
    assert res.skipped + res.pruned + len(scored) == 60
    # ties keep the last candidate: the winner index is the last argmax
    winners = [w for w, p in res.candidate_log if p == res.p_c]
    assert winners, "winner must appear in the log"
    # recompute the winner's matrix from its index and confirm it is returned
    w_last = winners[-1]
    assert res.code.spec.C == sample_uniform_matrix(3, 3, seed_key(6) + (STREAM_FEC_CAND, w_last))


def _assert_matches_reference(cfg: dict) -> int:
    """Pruned search equals the unpruned oracle; returns the pruned count."""
    res, ref = search_fec(**cfg), reference_search_fec(**cfg)
    assert res.code == ref.code
    assert res.p_c == ref.p_c
    assert res.spectrum == ref.spectrum
    assert res.skipped == ref.skipped
    assert [w for w, _ in res.candidate_log] == list(range(1, cfg["w_max"] + 1))
    oracle = dict(ref.candidate_log)
    scored, incumbent = 0, -1.0
    for w, p in res.candidate_log:
        if p is None:
            assert oracle[w] is None
        elif p == -math.inf:
            # a pruned candidate is strictly below the incumbent at its turn
            assert oracle[w] is not None and oracle[w] < incumbent
        else:
            assert p == oracle[w]
            scored += 1
            incumbent = max(incumbent, p)
    assert res.skipped + res.pruned + scored == cfg["w_max"]
    return res.pruned


def test_pruned_search_matches_reference():
    rng = np.random.default_rng(2026)
    pruned = 0
    for i in range(24):
        m = int(rng.integers(2, 7))
        cfg = dict(
            n=int(rng.integers(2, 4)), m=m, K_fec=int(rng.integers(m, 2 * m + 5)),
            target_pb=float(rng.choice([1e-1, 1e-2, 1e-3])),
            w_max=int(rng.integers(20, 61)), seed=(i, 2026),
        )
        pruned += _assert_matches_reference(cfg)
    assert pruned >= 100, "pruning must fire for the comparison to mean anything"


def test_pruned_search_matches_reference_when_bisection_runs_out(monkeypatch):
    # three steps seldom reach the band, so most solves take the iteration
    # exit; pruning must stay exact there too
    monkeypatch.setattr(bounds, "CROSSOVER_MAX_ITER", 3)
    pruned = 0
    for seed in range(4):
        pruned += _assert_matches_reference(dict(
            n=3, m=4, K_fec=10, target_pb=1e-1, w_max=30, seed=seed,
        ))
    assert pruned > 0


def test_candidate_is_not_pruned_against_its_own_crossover():
    # an equal code ties with the incumbent and wins under ">=", so neither
    # its short nor its full spectrum may prune it at its own crossover
    from nestedtbcc.design import _loses

    rng = np.random.default_rng(31)
    for target in (1e-1, 1e-2, 1e-3) * 10:
        m, n = int(rng.integers(2, 6)), int(rng.integers(2, 4))
        code = TailbitingCode.unfrozen(
            EncoderSpec.rate_one_over_n(sample_uniform_matrix(n, m, rng)), 2 * m + 2
        )
        truncation = min(code.N, 4 * m * n)  # search_fec's default
        full = weight_enumerator(code, truncation)
        if full.a(0) != 1 or full.d_min() is None:
            continue
        p_c = solve_crossover(full, target)
        for d in (truncation // 3, truncation):
            assert not _loses(weight_enumerator(code, d), p_c, target)


def test_search_fec_no_pruning_at_the_floor():
    # at this target every candidate's bound reaches it at the bisection
    # floor, so all scored candidates tie there and the last one wins
    res = search_fec(3, 3, 8, 1e-200, 30, seed=6)
    assert res.pruned == 0
    scored = [(w, p) for w, p in res.candidate_log if p is not None]
    assert len(scored) == 30 - res.skipped
    assert all(p == CROSSOVER_FLOOR for _, p in scored)
    assert scored[-1][0] == 30
    assert res.code.spec.C == sample_uniform_matrix(3, 3, seed_key(6) + (STREAM_FEC_CAND, 30))


def test_search_fec_winner_is_injective():
    res = search_fec(2, 2, 6, 1e-2, 30, seed=7)
    assert res.spectrum.a(0) == 1
    cws = encode_many(res.code, all_messages(res.code.K))
    assert len({tuple(r) for r in cws.tolist()}) == 2 ** res.code.K


def test_search_fec_all_degenerate_fails():
    # m=1, n=1: half the draws are C=0; with w_max=1 and a seed that draws 0
    for seed in range(50):
        c = sample_uniform_matrix(1, 1, seed_key(seed) + (STREAM_FEC_CAND, 1))
        if not any(c.row_words):
            with pytest.raises(DesignFailure):
                search_fec(1, 1, 4, 1e-2, 1, seed=seed)
            return
    pytest.fail("no zero draw found in 50 seeds")


def test_search_vq_extension_deterministic_and_dominant():
    base = search_fec(2, 3, 8, 1e-2, 10, seed=8)
    spec = base.code.spec
    res = search_vq_extension(spec, 2, 40, seed=9)
    again = search_vq_extension(spec, 2, 40, seed=9)
    assert res.spec == again.spec
    # the winner dominates every logged candidate in (d_free, -A_free) order, a
    # divergent A_free (None) ranking below every finite one
    def rank(d, a):
        return d, -math.inf if a is None else -a

    for _, d, a in res.candidate_log:
        assert rank(res.free.d_free, res.free.a_free) >= rank(d, a)
    # the result holds free_distance's own report of the winner
    assert res.free == free_distance(res.spec)


def test_search_vq_extension_keeps_parent_as_subcode():
    base = search_fec(2, 3, 8, 1e-2, 5, seed=10)
    spec = base.code.spec
    res = search_vq_extension(spec, 2, 10, seed=11)
    ell = 4
    parent_set = codeword_set(TailbitingCode.unfrozen(spec, ell))
    child_set = codeword_set(TailbitingCode.unfrozen(res.spec, ell))
    assert parent_set <= child_set


def test_search_vq_extension_without_a_usable_candidate_keeps_zero_columns(monkeypatch):
    # every candidate degenerate: the parent comes back extended by zero
    # columns, not the first or the last candidate drawn
    spec = EncoderSpec.rate_one_over_n(sample_uniform_matrix(2, 3, 4))
    monkeypatch.setattr(design, "free_distance",
                        lambda s: FreeDistanceReport(0, None, degenerate=True))
    res = search_vq_extension(spec, 3, 5, seed=12)
    assert res.free == FreeDistanceReport(0, None, degenerate=True)
    assert len(res.candidate_log) == 5
    assert res.spec == EncoderSpec(m=3, k=3, n=2, B_tilde=BitMatrix.zeros(3, 2), C=spec.C,
                                   D_tilde=BitMatrix.zeros(2, 2))


def test_design_nested_toy_pipeline():
    start = time.perf_counter()
    pair, report = design_nested(
        p_A=0.0, target_pb=1e-2, K_fec=16, n=3, m=4, seed=42, w_max=64,
        stop=StopRule(max_trials=100_000), distortion_trials=1024,
    )
    wall = time.perf_counter() - start
    # the four stage times, within the call's wall time
    stages = report.stage_seconds
    assert list(stages) == ["search_fec", "calibrate", "extend", "freeze"]
    assert min(stages.values()) >= 0 and sum(stages.values()) <= wall
    # p_A = 0 collapses the budget to q <= p_c
    assert report.q_max == pytest.approx(report.p_c_sim)
    assert report.q_bar <= report.q_max
    assert pair.K_fec == 16 and pair.N == 48
    assert pair.K_vq > pair.K_fec

    # nesting verified constructively: key-only messages encode identically
    # in the subcode and in the pair's code
    from nestedtbcc.encoder import encode_tailbiting
    from nestedtbcc.gf2 import BitVector

    zero_w = BitVector.zeros(pair.K_vq - pair.K_fec)
    rng = np.random.default_rng(0)
    for _ in range(50):
        s = BitVector.from_bits(rng.integers(0, 2, pair.K_fec).tolist())
        assert encode_tailbiting(pair.vq_code, pair.merge_message(s, zero_w)) == \
            encode_tailbiting(pair.fec_code, s)

    # measured distortion within budget at 3 standard errors (budget holds
    # by construction; re-measure with a fresh seed)
    fresh = simulate_distortion(pair.vq_code, trials=2048, seed=777)
    assert fresh.estimate <= report.q_max + 3 * fresh.confidence_halfwidth

    # deterministic reproduction
    pair2, report2 = design_nested(
        p_A=0.0, target_pb=1e-2, K_fec=16, n=3, m=4, seed=42, w_max=64,
        stop=StopRule(max_trials=100_000), distortion_trials=1024,
    )
    assert pair_to_dict(pair2) == pair_to_dict(pair)
    assert report2.q_bar == report.q_bar


def test_design_nested_enumerates_no_further_than_the_search_truncation(monkeypatch):
    # the doubled-truncation recheck is the design-fec command's; a design
    # enumerates only up to search_fec's truncation min(N, 4mn) = 36 < N = 48
    seen = []

    def recorder(code, d_max=None):
        seen.append(d_max)
        return weight_enumerator(code, d_max)

    monkeypatch.setattr(design, "weight_enumerator", recorder)
    design_nested(p_A=0.0, target_pb=1e-2, K_fec=16, n=3, m=3, seed=42, w_max=16,
                  stop=StopRule(max_trials=100_000), distortion_trials=512)
    assert seen and max(seen) == 36


def test_design_nested_budget_failure():
    # a huge p_A forces calibration failure at the very first probe
    with pytest.raises(DesignFailure):
        design_nested(
            p_A=0.45, target_pb=1e-6, K_fec=8, n=2, m=3, seed=1, w_max=4,
            stop=StopRule(max_trials=2000), distortion_trials=256,
        )


def test_design_nested_fails_when_rate_one_misses_the_budget(monkeypatch):
    # every quantizer measures above any budget (q_max <= 0.5 at p_A = 0): stage 3
    # extends to k_vq = n, then fails before any freeze probe
    calibrated, probes = [], []

    def calibrate(*args, **kwargs):
        calibrated.append(calibrate_pc(*args, **kwargs))
        return calibrated[-1]

    def too_coarse(code, trials, seed, workers):
        probes.append((code.spec.k, tuple(seed)))
        assert code == TailbitingCode.unfrozen(code.spec, 16)
        return TrialReport(0.75, trials, 0.75 * trials, 0.0, tuple(seed), 0.0)

    monkeypatch.setattr(design, "calibrate_pc", calibrate)
    monkeypatch.setattr(design, "simulate_distortion", too_coarse)
    with pytest.raises(DesignFailure) as exc:
        design_nested(p_A=0.0, target_pb=1e-2, K_fec=16, n=3, m=3, seed=42, w_max=8,
                      stop=StopRule(max_trials=20_000), distortion_trials=64)
    q_max = distortion_limit(calibrated[0][0], 0.0)
    assert str(exc.value) == (f"distortion budget q_max={q_max:.6g} unreachable even at "
                              "rate 1 (k_vq = n = 3); last measured q_bar=0.75")
    assert probes == [(2, (42, 2)), (3, (42, 3))]     # no STREAM_FREEZE probe ran


def test_frozen_code_is_one_family_from_the_unfrozen_code():
    from nestedtbcc.design import _frozen_code
    from nestedtbcc.trellis import build_trellis
    from conftest import random_spec

    spec, ell = random_spec(np.random.default_rng(3), m=2, k=3, n=3), 10
    unfrozen = TailbitingCode.unfrozen(spec, ell)
    assert _frozen_code(spec, ell, 0) == unfrozen
    assert build_trellis(_frozen_code(spec, ell, 0)) is build_trellis(unfrozen)
    for f in range(1, ell):
        code = _frozen_code(spec, ell, f)
        steps = [t for t, fs in enumerate(code.schedule.frozen) if fs]
        assert steps == [(j * ell) // f for j in range(f)]
        assert all(fs == {spec.k - 1} for fs in code.schedule.frozen if fs)
        assert code.K == ell * spec.k - f


def test_distortion_limit_budget_shape():
    assert distortion_limit(0.1, 0.0) == pytest.approx(0.1)
    assert distortion_limit(0.1, 0.05) == pytest.approx(0.05 / 0.9)


def test_freezing_preserves_extension_min_distance():
    # freezing only the last added input keeps every remaining codeword in
    # the extension code, so the frozen code's minimum nonzero weight cannot
    # drop below the extension's free distance (at generous section counts)
    from nestedtbcc.design import _frozen_code
    from conftest import random_spec

    rng = np.random.default_rng(12)
    checked = 0
    while checked < 8:
        spec = random_spec(rng, m=2, k=2, n=2)
        rep = free_distance(spec)
        if rep.degenerate or rep.divergent:
            continue
        ell = 2 * spec.m + 2
        full = weight_enumerator(TailbitingCode.unfrozen(spec, ell))
        if full.a(0) != 1 or full.d_min() is None or full.d_min() < rep.d_free:
            continue  # wrap-around words below d_free: skip, nothing to preserve
        f = int(rng.integers(1, ell))
        frozen = _frozen_code(spec, ell, f)
        dmin = weight_enumerator(frozen).d_min()
        if dmin is not None:
            assert dmin >= rep.d_free
        checked += 1


@pytest.mark.slow
def test_criterion_09_pair_file_is_pinned(tmp_path):
    # the seeded-output ledger: a change that moves this digest declares it
    pair, _ = design_nested(p_A=0.0149, target_pb=1e-3, K_fec=32, n=3, m=6, seed=2024,
                            w_max=500)
    sha256 = "77085d0081f3663455752443f3ed0a286ed9f3663c5e52fa8c2d03b29827fc5c"
    save_pair(pair, tmp_path / "pair.json")
    assert hashlib.sha256((tmp_path / "pair.json").read_bytes()).hexdigest() == sha256
