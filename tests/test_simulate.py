import dataclasses
import math
import threading
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    all_messages,
    exhaustive_codebook,
    nearest_codeword_rows,
    nearest_distances,
    pack_rows,
    random_code,
    toy_pair_a,
    toy_pair_b,
)
from nestedtbcc import wava
from nestedtbcc.bounds import complexity_estimates, quantizer_converse_feasible, union_bound_pb
from nestedtbcc.encoder import encode_many
from nestedtbcc.simulate import (
    CALIBRATION_PROBES,
    CHUNK,
    DesignFailure,
    StopRule,
    calibrate_pc,
    chunk_rng,
    derived_rate_fields,
    evaluate,
    region_curve,
    region_aux_series,
    seed_key,
    simulate_distortion,
    simulate_end_to_end,
    simulate_fer,
)
from nestedtbcc.trellis import weight_enumerator
from nestedtbcc.wava import wava_decode_many
from nestedtbcc.trellis import build_trellis


def test_fer_zero_crossover(repetition_toy):
    rep = simulate_fer(repetition_toy, 0.0, stop=StopRule(max_trials=500), seed=3)
    assert rep.estimate == 0.0 and rep.trials == 500


def test_fer_paired_with_ml_oracle(repetition_toy):
    # identical noise, two decoders: WAVA must track the exhaustive ML rate
    code = repetition_toy
    book = exhaustive_codebook(code)
    packed = pack_rows(book)
    msgs_all = all_messages(code.K)
    trellis = build_trellis(code)
    rng = np.random.default_rng(11)
    trials = 20000
    p = 0.1
    midx = rng.integers(0, len(msgs_all), trials)
    cw = book[midx]
    r = cw ^ (rng.random((trials, code.N)) < p).astype(np.uint8)
    wava_err = (wava_decode_many(trellis, r).msg_bits != msgs_all[midx]).any(axis=1)
    ml_err = nearest_codeword_rows(packed, pack_rows(r)) != midx
    fw, fm = wava_err.mean(), ml_err.mean()
    hw = 1.96 * math.sqrt(fm * (1 - fm) / trials)
    assert abs(fw - fm) <= 3 * hw


def test_fer_below_union_bound(repetition_toy):
    spectrum = weight_enumerator(repetition_toy)
    assert dict(spectrum.items()) == {0: 1, 3: 2, 6: 1}
    rep = simulate_fer(
        repetition_toy, 0.05, stop=StopRule(max_trials=200_000, target_errors=10_000), seed=5
    )
    bound = union_bound_pb(spectrum, 0.05)
    assert rep.estimate <= bound + 3 * rep.confidence_halfwidth


def test_fer_monotone_in_crossover(repetition_toy):
    stop = StopRule(max_trials=20_000, target_errors=1_000_000)
    r1 = simulate_fer(repetition_toy, 0.05, stop=stop, seed=9)
    r2 = simulate_fer(repetition_toy, 0.15, stop=stop, seed=10)
    assert r1.estimate <= r2.estimate + 3 * (r1.confidence_halfwidth + r2.confidence_halfwidth)


def test_fer_deterministic_across_workers(repetition_toy):
    stop = StopRule(max_trials=3 * CHUNK, target_errors=300)
    a = simulate_fer(repetition_toy, 0.08, stop=stop, seed=12, workers=1)
    b = simulate_fer(repetition_toy, 0.08, stop=stop, seed=12, workers=3)
    assert (a.estimate, a.trials, a.event_count) == (b.estimate, b.trials, b.event_count)


def test_early_stop_leaves_no_pool_thread():
    # the stop rule cuts in the first chunk while the other worker still decodes one
    code = random_code(np.random.default_rng(3), m=4, k=1, n=2, ell=16)
    before = set(threading.enumerate())
    rep = simulate_fer(code, 0.1, stop=StopRule(10**6, 5), seed=1, workers=2)
    assert rep.trials < CHUNK
    assert [t.name for t in threading.enumerate() if t not in before] == []


def test_fer_early_stop_is_exact(repetition_toy):
    rep = simulate_fer(
        repetition_toy, 0.3, stop=StopRule(max_trials=10 * CHUNK, target_errors=25), seed=13
    )
    assert rep.event_count == 25
    # the cut lands exactly on the 25th error: one fewer trial has 24
    key = seed_key(13)
    errs = []
    from nestedtbcc.simulate import STREAM_FER
    from nestedtbcc.encoder import encode_many as enc

    tr = build_trellis(repetition_toy)
    i = 0
    while len(errs) < rep.trials:
        rng = chunk_rng(key, STREAM_FER, i)
        msgs = rng.integers(0, 2, size=(CHUNK, repetition_toy.K), dtype=np.uint8)
        flips = (rng.random((CHUNK, repetition_toy.N)) < 0.3).astype(np.uint8)
        res = wava_decode_many(tr, enc(repetition_toy, msgs) ^ flips)
        errs.extend((res.msg_bits != msgs).any(axis=1).tolist())
        i += 1
    assert sum(errs[: rep.trials]) == 25 and errs[rep.trials - 1]


def test_distortion_deterministic_across_workers():
    code = toy_pair_a().vq_code
    trials = 2 * CHUNK + 5
    a = simulate_distortion(code, trials=trials, seed=14, workers=1)
    b = simulate_distortion(code, trials=trials, seed=14, workers=3)
    assert a.trials == trials
    assert dataclasses.replace(a, wallclock=0.0) == dataclasses.replace(b, wallclock=0.0)
    # chunk i draws from stream (seed, STREAM_DISTORTION, i)
    from nestedtbcc.simulate import STREAM_DISTORTION

    tr = build_trellis(code)
    dist = []
    for i, count in enumerate((CHUNK, CHUNK, 5)):
        x = (chunk_rng(seed_key(14), STREAM_DISTORTION, i).random((count, code.N)) < 0.5)
        dist.append(wava_decode_many(tr, x.astype(np.uint8)).distance / code.N)
    assert a.event_count == float(np.concatenate(dist).sum())


def test_distortion_rate_one_code_is_zero():
    pair = toy_pair_b()
    rep = simulate_distortion(pair.vq_code, trials=256, seed=1)
    assert rep.estimate == 0.0


def test_distortion_matches_exhaustive_mean():
    pair = toy_pair_a()
    code = pair.vq_code
    book = pack_rows(exhaustive_codebook(code))
    n_all = 1 << code.N
    allx = ((np.arange(n_all)[:, None] >> np.arange(code.N)[None, :]) & 1).astype(np.uint8)
    exact_mean = nearest_distances(book, pack_rows(allx)).mean() / code.N
    rep = simulate_distortion(code, trials=4096, seed=2)
    assert abs(rep.estimate - exact_mean) <= 3 * rep.confidence_halfwidth
    assert rep.estimate == pytest.approx(rep.event_count / rep.trials)


def test_distortion_respects_converse():
    # the converse counts covering balls, so the worst-case (covering)
    # distortion must be feasible; tiny toys can average below the bound
    pair = toy_pair_a()
    code = pair.vq_code
    book = pack_rows(exhaustive_codebook(code))
    n_all = 1 << code.N
    allx = ((np.arange(n_all)[:, None] >> np.arange(code.N)[None, :]) & 1).astype(np.uint8)
    covering = nearest_distances(book, pack_rows(allx)).max() / code.N
    r_vq = code.K / code.N
    assert quantizer_converse_feasible(code.N, r_vq, covering)

    # a rate-1 code achieves zero distortion, also feasible
    b = toy_pair_b()
    rep = simulate_distortion(b.vq_code, trials=256, seed=3)
    assert quantizer_converse_feasible(b.vq_code.N, 1.0, rep.estimate)


def test_e2e_deterministic_and_zero_noise_on_codewords():
    pair = toy_pair_a()
    a = simulate_end_to_end(pair, 0.01, stop=StopRule(max_trials=2000), seed=4)
    b = simulate_end_to_end(pair, 0.01, stop=StopRule(max_trials=2000), seed=4)
    assert (a.estimate, a.trials, a.event_count) == (b.estimate, b.trials, b.event_count)

    # x forced to a codeword and p_A = 0: reconstruction is perfect
    msgs = all_messages(pair.K_vq)
    x = encode_many(pair.vq_code, msgs)
    from nestedtbcc.keyagree import enroll_many, reconstruct_many

    s_bits, w_bits, _ = enroll_many(pair, x)
    assert np.array_equal(reconstruct_many(pair, x, w_bits), s_bits)


def test_e2e_toy_error_rate_matches_artificial_channel_bound():
    # the artificial-channel view: decoder sees roughly BSC(q * p_A)
    from nestedtbcc.bounds import star

    pair = toy_pair_a()
    p_A = 0.0149
    q_rep = simulate_distortion(pair.vq_code, trials=4096, seed=5)
    p_art = star(q_rep.estimate, p_A)
    bound = union_bound_pb(weight_enumerator(pair.fec_code), p_art)
    rep = simulate_end_to_end(
        pair, p_A, stop=StopRule(max_trials=20_000, target_errors=1_000_000), seed=6
    )
    assert rep.estimate <= bound + 3 * rep.confidence_halfwidth + 0.01


def test_confidence_interval_coverage(repetition_toy):
    # exact truth by enumerating every (message, flip pattern) pair
    code = repetition_toy
    p = 0.2
    msgs_all = all_messages(code.K)
    cw = encode_many(code, msgs_all)
    n_pat = 1 << code.N
    pats = ((np.arange(n_pat)[:, None] >> np.arange(code.N)[None, :]) & 1).astype(np.uint8)
    tr = build_trellis(code)
    truth = 0.0
    for mi in range(len(msgs_all)):
        r = cw[mi][None, :] ^ pats
        res = wava_decode_many(tr, r)
        err = (res.msg_bits != msgs_all[mi][None, :]).any(axis=1)
        w = pats.sum(axis=1)
        probs = (p ** w) * ((1 - p) ** (code.N - w))
        truth += probs[err].sum() / len(msgs_all)
    covered = 0
    runs = 100
    stop = StopRule(max_trials=500, target_errors=10**9)
    for s in range(runs):
        rep = simulate_fer(code, p, stop=stop, seed=(1000, s))
        if abs(rep.estimate - truth) <= rep.confidence_halfwidth:
            covered += 1
    assert covered >= 90


def test_calibration_finds_a_passing_crossover():
    pair = toy_pair_a()
    p_c, log = calibrate_pc(pair.fec_code, 1e-2, 0.0, seed=7)
    assert 0.0 <= p_c < 0.5
    assert any(e["passed"] for e in log)
    # the returned value is the largest probed passing crossover
    passing = [e["p"] for e in log if e["passed"]]
    failing = [e["p"] for e in log if not e["passed"]]
    assert p_c == max(passing)
    assert all(p_c <= p for p in failing)


def test_calibration_returns_half_when_the_top_probe_passes(unit_toy):
    # K = N = 2: the decoder returns the received word, which at p = 0.5 is wrong
    # with probability 3/4, and an error rate of 3/4 passes a target of 0.99
    p_c, log = calibrate_pc(unit_toy, 0.99, 0.0, seed=1)
    assert p_c == 0.5
    assert [(e["p"], e["passed"]) for e in log] == [(0.5, True)]


def test_calibration_from_zero_logs_only_probes_that_ran_trials():
    # p_A = 0 passes unprobed (the decoder is exact on codewords): every logged
    # probe simulated, at the top of the bracket and at each bisection point
    p_c, log = calibrate_pc(toy_pair_a().fec_code, 1e-2, 0.0, seed=7)
    assert len(log) == CALIBRATION_PROBES - 1
    assert all(e["trials"] > 0 and e["p"] > 0.0 for e in log)
    assert p_c == max(e["p"] for e in log if e["passed"])


def test_calibration_failure_raises():
    pair = toy_pair_a()
    with pytest.raises(DesignFailure, match=r"^crossover calibration failed: target "
                       r"P_B=1e-09 unreachable even at p_A=0\.45$"):
        calibrate_pc(pair.fec_code, 1e-9, 0.45, stop=StopRule(max_trials=500), seed=8)


def test_calibration_from_zero_fails_when_no_probe_passes():
    # 500 error-free trials certify at best 3/500: no crossover reaches 1e-9, and the
    # error names the smallest crossover probed, 0.5 / 2^8, instead of returning 0.0
    with pytest.raises(DesignFailure, match=r"^crossover calibration failed: target "
                       r"P_B=1e-09 unreachable even at p=0\.001953125$"):
        calibrate_pc(toy_pair_a().fec_code, 1e-9, 0.0, stop=StopRule(max_trials=500), seed=8)


def test_derived_rate_fields_match_reference_arithmetic():
    # row with N=384: R_vq=0.8047 -> K_vq=309
    r_vq, r_w, helper, ratio = derived_rate_fields(384, 128, round(384 * 0.8047))
    assert abs(float(r_w) - 0.4714) < 1e-3
    assert helper == 181
    assert abs(float(ratio) - 0.7072) < 1e-3
    # row with N=1024: R_vq=0.3584 -> K_vq=367
    r_vq, r_w, helper, ratio = derived_rate_fields(1024, 128, round(1024 * 0.3584))
    assert abs(float(r_w) - 0.2333) < 1e-3
    assert helper == 239
    assert abs(float(ratio) - 0.5358) < 1e-3
    with pytest.raises(ValueError):
        derived_rate_fields(384, 128, 128)


def test_evaluate_row_identities():
    pair = toy_pair_a()
    row = evaluate(pair, 1e-2, seed=9, stop=StopRule(max_trials=50_000), distortion_trials=1024)
    r_fec = Fraction(pair.K_fec, pair.N)
    r_vq, r_w, helper_bits, ratio = derived_rate_fields(pair.N, pair.K_fec, pair.K_vq)
    assert r_w == r_vq - r_fec
    assert helper_bits == math.ceil(pair.N * r_w)
    assert ratio == r_fec / r_w
    # the row carries those exact rates as floats
    assert [row[f] for f in ("R_fec", "R_vq", "R_w", "ratio")] == [
        float(r_fec), float(r_vq), float(r_w), float(ratio)]
    assert row["helper_bits"] == helper_bits
    assert row["m"] == pair.vq_code.spec.m
    assert row["complexity_fec_kind"] in {"F", "P", "M"}
    # the complexity columns count the decoder's own sweep cap
    n, m = pair.vq_code.spec.n, pair.vq_code.spec.m
    assert row["complexity_vq_log2"] == complexity_estimates(
        pair.N, n, math.ceil(n * r_vq), m, wava.SWEEPS).log2_min


def test_region_curve_and_aux():
    rows = region_curve(0.0149, [0.0, 0.1, 0.25, 0.5])
    assert abs(rows[0][1] - 0.8882) < 1e-4 and abs(rows[0][2] - 0.1118) < 1e-4
    r_s = [r[1] for r in rows]
    assert all(a >= b for a, b in zip(r_s, r_s[1:]))
    assert rows[-1][1] == pytest.approx(0.0) and rows[-1][2] == pytest.approx(0.0, abs=1e-12)

    aux = region_aux_series(0.0149, [0.05, 0.1, 0.2], n_block=64)
    assert {"gs_boundary", "sw_line", "quantizer_rate_approx",
            "quantizer_converse_min_rate"} <= set(aux)
    for q, rq in aux["quantizer_converse_min_rate"]:
        assert quantizer_converse_feasible(64, rq + 1e-9, q)


def test_fixture_overlay_parses_shipped_data():
    from nestedtbcc.fixtures import fixture_overlay, fixture_path, load_mc_rcu

    rows = load_mc_rcu(fixture_path("mc_rcu_n384_r13"))
    d = {r["p"]: r for r in rows}
    assert d[0.098684]["mc"] == pytest.approx(7.0334e-07)
    assert d[0.098684]["rcu"] == pytest.approx(1.7166e-06)

    overlay = fixture_overlay([
        fixture_path("mc_rcu_n384_r13"),
        fixture_path("mc_rcu_n512_r14"),
        fixture_path("pc_fer_n512_r14"),
        fixture_path("table2_reference"),
    ])
    series = {s for s, _, _ in overlay}
    assert {"mc", "rcu", "pc_fer", "pc_rate_point", "tbcc_rate_point"} <= series


def test_load_mc_rcu_checks_the_header(tmp_path):
    from nestedtbcc.fixtures import load_mc_rcu

    path = tmp_path / "bounds.csv"
    path.write_text("p,fer,ber\n0.1,0.2,0.3\n")
    with pytest.raises(ValueError, match=r": expected header p,mc,rcu$"):
        load_mc_rcu(path)
