"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the -v test names alone give one pass/fail line per criterion.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    all_messages,
    exhaustive_codebook,
    exhaustive_spectrum,
    nearest_distances,
    pack_rows,
    random_code,
    toy_pair_a,
    toy_pair_b,
    toy_pair_c,
)
from nestedtbcc.bounds import (
    binary_entropy,
    complexity_estimates,
    distortion_limit,
    gs_region_point,
    pc_complexity,
    union_bound_pb,
)
from nestedtbcc.design import design_nested
from nestedtbcc.encoder import (
    EncoderSpec,
    TailbitingCode,
    encode_many,
    encode_tailbiting,
)
from nestedtbcc.fixtures import fixture_overlay, fixture_path, load_mc_rcu, load_reference_table
from nestedtbcc.gf2 import BitMatrix, BitVector
from nestedtbcc.keyagree import enroll_many, pair_to_dict, reconstruct_many
from nestedtbcc.simulate import StopRule, simulate_distortion, simulate_end_to_end
from nestedtbcc.trellis import build_trellis, weight_enumerator
from nestedtbcc.wava import wava_decode_many

P_A_REFERENCE = 0.0149


def _sample_toy_code(rng) -> TailbitingCode:
    while True:
        m = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        ell = int(rng.integers(m, 7))
        code = random_code(rng, m, k, n, ell, freeze_prob=0.3 if k > 1 else 0.0)
        if code.K <= 16:
            return code


def test_criterion_01_spectrum_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for i in range(200):
        code = _sample_toy_code(rng)
        got = dict(weight_enumerator(code, d_max=code.N).items())
        want = exhaustive_spectrum(code)
        assert got == want, f"code {i}: spectrum mismatch"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\n[criterion 1] PASS: 200 random spectra equal the exhaustive "
          f"histograms exactly ({elapsed:.1f}s)")


def test_criterion_02_hand_checked_enumerators():
    spec = EncoderSpec.rate_one_over_n(BitMatrix.from_rows([[1]]))
    assert weight_enumerator(TailbitingCode.unfrozen(spec, 2)).items() == \
        [(0, 1), (1, 2), (2, 1)]
    spec2 = EncoderSpec.rate_one_over_n(BitMatrix.from_rows([[1], [1]]))
    assert weight_enumerator(TailbitingCode.unfrozen(spec2, 2)).items() == \
        [(0, 1), (2, 2), (4, 1)]
    print("\n[criterion 2] PASS: hand-checked enumerators 1+2X+X^2 and "
          "1+2X^2+X^4 reproduce exactly")


def test_criterion_03_wava_near_ml():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    agreements = 0
    total = 0
    trials_per_code = 200
    while total < 10_000:
        m = int(rng.integers(1, 4))
        k = int(rng.integers(1, 3))
        n = int(rng.integers(2, 4))
        ell = int(rng.integers(max(m, 2), 7))
        code = random_code(rng, m, k, n, ell)
        if code.K > 12:
            continue
        p = float(rng.uniform(0.01, 0.1))
        book = pack_rows(exhaustive_codebook(code))
        msgs = rng.integers(0, 2, (trials_per_code, code.K), dtype=np.uint8)
        r = encode_many(code, msgs) ^ (rng.random((trials_per_code, code.N)) < p).astype(np.uint8)
        res = wava_decode_many(build_trellis(code), r, V=4)
        # validity must be perfect on every single decode
        assert np.array_equal(encode_many(code, res.msg_bits), res.cw_bits)
        oracle = nearest_distances(book, pack_rows(r))
        assert np.all(res.distance >= oracle)
        agreements += int((res.distance == oracle).sum())
        total += trials_per_code
    rate = agreements / total
    elapsed = time.perf_counter() - start
    assert rate >= 0.99, f"near-ML agreement {rate:.4f} < 0.99"
    assert elapsed < 300.0
    print(f"\n[criterion 3] PASS: near-ML agreement {rate:.4f} on {total} "
          f"decodes, validity 100% ({elapsed:.1f}s)")


def test_criterion_04_union_bound_dominates_ml_fer():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    trials = 20_000
    checked = 0
    while checked < 20:
        m = int(rng.integers(1, 4))
        n = int(rng.integers(2, 4))
        ell = int(rng.integers(max(m, 3), 7))
        code = random_code(rng, m, 1, n, ell)
        spectrum = weight_enumerator(code)
        if spectrum.a(0) != 1 or spectrum.d_min() is None:
            continue
        book = exhaustive_codebook(code)
        packed = pack_rows(book)
        msgs_all = all_messages(code.K)
        for p in (0.02, 0.05, 0.1):
            midx = rng.integers(0, len(msgs_all), trials)
            r = book[midx] ^ (rng.random((trials, code.N)) < p).astype(np.uint8)
            ml_idx = np.argmin(
                np.bitwise_count(
                    pack_rows(r)[:, None, :] ^ packed[None, :, :]
                ).sum(axis=2),
                axis=1,
            )
            fer = float((ml_idx != midx).mean())
            hw = 1.96 * math.sqrt(max(fer * (1 - fer), 1e-12) / trials)
            bound = union_bound_pb(spectrum, p)
            assert fer <= bound + 3 * hw, (
                f"code {checked} at p={p}: ML FER {fer:.5f} above bound {bound:.5f}"
            )
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(f"\n[criterion 4] PASS: ML FER within the union bound for 20 codes "
          f"x 3 crossovers ({elapsed:.1f}s)")


def test_criterion_05_reference_table_arithmetic():
    rows = load_reference_table()
    assert len(rows) == 6
    for row in rows:
        k_fec = int(row.N * row.R_fec)
        k_vq = round(row.N * row.R_vq)
        r_w = Fraction(k_vq - k_fec, row.N)
        assert abs(float(r_w) - row.R_w) <= 1e-3, f"{row.code} N={row.N}: R_w"
        assert math.ceil(row.N * r_w) == k_vq - k_fec == row.helper_bits
        ratio = k_fec / (k_vq - k_fec)
        assert abs(ratio - row.ratio) <= 1e-3, f"{row.code} N={row.N}: ratio"
        if row.code == "TBCC":
            fec = complexity_estimates(row.N, row.n, 1, row.m, row.V)
            assert fec.kind == row.c_fec_kind
            assert abs(fec.log2_min - row.c_fec_log2) <= 0.01
            k_vq_eq = math.ceil(row.n * row.R_vq)
            vq = complexity_estimates(row.N, row.n, k_vq_eq, row.m, row.V)
            assert vq.kind == row.c_vq_kind
            assert abs(vq.log2_min - row.c_vq_log2) <= 0.01
        else:
            got = math.log2(pc_complexity(row.L, row.N))
            assert abs(got - row.c_fec_log2) <= 0.01
            assert abs(got - row.c_vq_log2) <= 0.01
    print("\n[criterion 5] PASS: all six reference rows reproduce (rates, "
          "helper bits, ratios, 8 TBCC + 2 PC complexity exponents)")


def test_criterion_06_distortion_budget_consistency():
    rows = [r for r in load_reference_table() if r.code == "TBCC"]
    tolerances = {(11, 384): 5e-4, (11, 512): 5e-4, (8, 384): 1e-3, (8, 512): 1e-3}
    for row in rows:
        tol = tolerances[(row.m, row.N)]
        q = distortion_limit(row.p_c, P_A_REFERENCE)
        assert abs(q - row.q_bar) <= tol, (
            f"m={row.m} N={row.N}: limit {q:.5f} vs reported {row.q_bar}"
        )
    print("\n[criterion 6] PASS: reported distortions sit at the "
          "(p_c - p_A)/(1 - 2 p_A) budget for all four TBCC rows")


def test_criterion_07_region_anchor_and_identity():
    pt = gs_region_point(P_A_REFERENCE, 0.0)
    assert abs(pt.R_s - 0.8882) <= 1e-4
    assert abs(pt.R_w - 0.1118) <= 1e-4
    for q in np.linspace(0.0, 0.5, 1000):
        p = gs_region_point(P_A_REFERENCE, float(q))
        assert abs(p.R_s + p.R_w - (1.0 - binary_entropy(float(q)))) <= 1e-12
    print("\n[criterion 7] PASS: (R_s, R_w) anchor (0.8882, 0.1118) and the "
          "boundary identity hold on a 1000-point grid")


def test_criterion_08_end_to_end_correctness():
    start = time.perf_counter()
    # exhaustive noiseless round trips on three nested toy pairs
    for make in (toy_pair_a, toy_pair_b, toy_pair_c):
        pair = make()
        assert pair.K_vq <= 14
        msgs = all_messages(pair.K_vq)
        x = encode_many(pair.vq_code, msgs)
        s_bits, w_bits, dist = enroll_many(pair, x)
        assert np.all(dist == 0)
        assert np.array_equal(reconstruct_many(pair, x, w_bits), s_bits)

    # noisy loop on a pair designed for P_B = 1e-2
    pair, report = design_nested(
        p_A=P_A_REFERENCE, target_pb=1e-2, K_fec=16, n=3, m=4, seed=808,
        w_max=64, stop=StopRule(max_trials=200_000), distortion_trials=2048,
    )
    rep = simulate_end_to_end(
        pair, P_A_REFERENCE,
        stop=StopRule(max_trials=10_000, target_errors=10**9), seed=909,
    )
    assert rep.trials == 10_000
    assert rep.estimate <= 1e-2 + 3 * rep.confidence_halfwidth, (
        f"empirical P_B {rep.estimate:.4f} exceeds target"
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"\n[criterion 8] PASS: exhaustive noiseless round trips on 3 pairs; "
          f"designed pair measured P_B={rep.estimate:.4f} <= 1e-2 + 3hw "
          f"({elapsed:.1f}s)")


@pytest.mark.slow
def test_criterion_09_design_pipeline_property_run():
    start = time.perf_counter()
    kwargs = dict(p_A=P_A_REFERENCE, target_pb=1e-3, K_fec=32, n=3, m=6,
                  seed=2024, w_max=500)
    pair, report = design_nested(**kwargs)
    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0, f"design took {elapsed:.0f}s > 30 min"

    # subcode inclusion, exhaustively at a truncated section count
    spec = pair.vq_code.spec
    short = 8
    fec_short = TailbitingCode.unfrozen(EncoderSpec.rate_one_over_n(spec.C), short)
    vq_short = TailbitingCode.unfrozen(spec, short)
    from conftest import codeword_set

    sub = codeword_set(fec_short)
    # key-only messages of the supercode reproduce the subcode words
    zero_pad = np.zeros((1 << short, vq_short.K - short), dtype=np.uint8)
    key_msgs = all_messages(short)
    merged = np.zeros((1 << short, vq_short.K), dtype=np.uint8)
    ki = np.flatnonzero(vq_short.input_index % spec.k == 0)
    merged[:, ki] = key_msgs
    via_vq = encode_many(vq_short, merged)
    assert {tuple(r) for r in via_vq.tolist()} == sub

    # at the full length, key-only encodings agree between the two codes
    rng = np.random.default_rng(0)
    zero_w = BitVector.zeros(pair.K_vq - pair.K_fec)
    for _ in range(200):
        s = BitVector.from_bits(rng.integers(0, 2, pair.K_fec).tolist())
        assert encode_tailbiting(pair.vq_code, pair.merge_message(s, zero_w)) == \
            encode_tailbiting(pair.fec_code, s)

    # measured distortion meets the budget with a fresh seed
    fresh = simulate_distortion(pair.vq_code, trials=4096, seed=31337)
    assert fresh.estimate <= report.q_max + 3 * fresh.confidence_halfwidth

    # bit-identical reproduction under the same seed
    pair2, report2 = design_nested(**kwargs)
    assert pair_to_dict(pair2) == pair_to_dict(pair)
    assert (report2.p_c_sim, report2.q_bar) == (report.p_c_sim, report.q_bar)
    total = time.perf_counter() - start
    print(f"\n[criterion 9] PASS: nested design (m=6, K_fec=32) completed in "
          f"{elapsed:.2f}s, subcode inclusion exhaustive at ell={short}, "
          f"q_bar={report.q_bar:.4f} <= budget {report.q_max:.4f}, "
          f"deterministic ({total:.0f}s total)")


def test_criterion_10_paper_scale_fixtures_not_recomputed():
    # The published design points (p_c = 0.0545/0.0365/0.0837/0.0640 and the
    # matching distortions and simulated curves) came from 10^4-candidate
    # searches with unpublished seeds and generator matrices; they are
    # plausibility anchors here, not reproduction targets.  The acceptance
    # substitute is criteria 1-9 plus the transcribed reference data below.
    rows = load_mc_rcu(fixture_path("mc_rcu_n384_r13"))
    d = {r["p"]: r for r in rows}
    assert d[0.098684]["mc"] == pytest.approx(7.0334e-07)
    assert d[0.098684]["rcu"] == pytest.approx(1.7166e-06)
    assert len(load_mc_rcu(fixture_path("mc_rcu_n512_r14"))) == 40

    overlay = fixture_overlay([
        fixture_path("mc_rcu_n384_r13"),
        fixture_path("mc_rcu_n512_r14"),
        fixture_path("pc_fer_n512_r14"),
        fixture_path("table2_reference"),
    ])
    series = {s for s, _, _ in overlay}
    assert {"mc", "rcu", "pc_fer", "pc_rate_point", "tbcc_rate_point"} <= series
    # reference table rows carry the published p_c values verbatim
    pcs = sorted(r.p_c for r in load_reference_table() if r.code == "TBCC")
    assert pcs == [0.0365, 0.0545, 0.064, 0.0837]
    print("\n[criterion 10] PASS: paper-scale designs are declared "
          "non-reproducible (unpublished seeds/matrices); MC/RCU/PC reference "
          "data ship as fixtures and overlay correctly")
