import math

import numpy as np
import pytest

import nestedtbcc.trellis as trellis_mod
from conftest import (
    all_messages,
    exhaustive_spectrum,
    oracle_detours,
    random_code,
    random_spec,
)
from nestedtbcc.encoder import (
    EncoderSpec,
    FreezingSchedule,
    TailbitingCode,
    encode_many,
)
from nestedtbcc.gf2 import BitMatrix
from nestedtbcc.trellis import FreeDistanceReport, build_trellis, free_distance, weight_enumerator
from free_distance_reference import has_zero_weight_cycle, reference_free_distance
from spectrum_reference import reference_weight_enumerator


def test_trellis_shape_toy(unit_toy):
    tr = build_trellis(unit_toy)
    assert tr.S == 2
    assert all(tr.views[o].out_degree == 2 for o in tr.order)
    # count tailbiting paths by brute force over edges
    paths = 0
    for s0 in range(tr.S):
        frontier = {s0: 1}
        for view in (tr.views[o] for o in tr.order):
            nxt = {}
            for s, cnt in frontier.items():
                for u in view.inputs:
                    d = int(tr.next_state[s, u])
                    nxt[d] = nxt.get(d, 0) + cnt
            frontier = nxt
        paths += frontier.get(s0, 0)
    assert paths == 4


def test_frozen_section_halves_out_degree():
    rng = np.random.default_rng(1)
    spec = random_spec(rng, m=2, k=2, n=2)
    frozen = (frozenset(), frozenset({1}), frozenset(), frozenset())
    tr = build_trellis(TailbitingCode(spec, FreezingSchedule(4, frozen)))
    sections = [tr.views[o] for o in tr.order]
    assert sections[0].out_degree == 4
    assert sections[1].out_degree == 2
    # the two distinct sections are listed once, in order of first use
    assert tr.order == [0, 1, 0, 0] and len(tr.views) == 2
    # and section t's view holds the inputs its frozen set admits
    assert [v.inputs.tolist() for v in sections] == [[0, 1, 2, 3], [0, 1], [0, 1, 2, 3], [0, 1, 2, 3]]


def test_section_views_list_the_raw_edges_in_tie_break_order():
    # every admissible edge (s, u) of next_state/out_int, grouped by target and
    # sorted by input, then source: the views' closed form must list exactly these
    rng = np.random.default_rng(29)
    for m in [1, 2, 3, 4, 5, 6, 7] * 4:
        k = int(rng.integers(1, 5))
        code = random_code(rng, m=m, k=k, n=int(rng.integers(1, 5)),
                           ell=m + int(rng.integers(0, 4)), freeze_prob=0.5)
        tr = build_trellis(code)
        assert len(tr.views) == len(set(code.schedule.frozen))
        for t, fs in enumerate(code.schedule.frozen):
            view = tr.views[tr.order[t]]
            adm = [u for u in range(1 << k) if not any(u >> i & 1 for i in fs)]
            into = {x: [] for x in range(tr.S)}
            for s in range(tr.S):
                for u in adm:
                    into[int(tr.next_state[s, u])].append((u, s, int(tr.out_int[s, u])))
            edges = np.array([sorted(into[x]) for x in range(tr.S)])   # [S, A, 3]
            assert view.inputs.tolist() == adm
            for a in (view.inputs, view.in_src, view.in_u, view.in_out, view.in_w):
                assert a.dtype == np.int64 and not a.flags.writeable
            assert np.array_equal(view.in_u, edges[..., 0])
            assert np.array_equal(view.in_src, edges[..., 1])
            assert np.array_equal(view.in_out, edges[..., 2])
            assert np.array_equal(view.in_w, [[bin(o).count("1") for o in row]
                                              for row in edges[..., 2]])


def test_pair_targets_share_their_in_edges():
    # the enumerator's pair rows rest on this: targets 2X and 2X + 1 are reached
    # from the same sources with the same outputs, by inputs that differ in bit 0
    rng = np.random.default_rng(31)
    frozen_views = 0
    for m in [1, 2, 3, 4, 5, 6] * 4:
        code = random_code(rng, m=m, k=int(rng.integers(1, 4)), n=int(rng.integers(1, 4)),
                           ell=m + int(rng.integers(0, 4)), freeze_prob=0.5)
        for view in build_trellis(code).views:
            frozen_views += view.out_degree < 1 << code.spec.k
            assert np.array_equal(view.in_src[0::2], view.in_src[1::2])
            assert np.array_equal(view.in_w[0::2], view.in_w[1::2])
            assert np.array_equal(view.in_out[0::2], view.in_out[1::2])
            assert np.array_equal(view.in_u[0::2] ^ 1, view.in_u[1::2])
    assert frozen_views >= 10


def test_paths_biject_with_messages():
    rng = np.random.default_rng(2)
    code = random_code(rng, m=2, k=2, n=2, ell=4)
    tr = build_trellis(code)
    # enumerate tailbiting paths and their outputs via the section views
    outputs = []

    def walk(t, s, start, acc):
        if t == tr.ell:
            if s == start:
                outputs.append(tuple(acc))
            return
        view = tr.views[tr.order[t]]
        for u in view.inputs:
            walk(t + 1, int(tr.next_state[s, u]), start, acc + [int(tr.out_int[s, u])])

    for s0 in range(tr.S):
        walk(0, s0, s0, [])
    assert len(outputs) == 2 ** code.K

    cws = encode_many(code, all_messages(code.K))
    enc_words = sorted(
        tuple(int("".join(map(str, row[t * 2:(t + 1) * 2][::-1])), 2) for t in range(code.ell))
        for row in cws.tolist()
    )
    assert sorted(outputs) == enc_words


def test_hand_checked_enumerators(unit_toy):
    assert weight_enumerator(unit_toy).items() == [(0, 1), (1, 2), (2, 1)]
    spec = EncoderSpec.rate_one_over_n(BitMatrix.from_rows([[1], [1]]))
    code = TailbitingCode.unfrozen(spec, 2)
    assert weight_enumerator(code).items() == [(0, 1), (2, 2), (4, 1)]


def test_zero_observation_matrix_counts_paths():
    spec = EncoderSpec.rate_one_over_n(BitMatrix.zeros(2, 2))
    # every path has weight 0, so entries reach 2^(K-m): past int32 at K=36,
    # past int64 at K=70
    for ell in (4, 36, 70):
        code = TailbitingCode.unfrozen(spec, ell)
        sp = weight_enumerator(code)
        assert sp.items() == [(0, 2 ** code.K)]
        assert sp.a(0) > 1  # path counts, not codeword counts


def test_spectrum_matches_exhaustive_histogram():
    rng = np.random.default_rng(3)
    for _ in range(30):
        code = random_code(
            rng,
            m=int(rng.integers(1, 4)),
            k=int(rng.integers(1, 4)),
            n=int(rng.integers(1, 4)),
            ell=int(rng.integers(3, 6)),
            freeze_prob=0.3,
        )
        if code.K > 14:
            continue
        assert dict(weight_enumerator(code).items()) == exhaustive_spectrum(code)


def _truncations(code):
    m, n = code.spec.m, code.spec.n
    return sorted({0, min(3, code.N), min(code.N, 4 * m * n), code.N})


def test_matches_reference_enumerator():
    rng = np.random.default_rng(13)
    frozen_sections = 0
    for _ in range(40):
        m = int(rng.integers(1, 7))
        k = int(rng.integers(1, 4))
        code = random_code(
            rng, m=m, k=k, n=int(rng.integers(1, 4)),
            ell=int(rng.integers(max(2, m), m + 5)), freeze_prob=0.4,
        )
        frozen_sections += sum(1 for f in code.schedule.frozen if f)
        for d_max in _truncations(code):
            got = weight_enumerator(code, d_max)
            assert got == reference_weight_enumerator(code, d_max), (m, k, d_max)
    assert frozen_sections >= 20
    # every count fits int64, but one start block's closed counts sum past 2^63
    spec = EncoderSpec.from_lists(3, 1, 2, [[]] * 3, [[0, 1, 0], [0, 0, 1]], [[]] * 2)
    code = TailbitingCode.unfrozen(spec, 67)
    got = weight_enumerator(code)
    assert sum(got.coeffs.values()) == 2 ** code.K
    assert got == reference_weight_enumerator(code)


def _repetition(K):
    spec = EncoderSpec.rate_one_over_n(BitMatrix.from_rows([[1], [1]]))
    return TailbitingCode.unfrozen(spec, K)


@pytest.mark.parametrize("K", [10, 40, 70])
def test_repetition_closed_form_through_every_dtype(K):
    # A_{2d} = C(K, d): int32 only at K=10, past 2^31 (int64) at K=40 and
    # past 2^63 (object) at K=70
    sp = weight_enumerator(_repetition(K))
    assert sp.coeffs == {2 * d: math.comb(K, d) for d in range(K + 1)}


def test_small_byte_budget_gives_identical_spectra(monkeypatch):
    rng = np.random.default_rng(14)
    frozen = (frozenset({1}), frozenset(), frozenset({1, 2}), frozenset(),
              frozenset({2}), frozenset())
    # the repetition code delayed by one step (m=2): _repetition's m=1 has a
    # single start pair, which no budget can split; at K = 40 and 70 its counts
    # reach int64 and Python integers
    delayed = EncoderSpec.rate_one_over_n(BitMatrix.from_rows([[1, 0], [1, 0]]))
    codes = [
        random_code(rng, m=4, k=1, n=2, ell=6),
        TailbitingCode(random_spec(rng, m=4, k=3, n=3), FreezingSchedule(6, frozen)),
        TailbitingCode.unfrozen(delayed, 40),
        TailbitingCode.unfrozen(delayed, 70),
    ]
    want = [[weight_enumerator(c, d) for d in _truncations(c)] for c in codes]
    monkeypatch.setattr(trellis_mod, "_BUDGET_BYTES", 4096)
    for code, spectra in zip(codes, want):
        H = 1 << (code.spec.m - 1)
        # at d_max = N every code runs its H start pairs in several blocks
        assert 4096 // (3 * 8 * (H * (code.N + 1) + 1)) < H
        assert [weight_enumerator(code, d) for d in _truncations(code)] == spectra


def test_negative_truncation_is_rejected(unit_toy):
    with pytest.raises(ValueError, match="negative"):
        weight_enumerator(unit_toy, -1)


def test_truncation_agrees_on_prefix():
    rng = np.random.default_rng(4)
    code = random_code(rng, m=3, k=2, n=2, ell=5)
    full = weight_enumerator(code)
    half = weight_enumerator(code, d_max=code.N // 2)
    assert half.truncated
    for d in range(code.N // 2 + 1):
        assert half.a(d) == full.a(d)


def test_trace_invariant_under_section_rotation():
    rng = np.random.default_rng(5)
    spec = random_spec(rng, m=2, k=2, n=2)
    frozen = (frozenset({1}), frozenset(), frozenset(), frozenset({1}), frozenset())
    code = TailbitingCode(spec, FreezingSchedule(5, frozen))
    rotated = TailbitingCode(spec, FreezingSchedule(5, frozen[2:] + frozen[:2]))
    assert weight_enumerator(code).items() == weight_enumerator(rotated).items()


def test_subcode_domination():
    rng = np.random.default_rng(6)
    spec = random_spec(rng, m=2, k=3, n=2)
    ell = 4
    big = TailbitingCode.unfrozen(spec, ell)
    small = TailbitingCode(
        spec, FreezingSchedule(ell, (frozenset({2}), frozenset(), frozenset({1, 2}), frozenset()))
    )
    a_big = weight_enumerator(big)
    a_small = weight_enumerator(small)
    for d in range(big.N + 1):
        assert a_small.a(d) <= a_big.a(d)


def test_sum_rule_and_dimension():
    rng = np.random.default_rng(7)
    code = random_code(rng, m=2, k=2, n=3, ell=4, freeze_prob=0.25)
    sp = weight_enumerator(code)
    if sp.a(0) == 1:  # injective: coefficients count codewords
        assert sum(sp.coeffs.values()) == 2 ** code.K


def test_free_distance_examples():
    spec = EncoderSpec.rate_one_over_n(BitMatrix.from_rows([[1], [1]]))
    rep = free_distance(spec)
    assert (rep.d_free, rep.a_free) == (2, 1)

    spec2 = EncoderSpec.rate_one_over_n(BitMatrix.from_rows([[1, 0], [1, 1]]))
    rep2 = free_distance(spec2)
    assert (rep2.d_free, rep2.a_free) == (3, 1)

    # C = (1 1): state 3 keeps output 0 on input 1, a zero-weight self-loop
    # on the weight-2 detour 0 -> 1 -> 3 -> 2 -> 0
    spec3 = EncoderSpec.rate_one_over_n(BitMatrix.from_rows([[1, 1]]))
    assert free_distance(spec3) == FreeDistanceReport(2, None, divergent=True)


def test_free_distance_degenerate_flag():
    spec = EncoderSpec(
        m=2, k=1, n=2,
        B_tilde=BitMatrix.zeros(2, 0),
        C=BitMatrix.zeros(2, 2),
        D_tilde=BitMatrix.zeros(2, 0),
    )
    rep = free_distance(spec)
    assert rep.d_free == 0 and rep.degenerate


def test_free_distance_against_dfs_oracle():
    rng = np.random.default_rng(8)
    checked = 0
    for _ in range(25):
        spec = random_spec(rng, m=int(rng.integers(1, 4)), k=int(rng.integers(1, 3)), n=2)
        rep = free_distance(spec)
        if rep.degenerate or rep.divergent:
            continue
        d, a = oracle_detours(spec)
        assert (rep.d_free, rep.a_free) == (d, a)
        checked += 1
    assert checked >= 10


def test_matches_reference_free_distance():
    rng = np.random.default_rng(15)
    # off_detour: ordinary, though a zero-weight cycle exists off every
    # minimal detour, which the divergence test must not count
    kinds = {"ordinary": 0, "degenerate": 0, "divergent": 0, "off_detour": 0}
    for i in range(2000):
        m, k, n = int(rng.integers(1, 9)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
        spec = random_spec(rng, m, k, n)
        if i % 4 == 0:  # sparse taps: long detours and zero-weight cycles
            C = BitMatrix.from_rows((rng.random((n, m)) < 0.15).astype(int).tolist(), m)
            spec = EncoderSpec(m=m, k=k, n=n, B_tilde=spec.B_tilde, C=C,
                               D_tilde=BitMatrix.zeros(n, k - 1))
        got = free_distance(spec)
        assert got == reference_free_distance(spec), spec
        kinds["degenerate" if got.degenerate else "divergent" if got.divergent
              else "ordinary"] += 1
        if not (got.degenerate or got.divergent) and has_zero_weight_cycle(spec):
            kinds["off_detour"] += 1
    assert min(kinds.values()) >= 100, kinds


def test_dfree_lower_bounds_min_weight_at_long_lengths():
    rng = np.random.default_rng(9)
    for _ in range(10):
        spec = random_spec(rng, m=2, k=1, n=2)
        rep = free_distance(spec)
        if rep.degenerate:
            continue
        code = TailbitingCode.unfrozen(spec, 2 * spec.m + 2)
        dmin = weight_enumerator(code).d_min()
        if dmin is not None:
            assert dmin >= rep.d_free
