import copy
import json
import re
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    exhaustive_codebook,
    nearest_distances,
    pack_rows,
    random_code,
)
from nestedtbcc import wava
from nestedtbcc.encoder import code_from_dict, encode_many
from nestedtbcc.keyagree import pair_from_dict
from nestedtbcc.trellis import build_trellis
from nestedtbcc.wava import wava_decode_many
from wava_fallback_reference import CountingKernel, exhaustive_constrained
from wava_gather_reference import GatherTables, gather_sweep
import wava_reference
from wava_reference import reference_decode_many
from wava_spy import kernel_spies


def test_codeword_is_fixed_point(repetition_toy):
    msgs = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=np.uint8)
    cws = encode_many(repetition_toy, msgs)
    res = wava_decode_many(build_trellis(repetition_toy), cws)
    assert np.array_equal(res.cw_bits, cws)
    assert np.array_equal(res.msg_bits, msgs)
    assert np.all(res.distance == 0)
    assert np.all(res.converged) and np.all(res.iterations == 1)


def test_single_error_example(repetition_toy):
    res = wava_decode_many(build_trellis(repetition_toy), np.array([[1, 1, 0, 0, 0, 0]]))
    assert res.cw_bits.tolist() == [[1, 1, 1, 0, 0, 0]]
    assert res.msg_bits.tolist() == [[0, 1]]
    assert res.distance.tolist() == [1]


def test_idempotence_on_all_codewords():
    rng = np.random.default_rng(1)
    for _ in range(8):
        code = random_code(rng, m=2, k=2, n=2, ell=4, freeze_prob=0.2)
        cws = exhaustive_codebook(code)
        res = wava_decode_many(build_trellis(code), cws)
        assert np.all(res.distance == 0)
        assert np.array_equal(res.cw_bits, cws)


def test_output_is_always_a_valid_codeword():
    rng = np.random.default_rng(2)
    for _ in range(6):
        code = random_code(rng, m=3, k=2, n=2, ell=5, freeze_prob=0.2)
        r = rng.integers(0, 2, (64, code.N), dtype=np.uint8)
        res = wava_decode_many(build_trellis(code), r)
        assert np.array_equal(encode_many(code, res.msg_bits), res.cw_bits)
        d = (res.cw_bits ^ r).sum(axis=1)
        assert np.array_equal(d, res.distance)


def test_near_ml_on_random_toys():
    rng = np.random.default_rng(3)
    agree = 0
    total = 0
    for _ in range(20):
        code = random_code(rng, m=int(rng.integers(1, 4)), k=int(rng.integers(1, 3)),
                           n=int(rng.integers(2, 4)), ell=int(rng.integers(3, 6)))
        if code.K > 12:
            continue
        book = pack_rows(exhaustive_codebook(code))
        p = 0.05 + 0.05 * rng.random()
        cws = encode_many(code, rng.integers(0, 2, (100, code.K), dtype=np.uint8))
        r = cws ^ (rng.random((100, code.N)) < p).astype(np.uint8)
        res = wava_decode_many(build_trellis(code), r, V=4)
        oracle = nearest_distances(book, pack_rows(r))
        assert np.all(res.distance >= oracle)
        agree += int((res.distance == oracle).sum())
        total += 100
    assert agree / total >= 0.97


def test_determinism_and_batch_split_invariance():
    rng = np.random.default_rng(4)
    code = random_code(rng, m=3, k=2, n=2, ell=5)
    tr = build_trellis(code)
    r = rng.integers(0, 2, (32, code.N), dtype=np.uint8)
    whole = wava_decode_many(tr, r)
    parts = [wava_decode_many(tr, r[i:i + 7]) for i in range(0, 32, 7)]
    assert np.array_equal(whole.msg_bits, np.concatenate([p.msg_bits for p in parts]))
    assert np.array_equal(whole.distance, np.concatenate([p.distance for p in parts]))
    again = wava_decode_many(tr, r)
    assert np.array_equal(whole.cw_bits, again.cw_bits)


def test_monotone_iteration_budget():
    # a V=4 decode can only match or improve on the V=1 distance
    rng = np.random.default_rng(5)
    code = random_code(rng, m=3, k=1, n=2, ell=6)
    tr = build_trellis(code)
    r = rng.integers(0, 2, (128, code.N), dtype=np.uint8)
    d1 = wava_decode_many(tr, r, V=1).distance
    d4 = wava_decode_many(tr, r, V=4).distance
    assert np.all(d4 <= d1)


def test_quantize_examples(unit_toy):
    cws = encode_many(unit_toy, np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=np.uint8))
    tr = build_trellis(unit_toy)
    assert np.all(wava_decode_many(tr, cws).distance == 0)
    assert np.all(wava_decode_many(tr, 1 - cws).distance <= 1)


def test_quantize_mean_distortion_matches_oracle():
    rng = np.random.default_rng(6)
    code = random_code(rng, m=2, k=2, n=3, ell=4)
    book = pack_rows(exhaustive_codebook(code))
    x = rng.integers(0, 2, (2000, code.N), dtype=np.uint8)
    res = wava_decode_many(build_trellis(code), x)
    mc = res.distance.mean() / code.N
    oracle_vals = nearest_distances(book, pack_rows(x)) / code.N
    se = oracle_vals.std(ddof=1) / np.sqrt(len(oracle_vals))
    assert abs(mc - oracle_vals.mean()) <= 3 * se + 1e-9


def test_rejects_bad_config_and_length(unit_toy, monkeypatch):
    tr = build_trellis(unit_toy)
    # V is checked before any work: the kernel is never built
    monkeypatch.setattr(wava, "_Kernel", None)
    for V in (0, -1):
        with pytest.raises(ValueError, match=f"need V >= 1, got {V}"):
            wava_decode_many(tr, np.zeros((1, tr.N), dtype=np.uint8), V=V)
    with pytest.raises(ValueError, match="received length 3 != N=2"):
        wava_decode_many(tr, np.array([[1, 0, 1]]))


def test_decode_many_rejects_non_binary(repetition_toy):
    tr = build_trellis(repetition_toy)
    for bad in (2, 3, 256, -1, 0.5):
        r = np.zeros((2, tr.N), dtype=type(bad))
        r[1, -1] = bad
        with pytest.raises(ValueError, match="only 0 and 1"):
            wava_decode_many(tr, r)


def _certified_at(trellis, r, V, backward=True):
    """Per row, the first sweep v <= V after which the best tailbiting candidate's distance
    equals the ML certificate's bound, else V + 1; computed with the reference decoder's own
    sweep, which runs every row through all V sweeps.  The bound is min_s max(fwd[s], h0[s]):
    fwd[s] is the first sweep's end metric at s, and h0[s] the smallest end metric of a pass
    that starts at s alone.  Without backward, h0 is 0 and the bound is min fwd."""
    r_ints = wava_reference._bits_to_section_ints(r, trellis.n)
    B, S = r_ints.shape[0], trellis.S
    M, best, first = np.zeros((B, S), np.int64), np.full(B, wava._LARGE), np.full(B, V + 1)
    h0 = np.zeros((B, S), np.int64)
    for s in range(S) if backward else ():
        start = np.full((B, S), wava._LARGE, np.int64)
        start[:, s] = 0
        h0[:, s] = wava_reference._viterbi_pass(trellis, r_ints, start, False)[0].min(axis=1)
    for v in range(1, V + 1):
        Mend, origin, _ = wava_reference._viterbi_pass(trellis, r_ints, M, record_bp=False)
        blockdist = Mend - np.take_along_axis(M, origin, axis=1)
        tb = origin == np.arange(S)
        best = np.minimum(best, np.where(tb, blockdist, wava._LARGE).min(axis=1))
        if v == 1:
            bound = np.maximum(Mend, h0).min(axis=1)
        first[(first > V) & (best == bound)] = v
        M = Mend - Mend.min(axis=1, keepdims=True)
    return first


def _assert_same_as_reference(trellis, r, V):
    """Messages, codewords and distances equal the reference decoder's bit for bit; a row
    stops at its certificate or after V sweeps, and is converged when it is certified."""
    new = wava_decode_many(trellis, r, V=V)
    ref = reference_decode_many(trellis, r, V)
    certified = _certified_at(trellis, r, V)
    expected = {field: getattr(ref, field) for field in ("msg_bits", "cw_bits", "distance")}
    expected["iterations"] = np.minimum(certified, V)
    expected["converged"] = certified <= V
    for field, b in expected.items():
        a = getattr(new, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    return new, ref


def _oracle_words(rng, code, B):
    # uniform words (quantizer use, sends rows to the exact fallback) and
    # noisy codewords (error correction), half and half
    r = rng.integers(0, 2, (B, code.N), dtype=np.uint8)
    noisy = encode_many(code, rng.integers(0, 2, (B, code.K), dtype=np.uint8))
    noisy ^= (rng.random((B, code.N)) < 0.08).astype(np.uint8)
    r[B // 2:] = noisy[B // 2:]
    return r


@pytest.fixture
def fallback_rows(monkeypatch):
    """Record how many rows reach the exact fallback."""
    seen = []
    search = wava._two_phase_search

    def spy(kern, r_ints, idx, *rest):
        seen.append(len(idx))
        return search(kern, r_ints, idx, *rest)

    monkeypatch.setattr(wava, "_two_phase_search", spy)
    return seen


def _oracle_cases():
    """(trellis, words, V): 48 random frozen codes, then a batch larger than one
    column block of the default byte budget."""
    rng = np.random.default_rng(7)
    for i in range(48):
        k = 1 + i % 3
        m = int(rng.integers(1, 6))
        n = int(rng.integers(2, 4)) if k == 1 else k + int(rng.integers(0, 2))
        code = random_code(rng, m=m, k=k, n=n, ell=m + int(rng.integers(0, 5)), freeze_prob=0.4)
        B = (1, 3, 64)[i % 3]
        yield build_trellis(code), _oracle_words(rng, code, B), 1 + i % 4
    code = random_code(rng, m=5, k=3, n=3, ell=8, freeze_prob=0.4)
    tr = build_trellis(code)
    yield tr, _oracle_words(rng, code, wava._Kernel(tr).columns() + 57), 4


def test_matches_reference_decoder(fallback_rows):
    earlier = 0
    for tr, r, V in _oracle_cases():
        _assert_same_as_reference(tr, r, V)
        earlier += int((_certified_at(tr, r, V) < _certified_at(tr, r, V, False)).sum())
    assert sum(fallback_rows) > 0
    # the cases hold rows that the backward bound stops before min fwd would
    assert earlier > 0


def test_fallback_flag_marks_the_rows_of_the_exact_search(fallback_rows):
    flagged = 0
    for tr, r, V in _oracle_cases():
        res = wava_decode_many(tr, r, V=V)
        assert res.fallback.dtype == bool and res.fallback.shape == (len(r),)
        flagged += int(res.fallback.sum())
    assert flagged == sum(fallback_rows) > 0


@pytest.fixture
def kernel_calls(monkeypatch):
    """Every kernel sweep and traceback of the test, as `wava_spy.kernel_spies` records
    them."""
    calls, spies = kernel_spies()
    for name, spy in spies.items():
        monkeypatch.setattr(wava._Kernel, name, spy)
    return calls


def test_small_byte_budget_gives_identical_results(monkeypatch, kernel_calls):
    # a few KB forces many row groups, and blocks of 4 columns many blocks per sweep
    monkeypatch.setattr(wava, "_BUDGET_BYTES", 4096)
    monkeypatch.setattr(wava._Kernel, "columns", lambda kern: 4)
    spilled, committed, search = [], [], wava._two_phase_search

    def spy(kern, r_ints, idx, lb, bp, *best):
        spilled.append(kern.trellis.S * len(idx) > kern.columns())
        improved = search(kern, r_ints, idx, lb, bp, *best)
        committed.append(improved.sum() > bp.shape[2])
        return improved

    monkeypatch.setattr(wava, "_two_phase_search", spy)
    rng = np.random.default_rng(8)
    grouped = 0
    for i in range(12):
        k = 1 + i % 3
        code = random_code(rng, m=2 + i % 3, k=k, n=max(k, 2), ell=6, freeze_prob=0.4)
        tr = build_trellis(code)
        kern = wava._Kernel(tr)
        grouped += 80 > kern.group_rows()
        kernel_calls.clear()
        _assert_same_as_reference(tr, _oracle_words(rng, code, 80), 1 + i % 4)
        assert kernel_calls and max(c for _, c in kernel_calls) <= kern.columns()
    # some call spans several row groups, and some fallback call held more
    # (start state, row) columns than one sweep does and committed more winners
    # than one column block of backpointers holds
    assert grouped and any(spilled) and any(committed)


def test_follow_up_sweeps_run_once_per_call(monkeypatch, kernel_calls):
    # one row group spans three column blocks: the backward sweeps and the sweeps at
    # v >= 2 pool the open rows of every block
    monkeypatch.setattr(wava._Kernel, "columns", lambda kern: 9)
    monkeypatch.setattr(wava._Kernel, "group_rows", lambda kern: 27)
    rng = np.random.default_rng(12)
    code = random_code(rng, m=4, k=1, n=3, ell=32)
    tr = build_trellis(code)
    kern = wava._Kernel(tr)
    step, B = kern.columns(), kern.group_rows()
    assert B >= 3 * step
    r = encode_many(code, rng.integers(0, 2, (B, code.K), dtype=np.uint8))
    r ^= (rng.random(r.shape) < 0.06).astype(np.uint8)
    new, _ = _assert_same_as_reference(tr, r, 4)

    def count(kind):
        return [c for k, c in kernel_calls if k == kind]

    def blocks(rows):
        return -(-rows // step)

    forward, backward = count("forward"), count("backward")
    # per sweep v, the rows still active run in the fewest blocks of step columns
    assert len(forward) == sum(blocks(int((new.iterations >= v).sum())) for v in range(1, 5))
    assert len(backward) == blocks(sum(backward)) == 1
    # the rows of the follow-up sweeps come from several blocks (every row that reaches
    # v = 2 ran the backward sweep), so one sweep per block would run more of them
    assert len(np.unique(np.flatnonzero(new.iterations >= 2) // step)) >= 2
    assert max(forward[blocks(B):]) <= step and len(forward) - blocks(B) <= 3
    assert max(count("traceback")) <= step and not count("constrained")


def test_the_backward_bound_sweep_runs_in_even_blocks(monkeypatch, kernel_calls):
    # 10 open rows at a cap of 7 columns run as 5 + 5, not 7 + 3, like every other sweep
    monkeypatch.setattr(wava._Kernel, "columns", lambda kern: 7)
    rng = np.random.default_rng(12)
    code = random_code(rng, m=4, k=1, n=3, ell=32)
    tr = build_trellis(code)
    r = encode_many(code, rng.integers(0, 2, (60, code.K), dtype=np.uint8))
    r ^= (rng.random(r.shape) < 0.06).astype(np.uint8)
    alone = []
    for row in r:                   # a row is open when its own decode runs the backward sweep
        kernel_calls.clear()
        alone.append((wava_decode_many(tr, row[None]), "backward" in dict(kernel_calls)))
    open_rows = [i for i, (_, o) in enumerate(alone) if o]
    closed = [i for i, (_, o) in enumerate(alone) if not o]
    assert len(open_rows) >= 10 and len(closed) >= 6
    rows = sorted(open_rows[:10] + closed[:6])
    kernel_calls.clear()
    res = wava_decode_many(tr, r[rows])
    assert [c for k, c in kernel_calls if k == "backward"] == [5, 5]
    for j, i in enumerate(rows):    # every row decodes as it does alone
        assert np.array_equal(res.msg_bits[j], alone[i][0].msg_bits[0])
        assert res.iterations[j] == alone[i][0].iterations[0]


def test_certified_rows_are_ml():
    # rows that stop before the reference decoder does, or converge where it did not,
    # decode to a nearest codeword
    rng = np.random.default_rng(11)
    moved_rows = 0
    for i in range(24):
        k, m = 1 + i % 2, int(rng.integers(1, 4))
        code = random_code(rng, m=m, k=k, n=int(rng.integers(2, 4)),
                           ell=m + int(rng.integers(1, 3)), freeze_prob=0.3)
        tr = build_trellis(code)
        r = _oracle_words(rng, code, 64)
        new, ref = _assert_same_as_reference(tr, r, 1 + i % 4)
        moved = (new.iterations < ref.iterations) | (new.converged & ~ref.converged)
        book = pack_rows(exhaustive_codebook(code))
        assert np.array_equal(new.distance[moved], nearest_distances(book, pack_rows(r[moved])))
        moved_rows += int(moved.sum())
    assert moved_rows > 0


def test_tailbiting_tie_with_the_first_minimum_stops_at_sweep_one(repetition_toy):
    # codewords 000000, 111000, 000111, 111111: r is 1 from 111000 and 2 from 000000
    tr = build_trellis(repetition_toy)
    r = np.array([[0, 1, 1, 0, 0, 0]], dtype=np.uint8)
    Mend, origin, _ = wava_reference._viterbi_pass(
        tr, wava_reference._bits_to_section_ints(r, 3), np.zeros((1, 2), np.int64), False)
    # both end states reach the minimum 1; argmin picks state 0, whose survivor starts
    # at state 1, and the tailbiting survivor of state 1 ties it
    assert Mend.tolist() == [[1, 1]] and origin.tolist() == [[1, 1]]
    ref = reference_decode_many(tr, r, 4)
    assert ref.iterations[0] == 4 and not ref.converged[0]
    res = wava_decode_many(tr, r)
    assert res.iterations[0] == 1 and res.converged[0]
    assert res.cw_bits.tolist() == [[1, 1, 1, 0, 0, 0]] and res.distance[0] == 1


def test_sweep_reuses_its_section_buffers():
    # the pair-form key temporaries ([A/2, S, C] keys, [A/2, S/2, C] pair minima,
    # [A/2, S, C] picks) are allocated once per decode call, not once per section:
    # a second sweep of the same columns on the same kernel, forward or backward,
    # allocates less than half of the smallest of them (numpy's own ufunc buffers
    # are bounded, so the columns are many enough to tell them apart)
    rng = np.random.default_rng(9)
    code = random_code(rng, m=4, k=3, n=3, ell=12)
    kern = wava._Kernel(build_trellis(code))
    r_ints = wava._bits_to_section_ints(_oracle_words(rng, code, 2000), code.spec.n)
    cols = np.ascontiguousarray(r_ints.T)
    start = np.zeros((kern.trellis.S, 2000), dtype=kern.tab.dtype)
    for reverse in (False, True):
        kern.sweep(cols, start.copy(), None, reverse)
        key_bytes = min(b.nbytes for b in kern.buf[1:])
        assert key_bytes >= 2000 * kern.trellis.S // 2 * kern.tab.dtype().itemsize
        P = start.copy()
        tracemalloc.start()
        try:
            kern.sweep(cols, P, None, reverse)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < key_bytes // 2, reverse


def _tie_words(rng, code, B):
    # uniform words, plus the all-zero and all-one words and words that repeat
    # one block in every section, where many start states reach the same distance
    r = rng.integers(0, 2, (B, code.N), dtype=np.uint8)
    r[0], r[1] = 0, 1
    n = code.spec.n
    for b in range(2, B // 2):
        r[b] = np.tile(rng.integers(0, 2, n, dtype=np.uint8), code.N // n)
    return r


def test_fallback_matches_exhaustive(monkeypatch):
    rng = np.random.default_rng(10)
    width, swept, columns = wava._Kernel.columns, 0, 0
    for i in range(48):
        # every fourth case splits every sweep into blocks
        monkeypatch.setattr(wava._Kernel, "columns", width if i % 4 else lambda kern: 7)
        m, k = 1 + (i // 3) % 6, 1 + i % 3
        code = random_code(rng, m=m, k=k, n=max(k, int(rng.integers(1, 4))),
                           ell=m + int(rng.integers(0, 4)), freeze_prob=0.4)
        tr, B, S = build_trellis(code), 40, 1 << m
        r_ints = wava._bits_to_section_ints(_tie_words(rng, code, B), code.spec.n)
        idx = np.flatnonzero(rng.random(B) < 0.8)
        kern = wava._Kernel(tr)
        if i % 4 == 0:
            assert kern.columns() < len(idx)
        # the exact constrained distance of every column, and the decoder's lower bound
        dist = kern.constrained(r_ints, np.tile(idx, S), np.repeat(np.arange(S), len(idx)))
        dist = dist.reshape(S, len(idx))
        r_cols = np.ascontiguousarray(r_ints[idx].T)
        fwd = kern.sweep(r_cols, np.zeros((S, len(idx)), kern.tab.dtype), None) >> kern.tab.sh
        lb = kern.bound(r_cols, fwd.astype(np.int64))
        assert np.all(lb <= dist)
        # rows arrive without a candidate or with one a little off the winner
        best_dist = np.full(B, wava._LARGE, dtype=np.int64)
        near = np.maximum(dist.min(axis=0) + rng.integers(-1, 2, len(idx)), 0)
        best_dist[idx] = np.where(rng.random(len(idx)) < 0.5, near, wava._LARGE)
        counting, bp = CountingKernel(tr), np.empty((tr.ell, S // 2, len(idx)), np.uint8)
        out = []
        for search in (lambda *best: wava._two_phase_search(counting, r_ints, idx, lb, bp, *best),
                       lambda *best: exhaustive_constrained(kern, r_ints, idx, *best)):
            best = (np.zeros((B, tr.ell), dtype=np.int64), np.zeros((B, tr.ell), dtype=np.int64),
                    best_dist.copy())
            out.append((search(*best), *best))
        for field, a, b in zip(("improved", "best_u", "best_out", "best_dist"), *out):
            assert np.array_equal(a, b), (i, field)
        swept += counting.swept
        columns += S * len(idx)
    # the bounds pruned columns: the test does not pass by sweeping them all
    assert swept < columns


def _wide(kern):
    """Gather-oracle tables on the kernel's packing with int64 keys, which never need a
    renormalisation."""
    tab = kern.tab
    return GatherTables(kern.trellis, SimpleNamespace(A=tab.A, sh=tab.sh, ob=tab.ob,
                                                      jmask=tab.jmask, dtype=np.int64))


def _absolute(kern, keys):
    """The keys a sweep returned as int64, with its per-column offset added to their metric."""
    return keys.astype(np.int64) + (kern.offset << kern.tab.sh)


def _assert_pair_bp(bp, bp_ref, jmask):
    """bp [ell, S/2, C] holds the edge rank j of each pair that bp_ref [ell, S, C] holds
    for both of its states."""
    assert np.array_equal(bp_ref[:, 0::2] & jmask, bp_ref[:, 1::2] & jmask)
    assert np.array_equal(bp & jmask, bp_ref[:, 0::2] & jmask)


def _traceback_cases():
    """(trellis, kernel): a frozen k=3 code whose sections differ in in-edges per state,
    an unfrozen k=1 code, and an m=8 code (S/2 = 128 state pairs)."""
    rng = np.random.default_rng(15)
    for m, k, n, ell, freeze in ((6, 3, 3, 12, 0.5), (5, 1, 2, 9, 0.0), (8, 1, 2, 10, 0.0)):
        tr = build_trellis(random_code(rng, m=m, k=k, n=n, ell=ell, freeze_prob=freeze))
        yield tr, wava._Kernel(tr)


def test_narrow_traceback_matches_the_numpy_walk(monkeypatch):
    # one forward sweep's backpointers over 48 columns, traced back from the same
    # (state, column) sets by the Python-integer walk and by the numpy walk
    degrees, rng = [], np.random.default_rng(16)
    for tr, kern in _traceback_cases():
        degrees.append({view.out_degree for view in tr.views})
        S, C = tr.S, 48
        bp = np.empty((tr.ell, S // 2, C), dtype=np.uint8)
        P = np.arange(S, dtype=kern.tab.dtype)[:, None].repeat(C, axis=1)     # 0 | origin
        kern.sweep(kern.r_cols(rng.integers(0, 1 << tr.n, (C, tr.ell)), np.arange(C)), P, bp)
        for cols in (np.array([C - 1]), np.arange(16), np.arange(17) + 30,
                     np.sort(rng.choice(C, 9, replace=False))):   # as _forward passes upd
            s = rng.integers(0, S, len(cols))
            walks = []
            for narrow in (0, 1 << 20):
                monkeypatch.setattr(wava, "_NARROW_TRACEBACK", narrow)
                walks.append(kern.traceback(bp, s, cols))
            for a, b in zip(*walks, strict=True):
                assert np.array_equal(a, b)
    assert len(degrees[0]) > 1 and degrees[1] == {2} and degrees[2] == {2}


def _gather_cases():
    """(rng, trellis, kernel, int64 gather tables): random frozen codes, m 1-6 and k 1-3."""
    rng = np.random.default_rng(13)
    for i in range(36):
        m, k = 1 + i % 6, 1 + (i // 6) % 3
        n = int(rng.integers(1, 4)) if k == 1 else k + int(rng.integers(0, 2))
        code = random_code(rng, m=m, k=k, n=n, ell=m + int(rng.integers(0, 6)), freeze_prob=0.4)
        tr = build_trellis(code)
        kern = wava._Kernel(tr)
        yield rng, tr, kern, _wide(kern)


def _check_sweeps(rng, tr, kern, gt, C):
    """Forward from keys of any metric in [0, m*n + 1] and origin, with and without
    backpointers, and backward from metric-only keys: the absolute end keys equal the
    int64 oracle's bit for bit, and so do the edge ranks j of each state pair in the
    backpointers' low bits (the traceback reads no other bits)."""
    tab, S = kern.tab, tr.S
    r_cols = rng.integers(0, 1 << tr.n, (tr.ell, C))
    metric = rng.integers(0, tab.ob * tr.n + 2, (S, C)) << tab.sh
    for P0, bp_dtype in ((metric | np.arange(S)[:, None], np.uint8),
                         (np.zeros((S, C), np.int64), None)):
        bp = np.zeros((tr.ell, S // 2, C), bp_dtype) if bp_dtype else None
        bp_ref = np.zeros((tr.ell, S, C), np.int64) if bp_dtype else None
        new = kern.sweep(r_cols, P0.astype(tab.dtype), bp)
        assert new.dtype == tab.dtype
        assert np.array_equal(_absolute(kern, new), gather_sweep(gt, r_cols, P0.copy(), bp_ref))
        if bp_dtype:
            _assert_pair_bp(bp, bp_ref, tab.jmask)
    new = kern.sweep(r_cols, metric.astype(tab.dtype), None, reverse=True)
    ref = gather_sweep(gt, r_cols, metric.copy(), None, reverse=True)
    assert np.array_equal(_absolute(kern, new), ref)


def test_pair_form_sweep_matches_the_gather_reference():
    for rng, tr, kern, gt in _gather_cases():
        for C in (1, 2, int(rng.integers(3, 70))):
            _check_sweeps(rng, tr, kern, gt, C)


def test_every_decoder_sweep_matches_the_gather_reference(monkeypatch, kernel_calls):
    # every sweep a decode makes (forward with backpointers, backward bound, constrained
    # fallback sweeps), under the default budget and one of a few KB
    sweep = wava._Kernel.sweep

    def checked(kern, r_cols, P, bp, reverse=False):
        P0 = P.astype(np.int64)
        bp_ref = None if bp is None else np.zeros((bp.shape[0], P.shape[0], bp.shape[2]), np.int64)
        out = sweep(kern, r_cols, P, bp, reverse)
        ref = gather_sweep(_wide(kern), r_cols, P0, bp_ref, reverse)
        assert np.array_equal(_absolute(kern, out), ref)
        if bp is not None:
            _assert_pair_bp(bp, bp_ref, kern.tab.jmask)
        return out

    monkeypatch.setattr(wava._Kernel, "sweep", checked)
    rng = np.random.default_rng(14)
    for i in range(12):
        monkeypatch.setattr(wava, "_BUDGET_BYTES", 4096 if i % 2 else 8 << 20)
        k = 1 + i % 3
        code = random_code(rng, m=1 + i % 6, k=k, n=max(k, 2), ell=7, freeze_prob=0.4)
        _assert_same_as_reference(build_trellis(code), _oracle_words(rng, code, 48), 4)
    assert {kind for kind, _ in kernel_calls} == {"forward", "backward", "constrained",
                                                   "traceback"}


def test_pair_form_tables_follow_the_section_edge_order():
    # forward: the rank-j in-edge of state x (j = 2a + h) comes from the state of top
    # bit h in pair pick[a, x] under input 2c_a + ((x ^ bu[2c_a]) & 1), as SectionView
    # lists it (input, then source); backward: the two out-edges of s in class a reach
    # the pair {2i', 2i' + 1}, i' = pick[a, s], with output out[a, s]; traceback: the
    # rank-j in-edges of targets 2X and 2X + 1 share source and output, their inputs
    # differ in the register bit, and the pair's table row is the even target's
    for _, tr, kern, _ in _gather_cases():
        tab, S, n = kern.tab, tr.S, tr.n
        half, x = S >> 1, np.arange(S)
        for t, view in enumerate(tr.views[o] for o in tr.order):
            (lut_rows, pick), (out, succ) = tab.fwd[tab.order[t]], tab.bwd[tab.order[t]]
            assert len(lut_rows) == len(out) == view.out_degree // 2
            assert np.array_equal(view.in_src[0::2], view.in_src[1::2])
            assert np.array_equal(view.in_out[0::2], view.in_out[1::2])
            assert np.array_equal(view.in_u[0::2] ^ 1, view.in_u[1::2])
            assert np.array_equal(tab.edges[t], ((view.in_src << (tr.k + n))
                                                 | (view.in_u << n) | view.in_out)[0::2])
            for a, c2 in enumerate(view.inputs[0::2]):
                bu = tr.next_state[0, c2]
                for h in (0, 1):
                    j = 2 * a + h
                    src = h * half + pick[a] - a * half
                    assert np.array_equal(view.in_src[:, j], src)
                    assert np.array_equal(view.in_u[:, j], c2 + ((x ^ bu) & 1))
                    assert np.array_equal(lut_rows[a, src] >> n, np.full(S, j))
                    assert np.array_equal(lut_rows[a, src] & ((1 << n) - 1), view.in_out[:, j])
                targets = np.sort(tr.next_state[:, [c2, c2 + 1]], axis=1)
                assert np.array_equal(targets, 2 * succ[a][:, None] + [0, 1])
                assert np.array_equal(out[a], tr.out_int[:, c2])


def _renorm_cases(rng, count, quantizer=False):
    """(trellis, kernel): random frozen codes, m 2-6 and k 1-3 (quantizer: unfrozen, m 4-6
    and k = n = 3, rate one, where uniform words reach the exact fallback), whose ell is at
    least three renormalisation intervals, so that every sweep renormalises three times."""
    for i in range(count):
        if quantizer:
            m, k, n = 4 + i % 3, 3, 3
        else:
            m, k, n = 2 + i % 5, 1 + i % 3, int(rng.integers(6, 9))
        every = wava._Kernel(build_trellis(random_code(rng, m, k, n, ell=m))).tab.every
        code = random_code(rng, m=m, k=k, n=n, ell=3 * every + int(rng.integers(0, m + 1)),
                           freeze_prob=0 if quantizer else 0.4)
        tr = build_trellis(code)
        kern = wava._Kernel(tr)
        assert kern.tab.every == every and tr.ell >= 3 * every
        yield tr, kern


def test_renormalising_sweeps_match_the_int64_reference():
    # forward with backpointers, backward and constrained sweeps that subtract each
    # column's least metric every `every` sections leave the int64 oracle's keys
    rng = np.random.default_rng(15)
    for tr, kern in _renorm_cases(rng, 15):
        gt, tab, S = _wide(kern), kern.tab, tr.S
        for C in (1, int(rng.integers(3, 40))):
            _check_sweeps(rng, tr, kern, gt, C)
            assert kern.offset.min() > 0        # the last sweep did renormalise
            # constrained: the kernel starts the other states at m*n + 1, the oracle at N + 1
            r_ints = rng.integers(0, 1 << tr.n, (C, tr.ell)).astype(np.uint8)
            starts, cols = rng.integers(0, S, C), np.arange(C)
            P0 = np.full((S, C), (tr.N + 1) << tab.sh, np.int64)
            P0[starts, cols] = 0
            ref = gather_sweep(gt, np.ascontiguousarray(r_ints.T), P0, None)
            assert np.array_equal(kern.constrained(r_ints, cols, starts),
                                  ref[starts, cols] >> tab.sh)


def _oracle_steps(gt, r_cols, P, reverse=False):
    """The int64 oracle's keys P after each section of a sweep, one section at a time."""
    sections = gt.reverse if reverse else gt.sections
    step = copy.copy(gt)
    for t, blocks in enumerate(r_cols[::-1] if reverse else r_cols):
        setattr(step, "reverse" if reverse else "sections", sections[t:t + 1])
        yield gather_sweep(step, blocks[None], P, None, reverse)


def test_survivor_metrics_span_at_most_m_n_from_section_m():
    # every state reaches every state in m sections (the register input is never frozen),
    # so from section m on a column's survivor metrics lie within m*n of each other,
    # whatever the start metrics: the argument behind the narrow keys
    rng = np.random.default_rng(16)
    cases = [(tr, kern, gt) for _, tr, kern, gt in _gather_cases()]
    cases += [(tr, kern, _wide(kern)) for tr, kern in _renorm_cases(rng, 5)]
    for tr, kern, gt in cases:
        tab, S, C, m = kern.tab, tr.S, 8, kern.tab.ob
        r_cols = rng.integers(0, 1 << tr.n, (tr.ell, C))
        starts = rng.integers(0, 4 * tr.N + 2, (S, C)) << tab.sh
        for P, reverse in ((starts | np.arange(S)[:, None], False), (starts.copy(), True)):
            for t, keys in enumerate(_oracle_steps(gt, r_cols, P, reverse), 1):
                metric = keys >> tab.sh
                if t >= m:
                    assert (metric.max(axis=0) - metric.min(axis=0)).max() <= m * tr.n


@pytest.fixture
def start_metrics(monkeypatch):
    """Check that every sweep starts with metrics in [0, m*n + 1], and record its kind (a
    decode sweeps forward with backpointers, and without them only the exact fallback's
    constrained distances)."""
    kinds, sweep = [], wava._Kernel.sweep

    def spy(kern, r_cols, P, bp, reverse=False):
        metric = P.astype(np.int64) >> kern.tab.sh
        assert 0 <= metric.min() and metric.max() <= kern.tab.ob * kern.trellis.n + 1
        kinds.append("backward" if reverse else "forward" if bp is not None else "constrained")
        return sweep(kern, r_cols, P, bp, reverse)

    monkeypatch.setattr(wava._Kernel, "sweep", spy)
    return kinds


def test_renormalising_decodes_match_the_reference(monkeypatch, start_metrics):
    rng = np.random.default_rng(17)
    budget = wava._BUDGET_BYTES
    cases = [*_renorm_cases(rng, 10), *_renorm_cases(rng, 4, quantizer=True)]
    for i, (tr, kern) in enumerate(cases):
        # every other code in blocks of a few columns
        monkeypatch.setattr(wava, "_BUDGET_BYTES", 4 * tr.ell * tr.S if i % 2 else budget)
        if i % 2:
            assert wava._Kernel(tr).columns() < 8
        _assert_same_as_reference(tr, _oracle_words(rng, tr.code, 16), 1 + i % 4)
    assert {"forward", "backward", "constrained"} <= set(start_metrics)


def _perfbench_codes():
    """The m=8 code and the criterion-9 pair's two codes of perfbench/inputs."""
    inputs = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"
    pair = pair_from_dict(json.loads((inputs / "pair_m6.json").read_text()))
    return {"code_m8": code_from_dict(json.loads((inputs / "code_m8.json").read_text())),
            "pair_m6_quantizer": pair.vq_code, "pair_m6_fec": pair.fec_code}


def test_key_widths():
    # uint16 keys where the metric field holds m*n + 1 + n*every for some every >= m
    # (the perfbench codes: code_m8 renormalises 3 times a sweep, pair_m6 never in 32
    # sections), int32 for the paper-geometry m=8, k=3 quantizer; at the default budget
    # a column block holds what a forward sweep of this many words needs
    codes = _perfbench_codes()
    codes["m8_k3"] = random_code(np.random.default_rng(18), m=8, k=3, n=3, ell=128)
    expect = {"code_m8": (np.uint16, 9, 34, 348), "pair_m6_quantizer": (np.uint16, 9, 36, 2016),
              "pair_m6_fec": (np.uint16, 7, 164, 2818), "m8_k3": (np.int32, 11, None, None)}
    for name, (dtype, sh, every, columns) in expect.items():
        kern = wava._Kernel(build_trellis(codes[name]))
        assert (kern.tab.dtype, kern.tab.sh) == (dtype, sh), name
        assert every is None or kern.tab.every == every, name
        assert kern.tab.every >= kern.trellis.ell or dtype == np.uint16, name
        assert columns is None or kern.columns() == columns, name


@pytest.mark.parametrize("name", ["code_m8", "pair_m6_quantizer"])
def test_a_full_width_block_fits_the_budget(name):
    # columns() counts what a forward block holds: a decode of columns() uniform words, one
    # block that runs every sweep, the backward bound and the exact fallback, peaks within
    # the budget plus the call's per-word arrays (the [S, words] state that group_rows()
    # counts, and each word's bits, section ints, messages and codewords)
    code = _perfbench_codes()[name]
    tr = build_trellis(code)
    C = wava._Kernel(tr).columns()
    r = np.random.default_rng(19).integers(0, 2, (C, code.N), dtype=np.uint8)
    wava_decode_many(tr, r[:1])                  # the cached tables are not per call
    tracemalloc.start()
    try:
        res = wava_decode_many(tr, r)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.iterations.max() == 4 and res.fallback.any()
    assert peak <= wava._BUDGET_BYTES + C * (40 * tr.S + 4 * tr.N)


def test_a_512_word_m8_call_sweeps_two_even_blocks(kernel_calls):
    # 512 words at 348 columns a block run as 256 + 256, not 348 + 164; each later sweep,
    # and the backward bound, pools the rows that both blocks leave open
    code = _perfbench_codes()["code_m8"]
    rng = np.random.default_rng(20)
    r = encode_many(code, rng.integers(0, 2, (512, code.K), dtype=np.uint8))
    r ^= (rng.random(r.shape) < 0.0365).astype(np.uint8)
    res = wava_decode_many(build_trellis(code), r)
    forward = [c for k, c in kernel_calls if k == "forward"]
    backward = [c for k, c in kernel_calls if k == "backward"]
    assert forward[:2] == [256, 256] and len(forward) > 2 and len(backward) == 1
    later = [int((res.iterations >= v).sum()) for v in range(2, wava.SWEEPS + 1)]
    assert forward[2:] == [c for c in later if c]
    assert len([k for k, _ in kernel_calls if k == "traceback"]) <= len(forward)


@pytest.mark.parametrize("m, A, n, message", [
    (18, 32, 8, "WAVA keys need over 32 bits"),      # m=18, k=5, n=8: the first code past int32
    (1, 512, 9, "overflow one-byte WAVA backpointers (k <= 8)"),   # k = 9
])
def test_codes_past_the_key_widths_are_rejected(m, A, n, message):
    # the checks read the state count, n and the in-degrees only
    trellis = SimpleNamespace(S=1 << m, n=n, views=[SimpleNamespace(out_degree=A)])
    with pytest.raises(ValueError, match=re.escape(message)):
        wava._Tables(trellis)
