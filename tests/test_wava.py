import tracemalloc

import numpy as np
import pytest

from conftest import (
    bits,
    exhaustive_codebook,
    nearest_distances,
    pack_rows,
    random_code,
)
from nestedtbcc import wava
from nestedtbcc.encoder import encode_many, encode_tailbiting
from nestedtbcc.gf2 import BitVector
from nestedtbcc.trellis import build_trellis
from nestedtbcc.wava import WavaConfig, quantize, wava_decode, wava_decode_many
from wava_reference import reference_decode_many


def test_codeword_is_fixed_point(repetition_toy):
    for msg_bits in ([0, 0], [1, 0], [0, 1], [1, 1]):
        msg = BitVector.from_bits(msg_bits)
        cw = encode_tailbiting(repetition_toy, msg)
        res = wava_decode(repetition_toy, cw)
        assert res.codeword == cw
        assert res.message == msg
        assert res.distance == 0
        assert res.converged and res.iterations_used == 1


def test_single_error_example(repetition_toy):
    res = wava_decode(repetition_toy, bits(1, 1, 0, 0, 0, 0))
    assert res.codeword.to_tuple() == (1, 1, 1, 0, 0, 0)
    assert res.message.to_tuple() == (0, 1)
    assert res.distance == 1


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
        res = wava_decode_many(build_trellis(code), r, WavaConfig(4))
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
    d1 = wava_decode_many(tr, r, WavaConfig(1)).distance
    d4 = wava_decode_many(tr, r, WavaConfig(4)).distance
    assert np.all(d4 <= d1)


def test_quantize_examples(unit_toy):
    for msg_bits in ([0, 0], [1, 0], [0, 1], [1, 1]):
        cw = encode_tailbiting(unit_toy, BitVector.from_bits(msg_bits))
        assert quantize(unit_toy, cw).distance == 0
        comp = BitVector.from_bits([1 - b for b in cw])
        assert quantize(unit_toy, comp).distance <= 1


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


def test_rejects_bad_config_and_length(unit_toy):
    with pytest.raises(ValueError):
        WavaConfig(0)
    with pytest.raises(ValueError, match="length"):
        wava_decode(unit_toy, bits(1, 0, 1))


def _assert_same_as_reference(trellis, r, V):
    new = wava_decode_many(trellis, r, WavaConfig(V))
    ref = reference_decode_many(trellis, r, V)
    for field in ("msg_bits", "cw_bits", "distance", "iterations", "converged"):
        a, b = getattr(new, field), getattr(ref, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field


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
    exhaustive = wava._exhaustive_constrained

    def spy(kern, r_ints, idx, *rest):
        seen.append(len(idx))
        return exhaustive(kern, r_ints, idx, *rest)

    monkeypatch.setattr(wava, "_exhaustive_constrained", spy)
    return seen


def test_matches_reference_decoder(fallback_rows):
    rng = np.random.default_rng(7)
    for i in range(48):
        k = 1 + i % 3
        m = int(rng.integers(1, 6))
        n = int(rng.integers(2, 4)) if k == 1 else k + int(rng.integers(0, 2))
        code = random_code(rng, m=m, k=k, n=n, ell=m + int(rng.integers(0, 5)), freeze_prob=0.4)
        B = (1, 3, 64)[i % 3]
        _assert_same_as_reference(build_trellis(code), _oracle_words(rng, code, B), 1 + i % 4)
    assert sum(fallback_rows) > 0
    # a batch larger than one sub-batch of the default byte budget
    code = random_code(rng, m=5, k=3, n=3, ell=8, freeze_prob=0.4)
    tr = build_trellis(code)
    B = wava._Kernel(tr).columns(bp=True) + 57
    _assert_same_as_reference(tr, _oracle_words(rng, code, B), 4)


def test_small_byte_budget_gives_identical_results(monkeypatch, fallback_rows):
    # a few KB forces many sub-batches and many start-state blocks
    monkeypatch.setattr(wava, "_BUDGET_BYTES", 4096)
    rng = np.random.default_rng(8)
    for i in range(12):
        k = 1 + i % 3
        code = random_code(rng, m=2 + i % 3, k=k, n=max(k, 2), ell=6, freeze_prob=0.4)
        tr = build_trellis(code)
        kern = wava._Kernel(tr)
        assert kern.columns(bp=True) < 16 and kern.columns(bp=False) < 16
        _assert_same_as_reference(tr, _oracle_words(rng, code, 80), 1 + i % 4)
    # the fallback sweeps S >= 4 start states per row: 4 rows fill 16 columns
    assert max(fallback_rows) >= 4


def test_sweep_reuses_its_section_buffers():
    # the [A, S, C] key temporaries are allocated once per decode call, not
    # once per section: a second sweep of the same columns on the same kernel
    # allocates less than half of one of them
    rng = np.random.default_rng(9)
    code = random_code(rng, m=4, k=3, n=3, ell=12)
    kern = wava._Kernel(build_trellis(code))
    r_ints = wava._bits_to_section_ints(_oracle_words(rng, code, 200), code.spec.n)
    cols = np.ascontiguousarray(r_ints.T)
    start = np.zeros((kern.trellis.S, 200), dtype=kern.dtype)
    kern.sweep(cols, start.copy(), None)
    key_bytes = kern.buf[1].nbytes
    tracemalloc.start()
    try:
        kern.sweep(cols, start.copy(), None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < key_bytes // 2
