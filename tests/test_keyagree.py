import numpy as np
import pytest

from conftest import (
    all_messages,
    exhaustive_codebook,
    nearest_distances,
    pack_rows,
    toy_pair_a,
    toy_pair_b,
    toy_pair_c,
)
from nestedtbcc.encoder import EncoderSpecError, TailbitingCode, encode_many, encode_tailbiting
from nestedtbcc.gf2 import BitVector
from nestedtbcc.keyagree import (
    NestedCodePair,
    enroll,
    enroll_cs,
    enroll_many,
    helper_offset_codeword,
    pair_from_dict,
    pair_to_dict,
    read_bit_lines,
    reconstruct,
    reconstruct_cs,
    reconstruct_many,
    write_bit_lines,
)
from nestedtbcc.trellis import weight_enumerator
from nestedtbcc.wava import WavaConfig


def vec(bits_arr) -> BitVector:
    return BitVector.from_bits([int(b) for b in bits_arr])


def test_pair_dimensions_and_rejections():
    pair = toy_pair_a()
    assert (pair.N, pair.K_fec, pair.K_vq) == (12, 4, 8)
    assert pair.fec_code.K == 4
    from nestedtbcc.encoder import EncoderSpec

    k1 = EncoderSpec.rate_one_over_n(pair.vq_code.spec.C)
    with pytest.raises(EncoderSpecError):
        NestedCodePair(TailbitingCode.unfrozen(k1, 4))


def test_split_merge_round_trip():
    pair = toy_pair_c()
    rng = np.random.default_rng(0)
    for _ in range(50):
        msg = BitVector.from_bits(rng.integers(0, 2, pair.K_vq).tolist())
        s, w = pair.split_message(msg)
        assert s.n == pair.K_fec and w.n == pair.K_vq - pair.K_fec
        assert pair.merge_message(s, w) == msg


def test_encode_splits_linearly():
    # encode(s, w) = encode(s, 0) xor encode(0, w) for every message
    pair = toy_pair_a()
    code = pair.vq_code
    zero_s = BitVector.zeros(pair.K_fec)
    zero_w = BitVector.zeros(pair.K_vq - pair.K_fec)
    for mi in range(1 << pair.K_vq):
        msg = BitVector(mi, pair.K_vq)
        s, w = pair.split_message(msg)
        lhs = encode_tailbiting(code, msg)
        rhs = encode_tailbiting(code, pair.merge_message(s, zero_w)) ^ encode_tailbiting(
            code, pair.merge_message(zero_s, w)
        )
        assert lhs == rhs


def test_key_codeword_equals_fec_encoding():
    pair = toy_pair_c()
    zero_w = BitVector.zeros(pair.K_vq - pair.K_fec)
    for si in range(1 << pair.K_fec):
        s = BitVector(si, pair.K_fec)
        via_vq = encode_tailbiting(pair.vq_code, pair.merge_message(s, zero_w))
        via_fec = encode_tailbiting(pair.fec_code, s)
        assert via_vq == via_fec


@pytest.mark.parametrize("make_pair", [toy_pair_a, toy_pair_b, toy_pair_c])
def test_noiseless_round_trip_exhaustive(make_pair):
    pair = make_pair()
    msgs = all_messages(pair.K_vq)
    x = encode_many(pair.vq_code, msgs)
    s_bits, w_bits, dist = enroll_many(pair, x)
    assert np.all(dist == 0)
    s_hat = reconstruct_many(pair, x, w_bits)
    assert np.array_equal(s_hat, s_bits)


def test_enroll_returns_the_encoded_message():
    pair = toy_pair_a()
    rng = np.random.default_rng(1)
    for _ in range(20):
        msg = BitVector.from_bits(rng.integers(0, 2, pair.K_vq).tolist())
        s, w = pair.split_message(msg)
        rec = enroll(pair, encode_tailbiting(pair.vq_code, msg))
        assert rec.secret_key == s
        assert rec.helper_data == w
        assert rec.distortion == 0.0


def test_single_flip_always_corrected():
    # fec d_min is 4: any single flip leaves the key recoverable
    pair = toy_pair_a()
    assert (weight_enumerator(pair.fec_code).d_min() or 0) >= 3
    msgs = all_messages(pair.K_vq)
    x = encode_many(pair.vq_code, msgs)
    s_bits, w_bits, _ = enroll_many(pair, x)
    for pos in range(pair.N):
        y = x.copy()
        y[:, pos] ^= 1
        s_hat = reconstruct_many(pair, y, w_bits)
        assert np.array_equal(s_hat, s_bits), f"flip at {pos} broke a key"


def test_reconstruct_passes_the_iteration_budget():
    # on words where V=1 and V=4 decode differently, the single-word path
    # must follow the V it was given
    pair = toy_pair_a()
    rng = np.random.default_rng(0)
    y = rng.integers(0, 2, (256, pair.N), dtype=np.uint8)
    w = rng.integers(0, 2, (256, pair.K_vq - pair.K_fec), dtype=np.uint8)
    s1 = reconstruct_many(pair, y, w, WavaConfig(1))
    s4 = reconstruct_many(pair, y, w, WavaConfig(4))
    rows = np.flatnonzero((s1 != s4).any(axis=1))
    assert len(rows) > 0
    for b in rows[:5]:
        assert reconstruct(pair, vec(y[b]), vec(w[b]), WavaConfig(1)) == vec(s1[b])
        assert reconstruct(pair, vec(y[b]), vec(w[b]), WavaConfig(4)) == vec(s4[b])


def test_enrollment_matches_exhaustive_quantizer():
    pair = toy_pair_a()
    book = pack_rows(exhaustive_codebook(pair.vq_code))
    rng = np.random.default_rng(2)
    x = rng.integers(0, 2, (1000, pair.N), dtype=np.uint8)
    _, _, dist = enroll_many(pair, x)
    oracle = nearest_distances(book, pack_rows(x))
    agree = (dist == oracle).mean()
    assert agree >= 0.99
    # covering radius of this code is 2; enrollment never exceeds it
    assert dist.max() <= 2


def test_offset_decoding_equals_coset_search_noiseless():
    pair = toy_pair_c()
    rng = np.random.default_rng(3)
    msgs = all_messages(pair.K_vq)
    x = encode_many(pair.vq_code, msgs)
    s_bits, w_bits, _ = enroll_many(pair, x)
    s_hat = reconstruct_many(pair, x, w_bits)
    assert np.array_equal(s_hat, s_bits)


def test_offset_decoding_tracks_coset_ml_under_noise():
    # reconstruct() must behave like brute-force ML over the helper coset
    pair = toy_pair_a()
    rng = np.random.default_rng(5)
    trials = 1000
    x = rng.integers(0, 2, (trials, pair.N), dtype=np.uint8)
    s_bits, w_bits, _ = enroll_many(pair, x)
    y = x ^ (rng.random((trials, pair.N)) < 0.05).astype(np.uint8)
    s_hat = reconstruct_many(pair, y, w_bits)

    from nestedtbcc.keyagree import _role_indices

    ki, hi = _role_indices(pair.vq_code)
    key_msgs = all_messages(pair.K_fec)
    packed_y = pack_rows(y)
    agree = 0
    for b in range(trials):
        msgs = np.zeros((len(key_msgs), pair.K_vq), dtype=np.uint8)
        msgs[:, ki] = key_msgs
        msgs[:, hi] = w_bits[b]
        coset = pack_rows(encode_many(pair.vq_code, msgs))
        d = np.bitwise_count(coset ^ packed_y[b][None, :]).sum(axis=1)
        idx = int(sum(int(v) << j for j, v in enumerate(s_hat[b])))
        agree += int(d[idx] == d.min())
    assert agree / trials >= 0.99


def test_helper_offset_codeword():
    pair = toy_pair_a()
    w = BitVector.from_bits([1, 0, 1, 1])
    c_w = helper_offset_codeword(pair, w)
    assert c_w == encode_tailbiting(
        pair.vq_code, pair.merge_message(BitVector.zeros(4), w)
    )


def test_cs_model_round_trip_and_pad_semantics():
    pair = toy_pair_a()
    rng = np.random.default_rng(4)
    for _ in range(20):
        msg = BitVector.from_bits(rng.integers(0, 2, pair.K_vq).tolist())
        x = encode_tailbiting(pair.vq_code, msg)
        s_prime = BitVector.from_bits(rng.integers(0, 2, pair.K_fec).tolist())
        rec = enroll_cs(pair, x, s_prime)
        assert rec.pad.n == pair.K_fec
        assert rec.w_prime.n == pair.K_vq
        assert reconstruct_cs(pair, x, rec) == s_prime

        # zero chosen key: the stored record reduces to the generated-secret
        # outputs (W, S), and the recovered chosen key is the zero key
        rec0 = enroll_cs(pair, x, BitVector.zeros(pair.K_fec))
        gs = enroll(pair, x)
        assert rec0.helper_data == gs.helper_data
        assert rec0.pad == gs.secret_key
        assert reconstruct_cs(pair, x, rec0) == BitVector.zeros(pair.K_fec)

        # flipping one stored pad bit flips exactly that key bit
        flipped = rec.pad ^ BitVector(1, pair.K_fec)
        from nestedtbcc.keyagree import CsEnrollmentRecord

        rec_flip = CsEnrollmentRecord(rec.helper_data, flipped)
        assert (reconstruct_cs(pair, x, rec_flip) ^ s_prime).to_tuple() == (1, 0, 0, 0)


def test_rate_accounting():
    pair = toy_pair_c()
    rec = enroll(pair, BitVector.zeros(pair.N))
    assert rec.secret_key.n == pair.K_fec
    assert rec.helper_data.n == pair.K_vq - pair.K_fec


def test_pair_json_and_bit_files(tmp_path):
    pair = toy_pair_c()
    d = pair_to_dict(pair)
    pair2 = pair_from_dict(d)
    assert pair2.vq_code == pair.vq_code

    vs = [BitVector.from_bits([1, 0, 1]), BitVector.from_bits([0, 0, 1])]
    path = tmp_path / "bits.txt"
    write_bit_lines(str(path), vs)
    assert read_bit_lines(str(path)) == vs
