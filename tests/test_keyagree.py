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
from nestedtbcc.cli import _read_bits, _write_bits
from nestedtbcc.encoder import (
    EncoderSpecError,
    TailbitingCode,
    encode_many,
    encode_tailbiting,
    fec_restriction,
)
from nestedtbcc.gf2 import BitVector
from nestedtbcc.keyagree import (
    NestedCodePair,
    enroll,
    enroll_cs,
    enroll_many,
    pair_from_dict,
    pair_to_dict,
    reconstruct,
    reconstruct_cs,
    reconstruct_many,
)
from nestedtbcc.trellis import build_trellis, weight_enumerator
from nestedtbcc.wava import wava_decode_many


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


@pytest.mark.parametrize("make", [toy_pair_a, toy_pair_b, toy_pair_c])
def test_pair_derived_values_are_computed_once(make):
    pair = make()
    assert pair.fec_code is pair.fec_code
    assert pair.fec_code == TailbitingCode.unfrozen(fec_restriction(pair.vq_code.spec), pair.K_fec)
    ki, hi = pair.key_index, pair.helper_index
    assert ki is pair.key_index and hi is pair.helper_index
    assert not ki.flags.writeable and not hi.flags.writeable
    assert sorted([*ki, *hi]) == list(range(pair.K_vq)) and len(ki) == pair.K_fec
    assert (pair.vq_code.input_index[ki] % pair.vq_code.spec.k == 0).all()
    s = BitVector.from_bits(np.random.default_rng(2).integers(0, 2, pair.K_fec).tolist())
    merged = pair.merge_message(s, BitVector.zeros(pair.K_vq - pair.K_fec)).to_numpy()
    assert np.array_equal(merged[ki], s.to_numpy()) and not merged[hi].any()


def test_split_merge_round_trip():
    # enroll_many splits a message by the role indices; merge_message undoes it
    pair = toy_pair_c()
    ki, hi = pair.key_index, pair.helper_index
    rng = np.random.default_rng(0)
    for _ in range(50):
        msg = rng.integers(0, 2, pair.K_vq)
        s, w = vec(msg[ki]), vec(msg[hi])
        assert s.n == pair.K_fec and w.n == pair.K_vq - pair.K_fec
        assert pair.merge_message(s, w) == vec(msg)
    with pytest.raises(ValueError, match="expected key length"):
        pair.merge_message(s, BitVector.zeros(w.n + 1))


def test_encode_splits_linearly():
    # encode(s, w) = encode(s, 0) xor encode(0, w) for every message
    pair = toy_pair_a()
    ki, hi = pair.key_index, pair.helper_index
    zero_s = BitVector.zeros(pair.K_fec)
    zero_w = BitVector.zeros(pair.K_vq - pair.K_fec)
    msgs = all_messages(pair.K_vq)
    s_only = np.array([pair.merge_message(vec(m[ki]), zero_w).to_numpy() for m in msgs])
    w_only = np.array([pair.merge_message(zero_s, vec(m[hi])).to_numpy() for m in msgs])
    lhs = encode_many(pair.vq_code, msgs)
    assert np.array_equal(lhs, encode_many(pair.vq_code, s_only) ^ encode_many(pair.vq_code, w_only))


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
    ki, hi = pair.key_index, pair.helper_index
    rng = np.random.default_rng(1)
    for _ in range(20):
        msg = rng.integers(0, 2, pair.K_vq)
        rec = enroll(pair, encode_tailbiting(pair.vq_code, vec(msg)))
        assert rec.secret_key == vec(msg[ki])
        assert rec.helper_data == vec(msg[hi])
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
    # the single-word path decodes with the batch path's sweep budget: on
    # random words, noisy enough that some run past the first sweep, it
    # returns the batch row
    pair = toy_pair_a()
    rng = np.random.default_rng(0)
    y = rng.integers(0, 2, (256, pair.N), dtype=np.uint8)
    w = rng.integers(0, 2, (256, pair.K_vq - pair.K_fec), dtype=np.uint8)
    s = reconstruct_many(pair, y, w)
    for b in range(len(y)):
        assert reconstruct(pair, vec(y[b]), vec(w[b])) == vec(s[b])


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

    ki, hi = pair.key_index, pair.helper_index
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
    # the offset reconstruct_many subtracts, encode(0, W) from the helper
    # positions of a zero message, is the encoding of the merged message
    pair = toy_pair_a()
    hi = pair.helper_index
    w = BitVector.from_bits([1, 0, 1, 1])
    msgs = np.zeros((1, pair.K_vq), dtype=np.uint8)
    msgs[:, hi] = w.to_numpy()
    c_w = encode_tailbiting(pair.vq_code, pair.merge_message(BitVector.zeros(4), w))
    assert vec(encode_many(pair.vq_code, msgs)[0]) == c_w


def test_cs_model_round_trip_and_pad_semantics():
    pair = toy_pair_a()
    rng = np.random.default_rng(4)
    for _ in range(20):
        msg = BitVector.from_bits(rng.integers(0, 2, pair.K_vq).tolist())
        x = encode_tailbiting(pair.vq_code, msg)
        s_prime = BitVector.from_bits(rng.integers(0, 2, pair.K_fec).tolist())
        rec = enroll_cs(pair, x, s_prime)
        assert rec.pad.n == pair.K_fec
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
        assert tuple(reconstruct_cs(pair, x, rec_flip) ^ s_prime) == (1, 0, 0, 0)


def test_enroll_cs_checks_the_chosen_key_length():
    pair = toy_pair_a()   # K_fec = 4
    with pytest.raises(ValueError, match=r"^chosen key length 5 != K_fec=4$"):
        enroll_cs(pair, BitVector.zeros(pair.N), BitVector.zeros(pair.K_fec + 1))


def test_batch_functions_reject_wrong_shapes():
    pair = toy_pair_a()
    x = np.zeros((5, pair.N), dtype=np.uint8)
    w = np.zeros((5, pair.K_vq - pair.K_fec), dtype=np.uint8)
    with pytest.raises(ValueError, match=r"identifier bits must be \[B, N=12\]"):
        enroll_many(pair, x[0])
    with pytest.raises(ValueError, match="identifier length 11 != N=12"):
        enroll_many(pair, x[:, 1:])
    with pytest.raises(ValueError, match=r"measurement bits must be \[B, N=12\]"):
        reconstruct_many(pair, x[0], w)
    with pytest.raises(ValueError, match="measurement length 13 != N=12"):
        reconstruct_many(pair, np.zeros((5, 13), dtype=np.uint8), w)
    with pytest.raises(ValueError, match="helper bits must be"):
        reconstruct_many(pair, x, w[0])
    with pytest.raises(ValueError, match="helper length 3 != K_vq - K_fec = 4"):
        reconstruct_many(pair, x, w[:, 1:])
    # one helper row is not broadcast over five measurements
    with pytest.raises(ValueError, match="5 measurements but 1 helper rows"):
        reconstruct_many(pair, x, w[:1])
    # the single-word wrappers keep their messages
    with pytest.raises(ValueError, match="identifier length 11 != N=12"):
        enroll(pair, BitVector.zeros(11))
    with pytest.raises(ValueError, match="measurement length 11 != N=12"):
        reconstruct(pair, BitVector.zeros(11), BitVector.zeros(4))
    with pytest.raises(ValueError, match="helper length 5 != K_vq - K_fec = 4"):
        reconstruct(pair, BitVector.zeros(12), BitVector.zeros(5))


@pytest.mark.parametrize("make", [toy_pair_a, toy_pair_c])
def test_empty_batches_return_empty_rows(make):
    # a batch of no rows runs every batch path and returns arrays of no rows, with the
    # widths and dtypes of a one-row batch
    pair = make()

    def outputs(B):
        x = np.zeros((B, pair.N), dtype=np.uint8)
        s, w, dist = enroll_many(pair, x)
        res = wava_decode_many(build_trellis(pair.fec_code), x)
        return [encode_many(pair.vq_code, np.zeros((B, pair.K_vq), dtype=np.uint8)), s, w, dist,
                reconstruct_many(pair, x, w), res.msg_bits, res.cw_bits, res.distance,
                res.iterations, res.converged, res.fallback]

    for empty, one in zip(outputs(0), outputs(1), strict=True):
        assert (empty.shape, empty.dtype) == ((0, *one.shape[1:]), one.dtype)


def test_enroll_many_rejects_non_binary():
    pair = toy_pair_a()
    for bad in (2, 3, 256, -1, 0.5):
        x = np.zeros((2, pair.N), dtype=type(bad))
        x[0, 5] = bad
        with pytest.raises(ValueError, match="only 0 and 1"):
            enroll_many(pair, x)


def test_reconstruct_many_rejects_non_binary():
    pair = toy_pair_a()
    for bad in (2, 3, 256, -1, 0.5):
        y = np.zeros((2, pair.N), dtype=type(bad))
        w = np.zeros((2, pair.K_vq - pair.K_fec), dtype=type(bad))
        y[1, 0] = bad
        with pytest.raises(ValueError, match="only 0 and 1"):
            reconstruct_many(pair, y, w.astype(np.uint8))
        y[1, 0], w[0, -1] = 0, bad
        with pytest.raises(ValueError, match="only 0 and 1"):
            reconstruct_many(pair, y.astype(np.uint8), w)


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

    bits = np.array([[1, 0, 1], [0, 0, 1]], dtype=np.uint8)
    path = tmp_path / "bits.txt"
    _write_bits(str(path), bits)
    assert path.read_text() == "101\n001\n"
    assert np.array_equal(_read_bits(str(path), 3), bits)
