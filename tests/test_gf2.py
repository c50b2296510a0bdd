import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestedtbcc.gf2 import (
    BitMatrix,
    BitVector,
    Gf2ShapeError,
    gf2_vec_mat,
    sample_uniform_matrix,
)


def test_vec_mat_examples():
    m = BitMatrix.from_rows([[1, 0], [1, 1]])
    assert tuple(gf2_vec_mat(BitVector.from_bits([0, 0]), m)) == (0, 0)
    m2 = BitMatrix.from_rows([[1, 1], [0, 1]])
    assert tuple(gf2_vec_mat(BitVector.from_bits([1, 0]), m2)) == (1, 1)
    assert tuple(gf2_vec_mat(BitVector.from_bits([1, 1]), m2)) == (1, 0)


def test_dimension_mismatch_messages_carry_shapes():
    with pytest.raises(Gf2ShapeError, match=r"3.*2x4|2x4.*3"):
        gf2_vec_mat(BitVector.zeros(3), BitMatrix.zeros(2, 4))


def test_sample_uniform_matrix_determinism_and_shapes():
    a = sample_uniform_matrix(2, 2, 1234)
    b = sample_uniform_matrix(2, 2, 1234)
    assert a == b
    empty = sample_uniform_matrix(0, 3, 7)
    assert empty.shape == (0, 3)


def test_sample_uniform_matrix_density():
    # ~10^6 bits at a fixed seed; mean must sit within 1e-3 of one half
    total = 0
    ones = 0
    for draw in range(245):
        m = sample_uniform_matrix(64, 64, (99, draw))
        ones += sum(bin(w).count("1") for w in m.row_words)
        total += 64 * 64
    density = ones / total
    assert 0.499 <= density <= 0.501


@st.composite
def conformable_triple(draw):
    a, b, c, d = (draw(st.integers(min_value=1, max_value=6)) for _ in range(4))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    return (
        sample_uniform_matrix(a, b, rng),
        sample_uniform_matrix(b, c, rng),
        sample_uniform_matrix(c, d, rng),
    )


@settings(max_examples=50, deadline=None)
@given(conformable_triple())
def test_vec_mat_associativity(mats):
    a, b, _ = mats
    rng = np.random.default_rng(a.nrows + b.ncols)
    v = BitVector.from_bits(rng.integers(0, 2, a.nrows).tolist())
    ab = BitMatrix.from_numpy(a.to_numpy().astype(int) @ b.to_numpy() % 2)
    assert gf2_vec_mat(v, ab) == gf2_vec_mat(gf2_vec_mat(v, a), b)


def test_bitvector_basics():
    v = BitVector.from_bits([1, 0, 1, 1])
    assert len(v) == 4 and v[0] == 1 and v[1] == 0
    assert v.weight() == 3
    assert (v ^ v).weight() == 0
    with pytest.raises(ValueError):
        BitVector.from_bits([2])


def test_bitvector_from_int_round_trips_with_from_bits():
    # bit j of the word is element j
    rng = np.random.default_rng(5)
    for n in (0, 1, 8, 65):
        bits = rng.integers(0, 2, n).tolist()
        word = sum(b << j for j, b in enumerate(bits))
        assert BitVector.from_int(word, n) == BitVector.from_bits(bits)
        assert BitVector.from_int(BitVector.from_bits(bits).word, n).to_numpy().tolist() == bits
    for word, n in ((-1, 4), (1 << 4, 4), (1, 0)):
        with pytest.raises(ValueError, match=rf"^word {word} does not fit in {n} bits$"):
            BitVector.from_int(word, n)


def test_bitvector_numpy_round_trip_matches_the_bitwise_definition():
    # to_numpy/from_numpy pack through bytes; bit j of the word is element j
    rng = np.random.default_rng(3)
    for n in (0, 1, 7, 8, 9, 63, 64, 65, 200):
        bits = rng.integers(0, 2, n)
        v = BitVector.from_numpy(bits)
        assert v == BitVector.from_bits(bits.tolist())
        assert v == BitVector.from_numpy(bits.astype(bool))
        out = v.to_numpy()
        assert out.dtype == np.uint8 and out.tolist() == [(v.word >> j) & 1 for j in range(n)]
    for bad, shown in (([0, 2, 1], "2"), ([0.5, 1.0], "0.5"), ([-1], "-1")):
        for pack in (BitVector.from_bits, lambda b: BitVector.from_numpy(np.array(b))):
            with pytest.raises(ValueError, match=f"must be 0 or 1, got {shown}$"):
                pack(bad)
    with pytest.raises(ValueError, match=r"got \[0, 0\]$"):
        BitVector.from_numpy(np.zeros((2, 2), dtype=np.uint8))
