import gc
import io
import math
import re
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import all_messages, bits, codeword_set, random_code, random_spec, toy_pair_a
from encoder_reference import encode_reference, message_to_inputs
from nestedtbcc import keyagree, wava
from nestedtbcc.encoder import (
    EncoderSpec,
    EncoderSpecError,
    FreezingSchedule,
    TailbitingCode,
    append_input_columns,
    code_from_dict,
    code_to_dict,
    encode_many,
    encode_tailbiting,
    fec_restriction,
    write_json,
)
from nestedtbcc.gf2 import BitMatrix, BitVector, Gf2ShapeError, sample_uniform_matrix
from nestedtbcc.keyagree import NestedCodePair, load_pair
from nestedtbcc.trellis import build_trellis, weight_enumerator


def test_step_examples():
    # one clock from packed state s on packed input u: out_int[s, u], next_state[s, u]
    spec = EncoderSpec.rate_one_over_n(BitMatrix.from_rows([[1, 0], [1, 1]]))
    next_state, out_int = spec.transitions
    s, u = bits(1, 0).word, bits(1).word
    assert out_int[s, u] == bits(1, 1).word and next_state[s, u] == bits(1, 1).word
    assert out_int[0, 0] == 0 and next_state[0, 0] == 0

    spec1 = EncoderSpec.rate_one_over_n(BitMatrix.from_rows([[1]]))
    next_state, out_int = spec1.transitions
    assert out_int[1, 0] == 1 and next_state[1, 0] == 0


def test_encode_tailbiting_examples(unit_toy):
    assert tuple(encode_tailbiting(unit_toy, bits(1, 0))) == (0, 1)
    assert encode_tailbiting(unit_toy, bits(0, 0)).word == 0
    weights = sorted(
        encode_tailbiting(unit_toy, BitVector.from_bits(m)).word.bit_count()
        for m in ([0, 0], [1, 0], [0, 1], [1, 1])
    )
    assert weights == [0, 1, 1, 2]


def test_tailbiting_state_closes():
    # clocking the transition table over the sections from the wrap state
    # must end where it started and emit the codeword
    rng = np.random.default_rng(3)
    for _ in range(10):
        code = random_code(rng, m=3, k=2, n=2, ell=5, freeze_prob=0.3)
        msg = rng.integers(0, 2, code.K)
        cw = encode_tailbiting(code, BitVector.from_bits(msg.tolist()))
        us = message_to_inputs(code, msg)
        next_state, out_int = code.spec.transitions

        s = 0
        for u in us:
            s = next_state[s, u]
        wrap = s
        word = 0
        for t, u in enumerate(us):
            word |= int(out_int[s, u]) << (t * code.spec.n)
            s = next_state[s, u]
        assert s == wrap
        assert BitVector(word, code.N) == cw


@pytest.mark.parametrize("B", [0, 1, 37])
def test_matches_reference_encoder(B):
    rng = np.random.default_rng(41 + B)
    for m in range(1, 7):
        for k in range(1, 4):
            # ell == m: pass 1 covers every section
            for ell in (m, m + int(rng.integers(1, 12))):
                code = random_code(rng, m, k, int(rng.integers(1, 4)), ell, freeze_prob=0.4)
                msgs = rng.integers(0, 2, (B, code.K), dtype=np.uint8)
                got = encode_many(code, msgs)
                assert got.dtype == np.uint8 and got.shape == (B, code.N)
                assert np.array_equal(got, encode_reference(code, msgs))


def test_encode_many_checks_the_wrap(monkeypatch):
    # a state map that is not a shift never forgets its start state
    code = TailbitingCode.unfrozen(EncoderSpec.rate_one_over_n(BitMatrix.from_rows([[1, 1]])), 3)
    _, out_int = code.spec.transitions
    rotate = np.tile((np.arange(4)[:, None] + 1) % 4, (1, 2))
    monkeypatch.setitem(code.spec.__dict__, "transitions", (rotate, out_int))
    with pytest.raises(AssertionError, match="end state differs"):
        encode_many(code, np.zeros((2, code.K), dtype=np.uint8))


def test_code_keyed_caches_are_bounded():
    rng = np.random.default_rng(43)
    codes = set()
    while len(codes) < 100:
        codes.add(random_code(rng, m=3, k=2, n=3, ell=4))
    for code in codes:
        wava.wava_decode_many(build_trellis(code), np.ones((1, code.N), dtype=np.uint8))
        keyagree.enroll_many(NestedCodePair(code), np.zeros((1, code.N), dtype=np.uint8))
    for cache in (build_trellis, wava._tables):
        assert 0 < cache.cache_info().currsize <= 64


def test_derived_tables_are_computed_once_per_code():
    rng = np.random.default_rng(47)
    for _ in range(20):
        code = random_code(rng, m=3, k=3, n=2, ell=6, freeze_prob=0.4)
        idx = code.input_index
        assert idx is code.input_index and not idx.flags.writeable
        assert code.spec.transitions is code.spec.transitions
        assert not any(a.flags.writeable for a in code.spec.transitions)
        assert code.K == sum(code.spec.k - len(f) for f in code.schedule.frozen) == len(idx)
        # input t*k + i carries a message bit exactly when i is unfrozen at t
        assert [divmod(int(j), 3) for j in idx] == \
            [(t, i) for t, fs in enumerate(code.schedule.frozen) for i in range(3) if i not in fs]
        twin = code_from_dict(code_to_dict(code))
        assert twin == code and twin is not code
        assert np.array_equal(twin.input_index, idx)
        assert all(np.array_equal(a, b) for a, b in zip(twin.spec.transitions, code.spec.transitions))
    # no module-level cache holds a code that only encode_many has seen
    ref = weakref.ref(code)
    encode_many(code, np.zeros((1, code.K), dtype=np.uint8))
    del code, twin
    gc.collect()
    assert ref() is None


def test_linearity_exhaustive():
    rng = np.random.default_rng(5)
    code = random_code(rng, m=2, k=2, n=2, ell=3, freeze_prob=0.2)
    msgs = all_messages(code.K)
    cws = encode_many(code, msgs)
    for _ in range(200):
        i, j = rng.integers(0, len(msgs), 2)
        xor_msg = msgs[i] ^ msgs[j]
        idx = int(sum(int(b) << t for t, b in enumerate(xor_msg)))
        assert np.array_equal(cws[i] ^ cws[j], cws[idx])


def test_ell_below_memory_rejected():
    spec = EncoderSpec.rate_one_over_n(sample_uniform_matrix(2, 3, 1))
    with pytest.raises(EncoderSpecError, match="ell"):
        TailbitingCode.unfrozen(spec, 2)


def test_message_length_checked(unit_toy):
    with pytest.raises(Exception, match="length"):
        encode_tailbiting(unit_toy, bits(1, 0, 1))


def test_encode_many_rejects_non_binary(unit_toy):
    # entries a uint8 cast would keep (2, 3) or turn into a bit (256, -1, 0.5)
    for bad in (2, 3, 256, -1, 0.5):
        messages = np.zeros((3, unit_toy.K), dtype=type(bad))
        messages[1, 0] = bad
        with pytest.raises(ValueError, match="only 0 and 1"):
            encode_many(unit_toy, messages)
    assert encode_many(unit_toy, np.ones((3, unit_toy.K), dtype=bool)).shape == (3, unit_toy.N)


def test_remove_then_append_restores_codewords():
    # at k=2 the restriction drops the one helper input; its taps restore the spec
    rng = np.random.default_rng(11)
    spec = random_spec(rng, m=3, k=2, n=2)
    rebuilt = append_input_columns(fec_restriction(spec), spec.B_tilde, spec.D_tilde)
    assert rebuilt == spec
    ell = 4
    assert codeword_set(TailbitingCode.unfrozen(rebuilt, ell)) == codeword_set(
        TailbitingCode.unfrozen(spec, ell)
    )


def test_append_input_columns_examples():
    rng = np.random.default_rng(13)
    base = random_spec(rng, m=3, k=1, n=2)
    ell = 4
    ext = append_input_columns(base, sample_uniform_matrix(3, 1, rng),
                               sample_uniform_matrix(2, 1, rng))
    assert ext.k == 2
    assert codeword_set(TailbitingCode.unfrozen(base, ell)) <= codeword_set(
        TailbitingCode.unfrozen(ext, ell)
    )

    # zero columns leave the codeword set unchanged (encoder non-injective)
    zext = append_input_columns(base, BitMatrix.zeros(3, 2), BitMatrix.zeros(2, 2))
    assert zext.k == 3
    assert codeword_set(TailbitingCode.unfrozen(zext, ell)) == codeword_set(
        TailbitingCode.unfrozen(base, ell)
    )
    # no columns: the same spec
    assert append_input_columns(base, BitMatrix.zeros(3, 0), BitMatrix.zeros(2, 0)) == base

    # a block adds its columns in order, as one-column appends do
    b1, d1 = BitMatrix.from_rows([[1], [0], [1]]), BitMatrix.from_rows([[0], [1]])
    b2, d2 = BitMatrix.from_rows([[0], [1], [1]]), BitMatrix.from_rows([[1], [1]])
    s12 = append_input_columns(append_input_columns(base, b1, d1), b2, d2)
    assert s12 == append_input_columns(base, BitMatrix.from_rows([[1, 0], [0, 1], [1, 1]]),
                                       BitMatrix.from_rows([[0, 1], [1, 1]]))

    # appends commute as codeword sets
    s21 = append_input_columns(append_input_columns(base, b2, d2), b1, d1)
    assert codeword_set(TailbitingCode.unfrozen(s12, ell)) == codeword_set(
        TailbitingCode.unfrozen(s21, ell)
    )


def test_effective_rate_examples():
    spec = EncoderSpec.rate_one_over_n(sample_uniform_matrix(3, 2, 3))
    code = TailbitingCode.unfrozen(spec, 5)
    assert Fraction(code.K, code.N) == Fraction(1, 3)

    rng = np.random.default_rng(17)
    spec3 = random_spec(rng, m=2, k=3, n=3)
    frozen = [frozenset()] * 4
    frozen[2] = frozenset({1})
    code3 = TailbitingCode(spec3, FreezingSchedule(4, tuple(frozen)))
    assert Fraction(code3.K, code3.N) == Fraction(11, 12)

    fully = TailbitingCode(spec3, FreezingSchedule(4, (frozenset({1, 2}),) * 4))
    assert Fraction(fully.K, fully.N) == Fraction(1, 3)


def test_freezing_nesting_property():
    rng = np.random.default_rng(19)
    spec = random_spec(rng, m=2, k=3, n=2)
    ell = 4
    base = TailbitingCode(spec, FreezingSchedule(ell, (frozenset({2}),) * ell))
    more = TailbitingCode(
        spec, FreezingSchedule(ell, (frozenset({2}), frozenset({1, 2})) * 2)
    )
    assert codeword_set(more) <= codeword_set(base)


def test_register_input_never_frozen():
    with pytest.raises(EncoderSpecError, match="input 0"):
        FreezingSchedule(2, (frozenset({0}), frozenset()))


def test_injectivity_matches_spectrum_flag():
    # distinct messages collide exactly when the zero-weight count exceeds one
    rng = np.random.default_rng(23)
    seen_noninjective = False
    for _ in range(40):
        code = random_code(rng, m=2, k=rng.integers(1, 3), n=rng.integers(1, 3), ell=4)
        cws = encode_many(code, all_messages(code.K))
        n_unique = len({tuple(r) for r in cws.tolist()})
        injective = n_unique == len(cws)
        assert injective == (weight_enumerator(code).a(0) == 1)
        seen_noninjective |= not injective
    assert seen_noninjective  # the flag must actually fire sometimes


def test_fec_restriction_equals_frozen_everything():
    rng = np.random.default_rng(29)
    spec = random_spec(rng, m=2, k=3, n=2)
    ell = 4
    frozen_all = TailbitingCode(
        spec, FreezingSchedule(ell, (frozenset({1, 2}),) * ell)
    )
    restricted = TailbitingCode.unfrozen(fec_restriction(spec), ell)
    assert codeword_set(frozen_all) == codeword_set(restricted)


# field overrides of the toy pair's k=2 code (m=2, n=3, ell=4), each reaching one check
MALFORMED_CODES = {
    "m0": ({"m": 0, "B_tilde": [], "C": [[]] * 3}, "need m,k,n >= 1, got m=0 k=2 n=3"),
    "n0": ({"n": 0, "C": [], "D_tilde": []}, "need m,k,n >= 1, got m=2 k=2 n=0"),
    "B_tilde": ({"B_tilde": [[0]]}, "B_tilde must be 2x1, got (1, 1)"),
    "C": ({"C": [[1, 0], [0, 1]]}, "C must be 3x2, got (2, 2)"),
    "D_tilde": ({"D_tilde": [[1], [1]]}, "D_tilde must be 3x1, got (2, 1)"),
    "ell0": ({"ell": 0, "frozen": []}, "need ell >= 1, got 0"),
    "frozen_k": ({"frozen": [[2], [], [], []]}, "frozen indices [2] out of range for k=2 at t=0"),
    "frozen_negative": ({"frozen": [[-1], [], [], []]},
                        "input indices at t=0 must be positive integers: frozenset({-1})"),
}


@pytest.mark.parametrize("fields, message", MALFORMED_CODES.values(), ids=MALFORMED_CODES.keys())
def test_malformed_code_dict_raises_its_check(fields, message):
    # code_from_dict reads every --code and --pair file
    d = {**code_to_dict(toy_pair_a().vq_code), **fields}
    with pytest.raises(EncoderSpecError, match=f"^{re.escape(message)}$"):
        code_from_dict(d)


def test_append_input_columns_checks_the_block_shapes():
    spec = toy_pair_a().fec_code.spec   # m=2, n=3
    for b_block, d_block in [(BitMatrix.zeros(3, 1), BitMatrix.zeros(3, 1)),   # m rows
                             (BitMatrix.zeros(2, 1), BitMatrix.zeros(2, 1)),   # n rows
                             (BitMatrix.zeros(2, 1), BitMatrix.zeros(3, 2))]:  # c columns
        message = (f"need b_block 2xc and d_block 3xc, "
                   f"got {b_block.shape} and {d_block.shape}")
        with pytest.raises(Gf2ShapeError, match=f"^{re.escape(message)}$"):
            append_input_columns(spec, b_block, d_block)


def test_code_json_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    code = random_code(rng, m=3, k=2, n=2, ell=5, freeze_prob=0.4)
    d = code_to_dict(code)
    again = code_from_dict(d)
    assert again == code
    msg = BitVector.from_bits(rng.integers(0, 2, code.K).tolist())
    assert encode_tailbiting(again, msg) == encode_tailbiting(code, msg)


def test_write_json_refuses_non_finite_floats_and_readers_stay_lenient():
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            write_json({"x": value}, io.StringIO())
    # a pair file written before the change holds "a_free": Infinity and still loads
    old = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "pair_m6.json"
    assert '"a_free": Infinity' in old.read_text()
    assert load_pair(str(old)).K_vq == 77
