"""The library's input checks, called in process: each bad argument raises a ValueError
whose message names that argument."""

import re

import numpy as np
import pytest

from conftest import random_spec, toy_pair_a
from nestedtbcc import bounds, design, keyagree, simulate
from nestedtbcc.encoder import encode_many
from nestedtbcc.trellis import WeightSpectrum, build_trellis, weight_enumerator
from nestedtbcc.wava import wava_decode_many

PAIR = toy_pair_a()
SPECTRUM = weight_enumerator(PAIR.fec_code)
PARENT = random_spec(np.random.default_rng(20), m=2, k=1, n=3)

CASES = {
    # design
    "search_fec-w_max": (lambda: design.search_fec(3, 2, 8, 1e-2, 0), "w_max"),
    "search_fec-target_pb-0": (lambda: design.search_fec(3, 2, 8, 0.0, 4), "target_pb"),
    "search_fec-target_pb-1": (lambda: design.search_fec(3, 2, 8, 1.0, 4), "target_pb"),
    "search_fec-K_fec": (lambda: design.search_fec(3, 4, 3, 1e-2, 4), "K_fec"),
    "search_fec-d_max-low": (lambda: design.search_fec(3, 2, 8, 1e-2, 4, d_max=-1), "d_max"),
    "search_fec-d_max-high": (lambda: design.search_fec(3, 2, 8, 1e-2, 4, d_max=25), "d_max"),
    "search_vq_extension-k_vq": (lambda: design.search_vq_extension(PARENT, 1, 4), "k_vq"),
    "search_vq_extension-w_max": (lambda: design.search_vq_extension(PARENT, 2, 0), "w_max"),
    "design_nested-n": (lambda: design.design_nested(0.01, 1e-2, 8, 1, 2), "n"),
    # trellis
    "weight_enumerator-d_max": (lambda: weight_enumerator(PAIR.fec_code, PAIR.N + 1), "d_max"),
    # simulators
    "simulate_fer-p_c": (lambda: simulate.simulate_fer(PAIR.fec_code, 1.5), "p_c"),
    "simulate_end_to_end-p_A": (lambda: simulate.simulate_end_to_end(PAIR, -0.1), "p_A"),
    "simulate_distortion-trials": (
        lambda: simulate.simulate_distortion(PAIR.vq_code, trials=0), "trials"),
    "calibrate_pc-target_pb": (
        lambda: simulate.calibrate_pc(PAIR.fec_code, 1.0, 0.01), "target_pb"),
    "calibrate_pc-p_A-high": (lambda: simulate.calibrate_pc(PAIR.fec_code, 1e-2, 0.6), "p_A"),
    "calibrate_pc-p_A-negative": (
        lambda: simulate.calibrate_pc(PAIR.fec_code, 1e-2, -0.1), "p_A"),
    "StopRule-max_trials": (lambda: simulate.StopRule(0, 1), "max_trials"),
    # bounds
    "star-p": (lambda: bounds.star(1.5, 0.1), "p and x"),
    "union_bound_pb-p_c": (lambda: bounds.union_bound_pb(SPECTRUM, 0.6), "p_c"),
    "union_bound_pb-spectrum": (
        lambda: bounds.union_bound_pb(WeightSpectrum({0: 1}, 4, 12, 4), 0.1), "spectrum"),
    "solve_crossover-target_pb": (lambda: bounds.solve_crossover(SPECTRUM, 0.0), "target_pb"),
    "distortion_limit-p_A": (lambda: bounds.distortion_limit(0.5, 0.5), "p_A"),
    "gs_region_point-q": (lambda: bounds.gs_region_point(0.1, 0.6), "q"),
    "key_storage_ratio-K_fec": (lambda: bounds.key_storage_ratio(0, 1), "K_fec"),
    "quantizer_rate_approx-N": (lambda: bounds.quantizer_rate_approx(1, 0.1), "N"),
    "quantizer_rate_approx-q": (lambda: bounds.quantizer_rate_approx(8, 0.0), "q"),
    "quantizer_converse_feasible-N": (
        lambda: bounds.quantizer_converse_feasible(0, 0.5, 0.1), "N"),
    "quantizer_converse_feasible-R_q": (
        lambda: bounds.quantizer_converse_feasible(8, 1.5, 0.1), "R_q"),
    "complexity_estimates-V": (lambda: bounds.complexity_estimates(12, 3, 1, 2, 0), "V"),
    "complexity_estimates-N": (lambda: bounds.complexity_estimates(13, 3, 1, 2, 4), "N"),
}


@pytest.mark.parametrize("call, name", CASES.values(), ids=CASES.keys())
def test_bad_argument_raises_value_error_naming_it(call, name):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    assert re.search(rf"\b{name}\b", str(info.value)), str(info.value)


# the batch entry points, each with bits of one argument: (call, argument, row width)
K_W = PAIR.K_vq - PAIR.K_fec
Y, W = np.zeros((2, PAIR.N), np.uint8), np.zeros((2, K_W), np.uint8)
BIT_ROWS = {
    "encode_many": (lambda b: encode_many(PAIR.vq_code, b), "message", PAIR.K_vq),
    "wava_decode_many": (lambda b: wava_decode_many(build_trellis(PAIR.vq_code), b),
                         "received", PAIR.N),
    "enroll_many": (lambda b: keyagree.enroll_many(PAIR, b), "identifier", PAIR.N),
    "reconstruct_many-y": (lambda b: keyagree.reconstruct_many(PAIR, b, W), "measurement", PAIR.N),
    "reconstruct_many-w": (lambda b: keyagree.reconstruct_many(PAIR, Y, b), "helper", K_W),
}


@pytest.mark.parametrize("call, name, width", BIT_ROWS.values(), ids=BIT_ROWS.keys())
def test_bad_bit_rows_raise_value_error_naming_them(call, name, width):
    # a 3-D array and a row one bit too long
    for bits in (np.zeros((2, 3, width), np.uint8), np.zeros((2, width + 1), np.uint8)):
        with pytest.raises(ValueError) as info:
            call(bits)
        assert type(info.value) is ValueError
        assert re.match(rf"{name} (bits must be|length)\b", str(info.value)), str(info.value)
