"""The library's input checks, called in process: each bad argument raises a ValueError
whose message names that argument."""

import re

import numpy as np
import pytest

from conftest import random_spec, toy_pair_a
from nestedtbcc import bounds, design, simulate
from nestedtbcc.trellis import weight_enumerator

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
    # simulators
    "simulate_fer-p_c": (lambda: simulate.simulate_fer(PAIR.fec_code, 1.5), "p_c"),
    "simulate_end_to_end-p_A": (lambda: simulate.simulate_end_to_end(PAIR, -0.1), "p_A"),
    "simulate_distortion-trials": (
        lambda: simulate.simulate_distortion(PAIR.vq_code, trials=0), "trials"),
    "calibrate_pc-target_pb": (
        lambda: simulate.calibrate_pc(PAIR.fec_code, 1.0, 0.01), "target_pb"),
    "StopRule-max_trials": (lambda: simulate.StopRule(0, 1), "max_trials"),
    # bounds
    "star-p": (lambda: bounds.star(1.5, 0.1), "p and x"),
    "union_bound_pb-p_c": (lambda: bounds.union_bound_pb(SPECTRUM, 0.6), "p_c"),
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
