import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestedtbcc.bounds import (
    binary_entropy,
    complexity_estimates,
    distortion_limit,
    gs_region_point,
    key_storage_ratio,
    pc_complexity,
    quantizer_converse_feasible,
    quantizer_rate_approx,
    solve_crossover,
    star,
    union_bound_pb,
)
from nestedtbcc.encoder import EncoderSpec, TailbitingCode
from nestedtbcc.gf2 import sample_uniform_matrix
from nestedtbcc.trellis import WeightSpectrum, weight_enumerator
import union_bound_reference


def spectrum_of(coeffs: dict, n: int | None = None) -> WeightSpectrum:
    d_max = max(coeffs)
    return WeightSpectrum(coeffs, d_max, n or d_max, 0)


def test_binary_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.0149) - 0.1118) < 1e-4
    with pytest.raises(ValueError):
        binary_entropy(1.5)


def test_star_values():
    assert star(0.3, 0.0) == 0.3
    assert star(0.3, 0.5) == 0.5
    assert abs(star(0.0408, 0.0149) - 0.0545) < 5e-4


@settings(max_examples=100, deadline=None)
@given(
    st.floats(0, 0.5, allow_nan=False),
    st.floats(0, 0.5, allow_nan=False),
    st.floats(0, 0.5, allow_nan=False),
)
def test_star_algebra(p, x, y):
    assert abs(star(p, x) - star(x, p)) < 1e-12
    assert abs(star(p, star(x, y)) - star(star(p, x), y)) < 1e-12
    assert -1e-12 <= star(p, x) <= 0.5 + 1e-12


def test_union_bound_hand_value():
    sp = spectrum_of({0: 1, 3: 1})
    assert abs(union_bound_pb(sp, 0.1) - 0.028) < 1e-12
    assert union_bound_pb(sp, 0.0) == 0.0


def test_union_bound_matches_reference():
    # up to 1536, the block length of the paper's geometry at m=11; a term below
    # the exp cutoff is 0 on both sides
    for d in [*range(1, 130), 191, 383, 384, 767, 768, 1535, 1536]:
        sp = spectrum_of({0: 1, d: 1})
        for p in (1e-9, 1e-3, 0.0365, 0.2, 0.5):
            want = union_bound_reference.union_bound_pb(sp, p)
            got = union_bound_pb(sp, p)
            assert (got == 0.0) == (want == 0.0), (d, p)
            assert abs(got - want) <= 1e-12 * want, (d, p, got, want)


@pytest.fixture(scope="module")
def m6_spectra() -> list[WeightSpectrum]:
    """Spectra of 300 random rate-1/3 m=6 codes with K=32, up to the design's
    truncation weight 4mn = 72; seeds whose code has no nonzero weight are skipped."""
    out = []
    for seed in range(300):
        rng = np.random.default_rng(seed)
        spec = EncoderSpec.rate_one_over_n(sample_uniform_matrix(3, 6, rng))
        sp = weight_enumerator(TailbitingCode.unfrozen(spec, 32), 72)
        if sp.d_min() is not None:
            out.append(sp)
    return out


def _outcome(solve, sp, target):
    try:
        return solve(sp, target)
    except ValueError as exc:
        return str(exc)


def test_solve_crossover_matches_reference(m6_spectra):
    # one target per spectrum, in turn: the reference solve takes about 5 ms
    assert len(m6_spectra) >= 290
    for k, sp in enumerate(m6_spectra):
        target = (1e-1, 1e-3, 1e-6)[k % 3]
        assert _outcome(solve_crossover, sp, target) == \
            _outcome(union_bound_reference.solve_crossover, sp, target), (sp.coeffs, target)


def test_union_bound_terms_come_from_their_own_rows(m6_spectra):
    # design.py prunes on a truncated spectrum's bound: its terms must be the
    # same floats as the full spectrum's, whatever other degrees are present
    ps = (1e-9, 1e-3, 0.0365, 0.2, 0.5)
    for sp in m6_spectra[:40]:
        degrees = [d for d, _ in sp.items() if d >= sp.d_min()]
        for p in ps:
            alone = [union_bound_pb(spectrum_of({0: 1, d: sp.a(d)}), p) for d in degrees]
            assert union_bound_pb(sp, p) == math.fsum(alone)
            for w in (24, 48):
                short = WeightSpectrum({d: a for d, a in sp.items() if d <= w}, w,
                                       sp.block_length, sp.dimension)
                if short.d_min() is not None:
                    assert union_bound_pb(short, p) <= union_bound_pb(sp, p)
    # degrees whose terms underflow add nothing: the bounds are the same float
    full = spectrum_of({0: 1, 5: 3, 9: 40, 100: 10**6, 120: 10**9})
    short = spectrum_of({0: 1, 5: 3, 9: 40})
    assert union_bound_pb(spectrum_of({100: 10**6, 120: 10**9}), 1e-9) == 0.0
    assert union_bound_pb(short, 1e-9) == union_bound_pb(full, 1e-9) > 0.0


def test_union_bound_monotone():
    sp = spectrum_of({0: 1, 3: 2, 5: 7})
    vals = [union_bound_pb(sp, p) for p in (0.01, 0.05, 0.1, 0.3, 0.5)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_solve_crossover_examples():
    sp = spectrum_of({0: 1, 3: 1})
    assert abs(solve_crossover(sp, 0.028) - 0.1) < 1e-4
    assert solve_crossover(sp, 0.5) == 0.5
    with pytest.raises(ValueError, match="unreachable"):
        solve_crossover(sp, 0.6)


def test_solve_crossover_round_trip():
    sp = spectrum_of({0: 1, 2: 3, 4: 10, 6: 40})
    for target in (1e-5, 1e-3, 0.05):
        p = solve_crossover(sp, target)
        assert abs(union_bound_pb(sp, p) - target) <= 1e-3 * target


def test_distortion_limit_values():
    assert abs(distortion_limit(0.0545, 0.0149) - 0.0408) < 1e-4
    assert abs(distortion_limit(0.0837, 0.0149) - 0.0709) < 1e-4
    assert distortion_limit(0.3, 0.0) == 0.3
    with pytest.raises(ValueError):
        distortion_limit(0.01, 0.02)


def test_gs_region_anchor_and_identity():
    pt = gs_region_point(0.0149, 0.0)
    assert abs(pt.R_s - 0.8882) < 1e-4
    assert abs(pt.R_w - 0.1118) < 1e-4

    for q in (0.0, 0.1, 0.25, 0.4, 0.5):
        pt = gs_region_point(0.0149, q)
        assert abs(pt.R_s + pt.R_w - (1.0 - binary_entropy(q))) < 1e-12

    degenerate = gs_region_point(0.0149, 0.5)
    assert degenerate.R_s == 0.0 and abs(degenerate.R_w) < 1e-12


def test_gs_region_against_high_precision_oracle():
    # recompute boundary points with 50-digit arithmetic
    import mpmath

    mpmath.mp.dps = 50

    def h(x):
        x = mpmath.mpf(x)
        if x == 0 or x == 1:
            return mpmath.mpf(0)
        return -x * mpmath.log(x, 2) - (1 - x) * mpmath.log(1 - x, 2)

    for p_a, q in [(0.0149, 0.0408), (0.0149, 0.0), (0.1, 0.2), (0.25, 0.03)]:
        mix = mpmath.mpf(q) * (1 - mpmath.mpf(p_a)) + (1 - mpmath.mpf(q)) * mpmath.mpf(p_a)
        want_rs = 1 - h(mix)
        want_rw = h(mix) - h(q)
        pt = gs_region_point(p_a, q)
        assert abs(pt.R_s - float(want_rs)) < 1e-13
        assert abs(pt.R_w - float(want_rw)) < 1e-13
        assert abs(pt.R_l - float(want_rw)) < 1e-13


def test_key_storage_ratio_values():
    assert abs(float(key_storage_ratio(128, 309)) - 0.7072) < 5e-4
    assert key_storage_ratio(128, 256) == Fraction(1, 1)
    assert abs(float(key_storage_ratio(128, 381)) - 0.5059) < 5e-4
    with pytest.raises(ValueError):
        key_storage_ratio(128, 128)


def test_quantizer_rate_approx():
    assert abs(quantizer_rate_approx(512, 0.0648) - 0.6626) < 2e-3
    n = 512
    assert quantizer_rate_approx(n, 0.5) == pytest.approx(math.log2(n) / (2 * n))
    tail = quantizer_rate_approx(1 << 20, 0.11)
    assert tail == pytest.approx(1 - binary_entropy(0.11), abs=2e-5)
    assert tail > 1 - binary_entropy(0.11)


def test_quantizer_converse_examples():
    assert quantizer_converse_feasible(4, 0.5, 0.25) is True
    assert quantizer_converse_feasible(16, 1.0, 0.0) is True
    assert quantizer_converse_feasible(4, 0.0, 0.0) is False


def test_quantizer_converse_monotone():
    for n in (16, 33):
        feas = [quantizer_converse_feasible(n, 0.4, q) for q in [i / 100 for i in range(51)]]
        assert feas == sorted(feas)  # False..True, never back
        feas_r = [quantizer_converse_feasible(n, r, 0.05) for r in [i / 50 for i in range(51)]]
        assert feas_r == sorted(feas_r)


def test_complexity_table_values():
    # error-correction column at k=1
    fec = complexity_estimates(N=384, n=3, k=1, m=11, V=4)
    assert fec.kappa_p == 2_098_176
    assert abs(math.log2(fec.kappa_p) - 21.00) < 0.01
    assert fec.kind == "P"

    vq = complexity_estimates(N=384, n=3, k=3, m=11, V=4)
    assert abs(math.log2(vq.kappa_m) - 21.58) < 0.01
    assert vq.kind == "M"

    assert pc_complexity(8, 1024) == 81920
    assert abs(math.log2(pc_complexity(8, 1024)) - 16.32) < 0.01


def test_complexity_rejects_rate_above_one():
    with pytest.raises(ValueError):
        complexity_estimates(N=8, n=2, k=3, m=2, V=1)
