"""Closed-form analysis: entropy algebra, union bound, rate region, quantizer
bounds, and decoding-complexity estimates.

The union bound is evaluated from flat arrays of every degree's log-domain
binomial-tail row, laid out once per spectrum and reduced segment by segment,
so solve_crossover's probes repeat no per-degree work; the quantizer converse
uses exact big-integer binomial sums so the floor-induced zigzag is reproduced
bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .trellis import WeightSpectrum


@dataclass(frozen=True)
class RateTuple:
    """Key rate, privacy-leakage rate, and storage rate in bits/symbol."""

    R_s: float
    R_l: float
    R_w: float


def binary_entropy(x: float) -> float:
    """H_b(x) in bits, with H_b(0) = H_b(1) = 0 by continuity."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"probability out of range: {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def star(p: float, x: float) -> float:
    """Binary convolution p*x = p(1-x) + (1-p)x."""
    if not 0.0 <= p <= 1.0 or not 0.0 <= x <= 1.0:
        raise ValueError(f"p and x must be in [0, 1], got {p}, {x}")
    return p * (1.0 - x) + (1.0 - p) * x


def _union_bound(spectrum: WeightSpectrum) -> Callable[[float], float]:
    """p -> union bound of the spectrum, for 0 < p <= 0.5.

    Degree d >= d_min adds A_d P[Bin(d, p) >= ceil(d/2)] from its own row
    log C(d, i) + i log p + (d - i) log(1 - p), i = ceil(d/2)..d (per-index
    log-factorials), so a truncated spectrum's terms are the full one's floats.
    """
    dmin = spectrum.d_min()
    if dmin is None:
        raise ValueError("spectrum has no nonzero-weight term")
    degrees, coeffs = zip(*((d, a) for d, a in spectrum.items() if d >= dmin))
    lens = np.array(degrees) // 2 + 1
    starts = np.cumsum(lens) - lens
    i = np.concatenate([np.arange((d + 1) // 2, d + 1) for d in degrees])
    d_minus_i = np.repeat(degrees, lens) - i
    log_fact = np.array([math.lgamma(k + 1) for k in range(degrees[-1] + 1)])
    log_c = log_fact[i + d_minus_i] - log_fact[i] - log_fact[d_minus_i]
    log_a = np.array([math.log(a) for a in coeffs])

    def bound(p: float) -> float:
        t = log_c + i * math.log(p) + d_minus_i * math.log1p(-p)
        mx = np.maximum.reduceat(t, starts)
        lt = log_a + (mx + np.log(np.add.reduceat(np.exp(t - np.repeat(mx, lens)), starts)))
        return math.fsum(np.exp(lt[lt > -745.0]))

    return bound


def union_bound_pb(spectrum: WeightSpectrum, p_c: float) -> float:
    """Spectrum-weighted union bound on the ML block-error probability.

    Sums A_d * P[Bin(d, p_c) >= ceil(d/2)] from the smallest nonzero-weight
    coefficient up to the spectrum's truncation weight.
    """
    if not 0.0 <= p_c <= 0.5:
        raise ValueError(f"p_c must be in [0, 0.5], got {p_c}")
    bound = _union_bound(spectrum)
    return bound(p_c) if p_c > 0.0 else 0.0


# solve_crossover stops when the bound is within this fraction of the target,
# or after this many bisection steps; it never returns less than the floor
CROSSOVER_REL_TOL = 1e-3
CROSSOVER_MAX_ITER = 200
CROSSOVER_FLOOR = 1e-9


def above_band(pb: float, target_pb: float) -> bool:
    """True when a bound value lies above solve_crossover's tolerance band.

    This is the comparison that moves the bisection's upper end down, so a
    caller that reasons about where the solve can land compares the same
    floats.
    """
    return pb - target_pb > CROSSOVER_REL_TOL * target_pb


def solve_crossover(spectrum: WeightSpectrum, target_pb: float) -> float:
    """Invert the union bound: the p_c at which the bound equals target_pb.

    Bisection on [CROSSOVER_FLOOR, 0.5]; the bound is strictly increasing in
    p_c.  Returns CROSSOVER_FLOOR when the bound there already reaches the
    target, and the lower end of the bracket if the band is never hit.
    """
    if target_pb <= 0.0:
        raise ValueError(f"target_pb must be positive, got {target_pb}")
    bound = _union_bound(spectrum)
    top = bound(0.5)
    if target_pb >= top * (1.0 - 1e-12):
        if target_pb <= top * (1.0 + 1e-9):
            return 0.5
        raise ValueError(
            f"target {target_pb} unreachable: bound at p=0.5 is {top}"
        )
    lo, hi = CROSSOVER_FLOOR, 0.5
    if bound(lo) >= target_pb:
        return lo
    for _ in range(CROSSOVER_MAX_ITER):
        mid = 0.5 * (lo + hi)
        val = bound(mid)
        if above_band(val, target_pb):
            hi = mid
        elif target_pb - val > CROSSOVER_REL_TOL * target_pb:
            lo = mid
        else:
            return mid
    return lo


def distortion_limit(p_c: float, p_A: float) -> float:
    """Largest quantizer distortion compatible with the design crossover:
    q_max = (p_c - p_A) / (1 - 2 p_A)."""
    if not 0.0 <= p_A < 0.5:
        raise ValueError(f"p_A must be in [0, 0.5), got {p_A}")
    if not p_A <= p_c <= 0.5:
        raise ValueError(f"need p_A <= p_c <= 0.5, got p_c={p_c}, p_A={p_A}")
    return (p_c - p_A) / (1.0 - 2.0 * p_A)


def gs_region_point(p_A: float, q: float) -> RateTuple:
    """Boundary point of the binary generated-secret region at quantizer
    crossover q: R_s = 1 - H_b(q*p_A), R_l = R_w = H_b(q*p_A) - H_b(q)."""
    if not 0.0 <= p_A <= 0.5 or not 0.0 <= q <= 0.5:
        raise ValueError(f"p_A and q must be in [0, 0.5], got {p_A}, {q}")
    h_mix = binary_entropy(star(q, p_A))
    h_q = binary_entropy(q)
    return RateTuple(R_s=1.0 - h_mix, R_l=h_mix - h_q, R_w=h_mix - h_q)


def key_storage_ratio(k_fec: int, k_vq: int) -> Fraction:
    """Key vs. storage rate ratio K_fec / (K_vq - K_fec), exact."""
    if k_fec < 1:
        raise ValueError(f"need K_fec >= 1, got {k_fec}")
    if k_vq <= k_fec:
        raise ValueError(f"need K_vq > K_fec, got K_vq={k_vq}, K_fec={k_fec}")
    return Fraction(k_fec, k_vq - k_fec)


def quantizer_rate_approx(n_block: int, q: float) -> float:
    """Finite-blocklength approximation of the rate needed for distortion q:
    1 - H_b(q) + log2(N)/(2N), the O(1/N) term dropped."""
    if n_block < 2:
        raise ValueError(f"need N >= 2, got {n_block}")
    if not 0.0 < q <= 0.5:
        raise ValueError(f"q must be in (0, 0.5], got {q}")
    return 1.0 - binary_entropy(q) + math.log2(n_block) / (2.0 * n_block)


def log2_ball_size(n_block: int, q: float) -> float:
    """log2 of sum_{j<=floor(Nq)} C(N,j), a Hamming ball summed in exact integers."""
    j_max = min(n_block, int(math.floor(n_block * q + 1e-9)))
    return math.log2(sum(math.comb(n_block, j) for j in range(j_max + 1)))


def quantizer_converse_feasible(n_block: int, r_q: float, q: float) -> bool:
    """Converse for vector quantization at blocklength N:
    feasible iff sum_{j<=floor(Nq)} C(N,j) >= 2^{N(1-R_q)} (exact integers)."""
    if n_block < 1:
        raise ValueError(f"need N >= 1, got {n_block}")
    if not 0.0 <= r_q <= 1.0 or not 0.0 <= q <= 1.0:
        raise ValueError(f"R_q and q must be in [0, 1], got {r_q}, {q}")
    exponent = n_block * (1.0 - r_q)
    if exponent <= 0.0:
        return True
    return log2_ball_size(n_block, q) >= exponent - 1e-12


@dataclass(frozen=True)
class ComplexityEstimate:
    """WAVA decoding-complexity proportionality values (no hardware constant).

    kind is the argmin among F (Forney trellis), P (precomputation),
    M (merged/minimal trellis).
    """

    kappa_f: int
    kappa_p: int
    kappa_m: int

    @property
    def kappa_min(self) -> int:
        return min(self.kappa_f, self.kappa_p, self.kappa_m)

    @property
    def kind(self) -> str:
        pairs = [("F", self.kappa_f), ("P", self.kappa_p), ("M", self.kappa_m)]
        return min(pairs, key=lambda kv: kv[1])[0]

    @property
    def log2_min(self) -> float:
        return math.log2(self.kappa_min)


def complexity_estimates(N: int, n: int, k: int, m: int, V: int) -> ComplexityEstimate:
    """WAVA complexity scalings for an (N, n, k, m) TBCC at V iterations.

    kappa_F = (n+V-1) (N/n) 2^{k+m};  kappa_P = (N/n)(V 2^{k+m} + 2^n);
    kappa_M = V N 2^{min(k, n-k) + m}.  Pass k=1 for the error-correction
    subcode column.
    """
    if min(N, n, k, m, V) < 1:
        raise ValueError(f"need N, n, k, m, V >= 1, got {N}, {n}, {k}, {m}, {V}")
    if k > n:
        raise ValueError(f"the trellis complexity model needs k <= n, got k={k} > n={n}")
    if N % n:
        raise ValueError(f"N={N} is not a multiple of n={n}")
    sections = N // n
    kf = (n + V - 1) * sections * (1 << (k + m))
    kp = sections * (V * (1 << (k + m)) + (1 << n))
    km = V * N * (1 << (min(k, n - k) + m))
    return ComplexityEstimate(kf, kp, km)


def pc_complexity(L: int, N: int) -> float:
    """List-decoding complexity scaling of a polar code: L * N * log2(N)."""
    if L < 1 or N < 2:
        raise ValueError(f"need L >= 1 and N >= 2, got L={L}, N={N}")
    return L * N * math.log2(N)
