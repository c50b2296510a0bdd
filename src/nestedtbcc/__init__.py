"""Nested tailbiting convolutional codes for key agreement with noisy
identifiers: encoder algebra, distance spectra, wrap-around Viterbi decoding,
randomized design search, the enroll/reconstruct pipeline, and analytic
bounds, plus a batch CLI (``nestedtbcc``)."""

from .bounds import (
    ComplexityEstimate,
    RateTuple,
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
from .design import (
    DesignFailure,
    design_nested,
    search_fec,
    search_vq_extension,
)
from .encoder import (
    EncoderSpec,
    EncoderSpecError,
    FreezingSchedule,
    TailbitingCode,
    append_input_columns,
    encode_many,
    encode_tailbiting,
    fec_restriction,
    load_code,
    save_code,
)
from .gf2 import (
    BitMatrix,
    BitVector,
    Gf2ShapeError,
    gf2_vec_mat,
    sample_uniform_matrix,
)
from .keyagree import (
    CsEnrollmentRecord,
    EnrollmentRecord,
    NestedCodePair,
    enroll,
    enroll_cs,
    load_pair,
    reconstruct,
    reconstruct_cs,
    save_pair,
)
from .simulate import (
    StopRule,
    TrialReport,
    calibrate_pc,
    evaluate,
    region_curve,
    simulate_distortion,
    simulate_end_to_end,
    simulate_fer,
)
from .trellis import (
    FreeDistanceReport,
    TailbitingTrellis,
    WeightSpectrum,
    build_trellis,
    free_distance,
    weight_enumerator,
)
from .wava import wava_decode_many

__version__ = "0.1.0"
