"""rankmetric: exact tools for list decoding of rank-metric codes.

Modules: ff (finite fields), matfq (F_q linear algebra and subspaces),
linpoly (linearized polynomials), codes (Gabidulin / constant-dimension /
constant-rank constructions), bounds (exact bound calculators), witness
(adversarial lower-bound certificates), oracle (brute-force ground truth),
cli (command-line frontend).
"""

from .bounds import (
    CodeParams,
    anticode_bound,
    ball_volume,
    bound1_alt_lower,
    bound1_lower,
    bound2_iterated_johnson,
    bound2_upper,
    bound3_large_tau,
    bound3_lower,
    bound3_refined,
    compute_report,
    gaussian_binomial,
    johnson_radii,
    mrd_weight_tau,
    regions_table,
    singleton_max,
    sphere_volume,
)
from .codes import (
    ConstantDimensionCode,
    ConstantRankCode,
    GabidulinCode,
    crc_from_cdc_pair,
    crc_theorem8,
    lift,
    lift_untransposed_cdc,
    lifted_mrd_cdc,
    lifted_mrd_cdc_odd,
)
from .ff import Field, expand_to_matrix, make_field, vector_from_matrix
from .linpoly import LinearizedPoly, evaluate, min_subspace_poly, root_space, symbolic_product
from .matfq import (
    MatrixFq,
    Subspace,
    distance_sandwich_check,
    grassmannian_enumerate,
    rank,
    rank_decompose,
    rank_of_vector,
    subspace_distance,
)
from .oracle import ball_volume_bruteforce, list_codewords, list_to_crc, max_list_size
from .witness import (
    WitnessCertificate,
    bound1_alt_witness,
    bound1_witness,
    bound3_witness,
    verify_certificate,
)

__version__ = "0.1.0"
