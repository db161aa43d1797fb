"""Finite models of diagonal subhomogeneous algebra chains.

Matrix predicates and permutation-unitary paths, finite spectrum models
with diagonal gluing, tower models from substitution subshifts, and a
certified pipeline approximating non-invertible elements by invertibles.
"""

from .matrixkit import (
    DEFAULT_ATOL,
    PATH_ATOL,
    Permutation,
    as_matrix,
    diagonal_radius,
    has_block_point,
    has_zero_cross,
    is_strictly_lower_triangular,
    min_singular_value,
    op_norm,
    perm_matrix,
)
from .unitary_paths import (
    ThetaVector,
    TranspositionPathSpec,
    condense_path,
    eta_path,
    gather_multi,
    triangulate_check,
    u_transposition,
    v_n,
)
from .dsh_model import (
    DiagonalMap,
    Element,
    FiniteDshModel,
    Level,
    ModelPoint,
    PointRef,
    apply_diagonal_map,
    block_starts,
    build_indicator,
    check_simplicity_condition,
    compose_diagonal_maps,
    eval_element,
    norm_dist,
    soft_threshold,
    validate_model,
    witness_no_block_point,
)
from .dynamics import (
    Substitution,
    TowerModel,
    build_cylinder_chain,
    build_tower_model,
    embedding_map,
    eval_generator_f,
    eval_generator_ug,
    factorize_returns,
    fixed_point_prefix,
    return_words,
)
from .srone_pipeline import (
    PipelineCertificate,
    approximate_by_invertible,
    condense_crosses,
    find_singular_point,
    make_zero_cross,
    open_block_points,
    propagate_crosses,
    rordam_invert,
    triangulate,
)

__version__ = "0.1.0"
