"""Exact identification codes for q-ary uniform permutation channels."""

from .combinatorics import (
    TypeVector,
    check_N_bounds,
    count_types,
    index_to_tuple,
    iter_types,
    tuple_to_index,
    type_index,
    type_of,
    type_representative,
    type_unrank,
    typeclass_size,
    vector_rank,
    vector_unrank,
)
from .dist import Dist, tv_distance
from .errors import (
    BoundViolationError,
    BudgetError,
    HypothesisError,
    PermidError,
    ValidationError,
)
from .idcode import (
    AchievableBuild,
    AchievableParams,
    ErrorReport,
    MCReport,
    NoiselessIdCode,
    PermIdCode,
    acceptance_matrix,
    achievable_params,
    build_multishot_achievable,
    check_strong_converse,
    eval_noiseless,
    eval_perm_exact,
    eval_perm_mc,
    full_orbit_counts,
    min_feasible_n,
    strong_converse_floor,
)
from .approx import (
    ApproxMap,
    PigeonholeReport,
    approx_distance,
    build_approx,
    count_resolution_types,
    pigeonhole_collision_check,
)
from .feedback import (
    CollisionReport,
    FeedbackCode,
    RetryResult,
    build_feedback_code,
    build_until_target,
    eval_feedback_exact,
    eval_feedback_mc,
    feedback_counting_converse,
    max_typeclass,
    target_test,
)
from .rng import Stream
from .setsystem import (
    GreedyResult,
    IntersectionProfile,
    SetSystem,
    complement_system,
    existence_floor,
    existence_hypothesis,
    greedy_gilbert,
    grow_family,
    h2,
    h2_inv,
    johnson_bound_M,
    lemma6_check,
    prop2_lower_bound,
    verify_profile,
)
from .transforms import (
    PipelineReport,
    decoder_equals_support,
    equal_size_supports,
    gamma_for_rate,
    perm_to_noiseless,
    soft_converse_pipeline,
    stoch_to_det_decoders,
    to_uniform_encoders,
)

__version__ = "0.1.0"
