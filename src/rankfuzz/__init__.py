"""Rank-metric fuzzy authentication toolkit.

Finite extension fields with canonical moduli, twisted linearized
polynomials, rank-metric evaluation codes with a reconstruction
decoder, noise-tolerant commitments and key vaults keyed by independent
feature elements, and a seeded experiment harness that checks the
distance and probability guarantees the constructions rest on.
"""

from .errors import (
    BadDimensions,
    BadDistance,
    BadRange,
    BadTwist,
    ClaimViolation,
    DecodingFailure,
    DegreeOutOfRange,
    DependentFeatures,
    DependentPoints,
    DependentRestriction,
    DimensionMismatch,
    DivisionByZero,
    DivisionByZeroPoly,
    DuplicateFeatures,
    InfeasibleShape,
    LengthMismatch,
    MalformedRecord,
    MismatchedField,
    NonPrimeQ,
    ParamMismatch,
    RankfuzzError,
    TooLarge,
    TwistMismatch,
)
from .fields import (
    ExtField,
    canonical_modulus,
    element_rank,
    ext_field,
    find_normal_element,
    is_independent,
    is_prime,
    modulus_string,
    rank_distance,
)
from .linpoly import LinearizedPoly, interpolate, moore_matrix
from .gabidulin import (
    GabidulinCode,
    min_distance_exhaustive,
    random_rank_error,
    singleton_bound,
)
from .commitment import (
    Commitment,
    VerifyResult,
    code_from_commitment,
    codeword_digest,
    commit,
    load_commitment,
    save_commitment,
    verify,
)
from .vault import (
    FeatureSet,
    UnlockResult,
    Vault,
    VaultParams,
    load_vault,
    lock,
    save_vault,
    unlock,
)
from .analysis import (
    SubspaceMap,
    SweepReport,
    TrialReport,
    independence_probability,
    load_report,
    mc_decode_roundtrip,
    mc_independence,
    mc_overlap_tightness,
    mc_scheme_tightness,
    mc_subspace_tightness,
    merge_reports,
    overlap_tightness_probability,
    restricted_rank,
    sample_feature_set,
    sample_witness_overlap,
    sample_witness_shaped,
    save_report,
    set_difference,
    subspace_distance,
    subspace_intersection,
    subspace_tightness_probability,
    sweep_basic_tightness,
    sweep_generalized_tightness,
    trial_rng,
    witness_map,
    witness_map_completed,
)

__version__ = "0.1.0"
