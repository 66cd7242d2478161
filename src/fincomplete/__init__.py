"""Exact decision procedures for the structure of finite statistical
models: completeness, sufficiency, ancillarity, optimal unbiased
estimation, theorem verifiers, a counterexample registry, and a seeded
random search.
"""

from .checks import (
    are_independent,
    basu_consistency,
    is_ancillary,
    is_boundedly_complete,
    is_complete,
    is_complete_sufficient,
    is_homogeneous,
    is_minimal_sufficient,
    is_sufficient,
    minimal_sufficient_partition,
)
from .errors import (
    EngineError,
    ExhaustionError,
    GenerationError,
    GridError,
    InputError,
    NotSufficientError,
    SizeGuardError,
    StabilityError,
    WeightError,
)
from .model import (
    FiniteModel,
    Partition,
    RationalFunction,
    SubmodelRef,
    conditional_expectation,
    coordinate_partitions,
    downray_events,
    interval_events,
    join,
    max_partition,
    meet,
    min_max_partition,
    min_partition,
    parse_submodel,
    partition_from_statistic,
    power_model,
    product_model,
    support_union,
    truncated_family,
    upray_events,
    validate_model,
    weighted_model,
)
from .optimal import (
    Estimand,
    UmvueResult,
    UnbiasedClass,
    covariance_criterion,
    exists_complete_sufficient,
    is_optimal_unbiased,
    meet_of_optimal_sigmas,
    optimal_sigma_algebra,
    rao_blackwell,
    umvue,
    unbiased_class,
    zero_unbiased_basis,
)
from .registry import REGISTRY_IDS, RegistryEntry, load, replay, replay_all
from .reports import CheckReport, TheoremReport
from .search import FoundInstance, GenConfig, MainInstance, gen_main_instance, gen_main_instances, hunt, random_model
from .verify import (
    Exhaustion,
    verify_bondesson,
    verify_cks,
    verify_cks_rewrite,
    verify_homogeneous_connected,
    verify_joint_completeness,
    verify_smith,
    verify_truncation_family,
    verify_two_block_grid,
    verify_unknown_truncation,
)

__version__ = "0.1.0"
