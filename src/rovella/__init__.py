"""Simulation and verification toolkit for randomly perturbed contracting
Lorenz (Rovella) interval maps: random orbits with derivative cocycles,
hyperbolic-time machinery, random return partitions with tower axioms, and
Ulam-based quenched correlation estimates."""

__version__ = "0.1.0"

from .errors import (
    BranchStraddle,
    CapExceeded,
    DeltaTooLarge,
    DomainError,
    EmptyIntersection,
    InsufficientData,
    InvalidState,
    NotHyperbolic,
    ParamError,
    RovellaError,
    SingularHit,
    ValidationError,
)
from .map_core import (
    ConditionReport,
    CriticalNeighborhoods,
    GridSpec,
    MapFamily,
    critical_neighborhoods,
    derivative,
    evaluate,
    fixture_family,
    schwarzian,
    second_derivative,
    verify_conditions,
)
from .hyperbolic import (
    HyperbolicConfig,
    HyperbolicReport,
    bad_set_membership,
    binding_period_check,
    config_for_family,
    fit_expansion_rate,
    hyperbolic_times,
    markov_neighborhood,
    pliss_times,
    preferred_binding_period,
    tail_statistics,
)
from .measures import (
    CorrelationSeries,
    DensityVector,
    UniformGrid,
    equivariant_density,
    fit_exponential,
    quenched_correlation,
    ulam_row_operator,
)
from .noise import NoiseStream, derive_seed, shift, stream
from .orbit import (
    BranchPartition,
    OrbitTrace,
    branch_partition,
    ensemble_orbits,
    expansion_sum,
    iterate,
    preimage_in_branch,
    return_depth,
)
from .tower import (
    PartitionCache,
    ReturnPartition,
    TowerState,
    build_return_partition,
    certify_axioms,
    sample_tower_orbits,
    tail_measure,
    tower_step,
    verify_markov,
)

__all__ = [name for name in dir() if not name.startswith("_")]
