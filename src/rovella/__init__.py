"""Simulation and verification toolkit for randomly perturbed contracting
Lorenz (Rovella) interval maps: random orbits with derivative cocycles,
hyperbolic-time machinery, random return partitions with tower axioms, and
Ulam-based quenched correlation estimates."""

__version__ = "0.1.0"

from .errors import (
    CapExceeded,
    DeltaTooLarge,
    DomainError,
    InsufficientData,
    InvalidState,
    ParamError,
    RovellaError,
    SingularHit,
    ValidationError,
)
from .map_core import (
    ConditionReport,
    CriticalNeighborhoods,
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
    config_for_family,
    fit_expansion_rate,
    hyperbolic_times,
    pliss_times,
    tail_statistics,
)
from .measures import (
    CorrelationSeries,
    UniformGrid,
    equivariant_density,
    fit_exponential,
    quenched_correlation,
    quenched_correlations,
    ulam_row_operator,
)
from .noise import NoiseStream, derive_seed, shift, stream
from .orbit import OrbitTrace, ensemble_orbits, iterate
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
