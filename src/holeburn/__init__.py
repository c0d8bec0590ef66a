"""Slow light, storage, and retrieval in a spectral-hole-burning absorber.

The package models a weak gaussian pulse entering an inhomogeneously
broadened two-level medium whose absorption profile carries a narrow
spectral hole.  The pulse is slowed and spatially compressed inside the
hole, converted to a long-lived state by a pair of control pulses, and
later retrieved.  Modules:

``medium``
    Medium parameters, the Gaussian hole, and susceptibility models.
``propagation``
    Sampled envelopes and spectral-domain pulse propagation.
``storage``
    Storage schedules and the four retrieval routes (full quadrature,
    established-signal kernel, revival closed form, derivative series).
``oracle``
    Brute-force time-domain atom/field co-integration used for
    validation only.
``cli``
    Scenario runner emitting deterministic CSV/JSON data files.
"""

from .errors import ConfigurationError, DomainError, NumericsError
from .medium import (
    HoleProfile,
    MediumParams,
    absorption_coefficient,
    chi_exact_gaussian,
    chi_quadrature,
    chi_second_order,
    exact_gaussian_model,
    inverse_group_velocity,
    quadrature_model,
    second_order_model,
    slow_light_velocity,
)
from .propagation import (
    PulseSpec,
    SampledEnvelope,
    auto_grid,
    propagate,
    stretched_duration,
    transmitted_gaussian,
)
from .storage import (
    RetrievalResult,
    StorageSchedule,
    appendix_series_field,
    bandwidth_reduction_factor,
    default_schedule,
    efficiency,
    established_signal,
    kappa,
    kappa_finite_bandwidth,
    kappa_quadrature,
    restored_field_full,
    retrieve,
    revival_envelope,
)

__all__ = [
    "ConfigurationError",
    "DomainError",
    "NumericsError",
    "HoleProfile",
    "MediumParams",
    "absorption_coefficient",
    "chi_exact_gaussian",
    "chi_quadrature",
    "chi_second_order",
    "exact_gaussian_model",
    "inverse_group_velocity",
    "quadrature_model",
    "second_order_model",
    "slow_light_velocity",
    "PulseSpec",
    "SampledEnvelope",
    "auto_grid",
    "propagate",
    "stretched_duration",
    "transmitted_gaussian",
    "RetrievalResult",
    "StorageSchedule",
    "appendix_series_field",
    "bandwidth_reduction_factor",
    "default_schedule",
    "efficiency",
    "established_signal",
    "kappa",
    "kappa_finite_bandwidth",
    "kappa_quadrature",
    "restored_field_full",
    "retrieve",
    "revival_envelope",
]

__version__ = "0.1.0"
