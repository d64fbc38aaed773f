"""Simulation of probe-circuit temporal correlators and the contextuality
inequalities they feed: the six-context square combination, the five-cycle
two-time combination, the ten-pair pentagon form, and the transformed
Bell-type form, plus numerical recovery of their classical, contextual,
temporal, and nonlocal extrema."""

from .bounds import (
    BoundResult,
    bell_operator,
    contextual_bound_kcbs,
    pentagon_scan,
    temporal_bound_kcbs,
    tsirelson_search_bell,
)
from .circuits import Circuit, GateOp, apply, embed
from .inequalities import (
    InequalityReport,
    Observable,
    eval_kcbs_temporal,
    eval_pentagon_lg,
    eval_pm,
    eval_transformed_bell,
    pentagram_observable,
    pm_square,
    sigma_theta,
)
from .noise import NoiseModel, apply_visibility, depolarize, fit_visibility
from .scattering import (
    TemporalCorrelationSpec,
    TimeSlot,
    build_scattering_circuit,
    correlator_direct,
    correlator_scattering,
    heisenberg_observable,
    parse_spec_document,
    probe_sigma_y,
    probe_sigma_z,
)
from .sequential import (
    OutcomeDistribution,
    correlator_sequential,
    joint_distribution,
    luders_measure,
)
from .states import (
    QuantumState,
    basis_state,
    bell_phi_plus,
    random_pure_state,
)

__version__ = "0.1.0"
