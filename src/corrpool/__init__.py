"""Monte-Carlo toolkit for pooled PCR testing under household-correlated infections.

The package simulates two-stage (Dorfman) pooled testing of a household-structured
population, compares random ("naive") pool assignment against household-aware
("correlated") assignment, and provides the supporting numerics: a Gaussian-mixture
viral-load model, a binomial-subsampling PCR model with threshold calibration,
the closed-form size-2 counterexample, a follow-up-cost bound estimator, and an
SIR screening-policy layer.
"""

from .errors import ConfigError, InfeasibleScenarioError
from .viral import GmmParams, DEFAULT_GMM
from .pcr import (
    RealisticSensitivity,
    StepSensitivity,
    PiecewiseSensitivity,
    calibrate_tau,
)
from .population import HouseholdDist, HOUSEHOLD_DISTS, Population, generate_population
from .pooling import PoolingAssignment, assign_naive, assign_correlated
from .dorfman import ProtocolOutcome, run_dorfman
from .metrics import summarize_replications, estimate_fpr
from .theory import (
    CounterexampleResult,
    counterexample_closed_form,
    DeltaPrimeEstimate,
    estimate_delta_prime,
)
from .sir import (
    SirState,
    sir_step,
    critical_frequency,
    PolicyResult,
    optimize_pool_size,
    consumption_reduction,
)
from .runner import ScenarioConfig, run_scenario, run_sweep

__all__ = [
    "ConfigError",
    "InfeasibleScenarioError",
    "GmmParams",
    "DEFAULT_GMM",
    "RealisticSensitivity",
    "StepSensitivity",
    "PiecewiseSensitivity",
    "calibrate_tau",
    "HouseholdDist",
    "HOUSEHOLD_DISTS",
    "Population",
    "generate_population",
    "PoolingAssignment",
    "assign_naive",
    "assign_correlated",
    "ProtocolOutcome",
    "run_dorfman",
    "summarize_replications",
    "estimate_fpr",
    "CounterexampleResult",
    "counterexample_closed_form",
    "DeltaPrimeEstimate",
    "estimate_delta_prime",
    "SirState",
    "sir_step",
    "critical_frequency",
    "PolicyResult",
    "optimize_pool_size",
    "consumption_reduction",
    "ScenarioConfig",
    "run_scenario",
    "run_sweep",
]

__version__ = "0.1.0"
