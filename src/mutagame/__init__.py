"""mutagame: deterministic repeated mining-game simulation and analysis.

A seedable Monte Carlo engine for a repeated miner game whose payoff tables
are indexed by a protocol state evolving under a Markov transition kernel,
plus the analytic toolkit around it: pure Nash enumeration, grim-trigger
thresholds, mutation-adjusted cooperation conditions, endogenous
discounting, and NPV/breakeven valuation.
"""

from .discounting import (
    InvestmentPlan,
    NoisePath,
    ZERO_NOISE,
    breakeven_horizon,
    discounted_utility,
    endogenous_discount_path,
    npv,
)
from .equilibrium import (
    CooperationCondition,
    GrimThreshold,
    cooperation_condition,
    effective_coop_value,
    grim_cooperation_verdict,
    grim_trigger_threshold,
    mixed_nash_2x2,
    pure_nash,
)
from .errors import (
    CapacityError,
    ConfigurationError,
    MutagameError,
    ScenarioValidationError,
)
from .game import (
    NormalFormGame,
    StageGameSpec,
    StrategyKind,
    StrategyTag,
    validate_shares,
)
from .protocol import (
    KernelEntropy,
    MutationRate,
    ThetaProcess,
    TransitionKernel,
    integrity,
    kernel_entropy,
    mutation_rate,
    stationary_distribution,
)
from .scenario import MetaModelConfig, Miner, Scenario, load_scenario, parse_document
from .simulate import (
    BatchSummary,
    BatchTrace,
    kernel_as_run,
    replica_rng,
    run_batch,
    run_replica,
)

__version__ = "0.7.0"

__all__ = [
    "BatchSummary",
    "BatchTrace",
    "CapacityError",
    "ConfigurationError",
    "CooperationCondition",
    "GrimThreshold",
    "InvestmentPlan",
    "KernelEntropy",
    "MetaModelConfig",
    "Miner",
    "MutagameError",
    "MutationRate",
    "NoisePath",
    "NormalFormGame",
    "Scenario",
    "ScenarioValidationError",
    "StageGameSpec",
    "StrategyKind",
    "StrategyTag",
    "ThetaProcess",
    "TransitionKernel",
    "ZERO_NOISE",
    "breakeven_horizon",
    "cooperation_condition",
    "discounted_utility",
    "effective_coop_value",
    "endogenous_discount_path",
    "grim_cooperation_verdict",
    "grim_trigger_threshold",
    "integrity",
    "kernel_as_run",
    "kernel_entropy",
    "load_scenario",
    "mixed_nash_2x2",
    "mutation_rate",
    "npv",
    "parse_document",
    "pure_nash",
    "replica_rng",
    "run_batch",
    "run_replica",
    "stationary_distribution",
    "validate_shares",
]
