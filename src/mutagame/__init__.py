"""mutagame: deterministic repeated mining-game simulation and analysis.

A seedable Monte Carlo engine for a repeated miner game whose payoff tables
are indexed by a protocol state evolving under a Markov transition kernel,
plus the analytic toolkit around it: pure Nash enumeration, grim-trigger
thresholds, mutation-adjusted cooperation conditions, endogenous
discounting, and NPV/breakeven valuation.

Each public name is imported from its module on first use (PEP 562), so
``import mutagame`` loads no numpy, and neither does ``load_scenario``: the
scenario model checks plain Python values, and only the engine and the
analytic side read arrays.
"""

from importlib import import_module

__version__ = "0.21.0"

# Every public name, by the module that defines it.
_HOMES = {
    name: module
    for module, names in (
        ("discounting", "InvestmentPlan NoisePath ZERO_NOISE breakeven_horizon "
                        "discounted_utility endogenous_discount_path npv"),
        ("equilibrium", "CooperationCondition GrimThreshold effective_coop_value "
                        "grim_cooperation_verdict grim_trigger_threshold mixed_nash_2x2 pure_nash"),
        ("errors", "CapacityError ConfigurationError MutagameError ScenarioValidationError"),
        ("game", "NormalFormGame StageGameSpec StrategyKind StrategyTag validate_shares"),
        ("protocol", "KernelEntropy MutationRate ThetaProcess TransitionKernel integrity "
                     "kernel_entropy mutation_rate stationary_distribution"),
        ("scenario", "MetaModelConfig Miner Scenario kernel_as_run load_scenario parse_document"),
        ("simulate", "BatchSummary BatchTrace replica_rng run_batch run_replica"),
    )
    for name in names.split()
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    """A public name, imported from its module on first use and then kept here."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
