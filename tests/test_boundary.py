"""The library's boundary: every public callable refuses a wrong-typed
argument with a documented error, and the inputs that the retired
hand-written guards refused are refused by kinds, in the kinds' one message
shape."""

import collections.abc
import dataclasses
import enum
import inspect
import sys
from pathlib import Path

import pytest
import yaml

import mutagame
from mutagame import (ConfigurationError, InvestmentPlan, NoisePath, NormalFormGame,
                      ScenarioValidationError, StageGameSpec, StrategyKind, StrategyTag,
                      ThetaProcess, TransitionKernel, kernel_entropy, parse_document,
                      validate_shares)
from mutagame.presets import MUTABLE_CORE
from mutagame.protocol import has_unique_stationary, row_entropies
from mutagame.scenario import load_document, scale_kernel_epsilon

PD_TABLE = {"CC": [3.0, 3.0], "CD": [0.0, 5.0], "DC": [5.0, 0.0], "DD": [1.0, 1.0]}
PD = NormalFormGame.from_profile_map(PD_TABLE)
DOC = {**yaml.safe_load(MUTABLE_CORE), "horizon": 5, "replica_count": 2}
KERNEL = TransitionKernel([[0.9, 0.1], [0.2, 0.8]])

# The records the library returns. It builds them from checked values and
# never reads one back, so they take what they are given.
RECORDS = {"BatchSummary", "BatchTrace", "CooperationCondition", "GrimThreshold",
           "KernelEntropy", "MutationRate"}
# Module-level helpers outside __all__ that take the same arguments.
HELPERS = {"row_entropies": row_entropies, "has_unique_stationary": has_unique_stationary,
           "load_document": load_document, "scale_kernel_epsilon": scale_kernel_epsilon}

# A valid value for each parameter, by name. A dataclass whose instance is
# among these values is called with that instance's fields instead, so its
# fields agree with each other (a Scenario's kernel covers its game's states).
VALID = {
    "kernel": KERNEL,
    "game": PD,
    "scenario": parse_document(DOC),
    "plan": InvestmentPlan(1.0, (0.6, 0.6)),
    "noise": NoisePath(0.05, ((0, 0.0), (3, 0.1))),
    "theta": ThetaProcess(1.0, 0.04),
    "strategy": StrategyKind(StrategyTag.HONEST),
    "delta": 0.9,
    "epsilon": 0.1,
    "stage_coop_payoff": 2.0,
    "per_period_return": 0.5,
    "upfront_cost": 1.0,
    "baseline_rate": 0.05,
    "payoffs": [3.0, 1.0],
    "horizon": 4,
    "doc": DOC,
    "master_seed": 3,
    "replica_index": 1,
    "shares": [0.25, 0.75],
    "share": 0.5,
    "matrix": [[1.0]],
    "payoff_tensor": PD.tensor,
    "state": "s0",
    "state_labels": ["s0"],
    "games": [PD],
    "profiles": PD_TABLE,
    "payoffs_by_state": {"s0": PD_TABLE},
}

# The wrong-typed values each parameter is given, each built afresh.
WRONG = {
    "object()": object,
    "None": lambda: None,
    "a nested list": lambda: [[1.0]],
    "text": lambda: "x",
    "an int": lambda: 5,
    "[]": list,
    "{}": dict,
}
# What each annotation names, item types aside; any other name is a class
# of the callable's own module.
ANNOTATIONS = {
    "Any": lambda v: True,
    "None": lambda v: v is None,
    "float": lambda v: type(v) in (int, float),
    "int": lambda v: type(v) is int,
    "bool": lambda v: type(v) is bool,
    "str": lambda v: isinstance(v, str),
    "Path": lambda v: isinstance(v, Path),
    "tuple": lambda v: isinstance(v, tuple),
    "Sequence": lambda v: isinstance(v, collections.abc.Sequence),
    "Iterable": lambda v: isinstance(v, collections.abc.Iterable),
    "Mapping": lambda v: isinstance(v, collections.abc.Mapping),
    # The unannotated array parameters (``matrix``, ``payoff_tensor``) nest lists.
    "": lambda v: isinstance(v, list),
}


def callables() -> dict:
    """Every public callable that takes arguments: the functions and the
    model classes of ``__all__`` with their public class methods, then HELPERS."""
    found = {}
    for name in mutagame.__all__:
        value = getattr(mutagame, name)
        if not callable(value) or name in RECORDS or isinstance(value, enum.EnumMeta) \
                or isinstance(value, type) and issubclass(value, BaseException):
            continue
        found[name] = value
        for attribute, method in vars(value).items() if isinstance(value, type) else ():
            if isinstance(method, classmethod) and not attribute.startswith("_"):
                found[f"{name}.{attribute}"] = getattr(value, attribute)
    return {**found, **HELPERS}


def baseline(call, **valid) -> dict:
    """A valid argument for each parameter of ``call``, from ``valid`` or VALID."""
    valid, parameters = {**VALID, **valid}, inspect.signature(call).parameters
    instance = next((v for v in valid.values() if type(v) is call), None)
    if dataclasses.is_dataclass(instance):
        return {name: getattr(instance, name) for name in parameters}
    return {name: valid[name] if name in valid else parameter.default
            for name, parameter in parameters.items()
            if name in valid or parameter.default is not parameter.empty}


def fits(value, annotation, call) -> bool:
    """Whether ``value`` is of a type that ``annotation`` (a string) names."""
    if annotation is inspect.Parameter.empty:
        annotation = ""
    module = sys.modules[call.__module__]
    return any(
        ANNOTATIONS[origin](value) if origin in ANNOTATIONS
        else isinstance(value, getattr(module, origin))
        for origin in (atom.split("[")[0].strip() for atom in annotation.split("|")))


@pytest.mark.parametrize("name", sorted(callables()))
def test_each_public_callable_refuses_a_wrong_typed_argument(name, tmp_path):
    # Each argument in turn is given each wrong-typed value while the others
    # stay valid. The call must refuse it with ConfigurationError, or with
    # ScenarioValidationError where a scenario lists every violation, or
    # FileNotFoundError for a path to no file; a value that is of the
    # annotated type (an int where a number is due) may also be taken.
    call, path = callables()[name], tmp_path / "mutable_core.yaml"
    path.write_text(MUTABLE_CORE, encoding="utf-8")
    arguments = baseline(call, path=path)
    call(**arguments)
    leaks = []
    for parameter in inspect.signature(call).parameters.values():
        for label, make in WRONG.items():
            value = make()
            try:
                call(**{**arguments, parameter.name: value})
            except (ConfigurationError, ScenarioValidationError, FileNotFoundError):
                continue
            except Exception as exc:  # the leak under test
                leaks.append(f"{parameter.name}={label}: {type(exc).__name__}: {exc}")
            else:
                if not fits(value, parameter.annotation, call):
                    leaks.append(f"{parameter.name}={label}: taken")
    assert leaks == []


# Each input a retired hand-written guard refused, and its refusal now.
RETIRED_GUARDS = {
    # The six emptiness guards, each retired into the non-empty sequence kind.
    "validate_shares": (lambda: validate_shares([]), "hash shares: must be non-empty, got []"),
    "StageGameSpec": (lambda: StageGameSpec([], []), "state labels: must be non-empty, got []"),
    "from_profile_map": (lambda: NormalFormGame.from_profile_map({}),
                         "profiles: must be non-empty, got {}"),
    "from_profile_map at a state": (lambda: NormalFormGame.from_profile_map({}, state="s0"),
                                    "state 's0': profiles: must be non-empty, got {}"),
    "InvestmentPlan": (lambda: InvestmentPlan(1.0, ()),
                       "expected returns: must be non-empty, got []"),
    "NoisePath": (lambda: NoisePath(0.1, ()), "noise segments: must be non-empty, got []"),
    "Scenario miners": (lambda: mutagame.Scenario(**{**vars(parse_document(DOC)), "miners": ()}),
                        "miners: must be non-empty, got ()"),
    # The four type guards, each retired into a kind.
    "StrategyKind tag": (lambda: StrategyKind("Honest"),
                         "strategy tag: expected a StrategyTag, one of ['ALWAYS_DEFECT', "
                         "'COLLUDE', 'GRIM_TRIGGER', 'HONEST', 'META_INVESTOR', "
                         "'MYOPIC_BEST_RESPONSE', 'TIT_FOR_TAT', 'WITHHOLD'], got 'Honest'"),
    "payoffs not a sequence": (lambda: NormalFormGame.from_profile_map({"C": 5, "D": 6}),
                               "profile 'C': expected a sequence, got 5"),
    "payoffs of a wrong length": (
        lambda: NormalFormGame.from_profile_map({**PD_TABLE, "DD": [1.0]}, state="s0"),
        "state 's0', profile 'DD': must be of length 2, got [1.0]"),
    "weighting": (lambda: kernel_entropy(KERNEL, "entropy"),
                  "weighting: must be 'uniform' or 'stationary', got 'entropy'"),
    # A numpy array raised ValueError from `in` up to 0.20.0.
    "weighting an array": (lambda: kernel_entropy(KERNEL, PD.tensor),
                           f"weighting: expected a non-empty string, got {PD.tensor!r}"),
    "override value": (lambda: parse_document(DOC, {"horizon": 5}),
                       "override horizon: expected a (dotted path, YAML text) pair, "
                       "got ('horizon', 5)"),
}


@pytest.mark.parametrize("case", RETIRED_GUARDS)
def test_each_retired_guard_refusal_is_a_kind_refusal(case):
    # A Scenario lists every violation in one ScenarioValidationError, as it did.
    call, message = RETIRED_GUARDS[case]
    refusal = ScenarioValidationError if case == "Scenario miners" else ConfigurationError
    with pytest.raises(refusal) as excinfo:
        call()
    assert str(excinfo.value) == message
