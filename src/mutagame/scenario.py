"""Scenario documents: strict YAML schema, validation, and scalar overrides.

The on-disk format is a nested YAML mapping versioned by ``schema_version``.
Unknown keys are rejected everywhere and every violation is reported at once
with its key path, so a failing ``validate`` run lists all problems.
"""

from __future__ import annotations

import copy
import math
import sys
from pathlib import Path
from typing import Any, Callable, Mapping

import yaml

from .discounting import InvestmentPlan, NoisePath
from .errors import ConfigurationError, ScenarioValidationError
from .game import StageGameSpec, StrategyKind, StrategyTag
from .protocol import ThetaProcess, TransitionKernel
from .simulate import MetaModelConfig, Miner, Scenario, _scenario_errors

SCHEMA_VERSION = 1

_REQUIRED = object()  # a schema default: the key must be present

# A schema kind is a scalar check, a table {key: (kind, default)}, a
# one-item list [kind] for "a non-empty list of these", or {str: kind} for a
# table with any string keys. A missing key takes its default, which is
# checked and filled like a value; a None default stands for an absent block.
# Value ranges are the constructors' business, not the schema's.


def _is_number(value: Any) -> bool:
    """A YAML int or float that a float can hold: not a bool, not an int past 1.8e308."""
    return isinstance(value, float) or (type(value) is int and abs(value) <= sys.float_info.max)


def _scalar(expected: str, test: Callable[[Any], bool], convert: Callable = lambda v: v):
    def check(value: Any, path: str, errors: list) -> Any:
        if test(value):
            return convert(value)
        errors.append((path, f"expected {expected}, got {value!r}"))
    return check


_INT = _scalar("an integer", lambda v: type(v) is int)
_BOOL = _scalar("a boolean", lambda v: isinstance(v, bool))
_TEXT = _scalar("a non-empty string", lambda v: isinstance(v, str) and v != "")
_NUMBER = _scalar("a number", _is_number)
_REAL = _scalar("a finite number", lambda v: _is_number(v) and math.isfinite(v), float)
_STRATEGIES = {tag.value: tag for tag in StrategyTag}


def _strategy(value: Any, path: str, errors: list) -> StrategyTag | None:
    if isinstance(value, str) and value in _STRATEGIES:
        return _STRATEGIES[value]
    errors.append((path, f"unknown strategy {value!r}; valid: {sorted(_STRATEGIES)}"))


_SCHEMA = {
    "schema_version": (_INT, _REQUIRED),
    "name": (_TEXT, None),
    "horizon": (_INT, _REQUIRED),
    "replica_count": (_INT, _REQUIRED),
    "master_seed": (_INT, _REQUIRED),
    "initial_state": (_INT, _REQUIRED),
    "trigger_on_mutation": (_BOOL, False),
    "spiral_threshold": (_REAL, 0.5),
    "post_mutation_value": (_REAL, 0.0),
    "miners": ([{
        "share": (_REAL, _REQUIRED),
        "strategy": (_strategy, _REQUIRED),
        "meta_budget": (_REAL, None),
        "preferred_state": (_INT, None),
    }], _REQUIRED),
    "game": ({
        "lottery_mode": (_BOOL, False),
        "states": ([{"id": (_INT, _REQUIRED), "label": (_TEXT, _REQUIRED)}], _REQUIRED),
        "payoffs": ({str: {str: [_NUMBER]}}, _REQUIRED),
    }, _REQUIRED),
    "kernel": ({"matrix": ([[_NUMBER]], _REQUIRED)}, _REQUIRED),
    "discount": ({"delta": (_REAL, _REQUIRED)}, _REQUIRED),
    "risk_aversion": ({"eta": (_REAL, _REQUIRED)}, {"eta": 0.0}),
    "noise": ({
        "baseline_rate": (_REAL, _REQUIRED),
        "segments": ([{"start": (_INT, _REQUIRED), "value": (_REAL, _REQUIRED)}], _REQUIRED),
    }, None),
    "theta": ({
        "mean": (_REAL, _REQUIRED),
        "variance": (_REAL, _REQUIRED),
        "clamp": (_BOOL, True),
    }, None),
    "meta": ({
        "enabled": (_BOOL, False),
        "influence_strength": (_REAL, 0.0),
        "contest_exponent": (_REAL, 1.0),
    }, {}),
    "investment": ({
        "upfront_cost": (_REAL, _REQUIRED),
        "expected_returns": ([_NUMBER], _REQUIRED),
    }, None),
}


def _walk(kind: Any, value: Any, path: str, errors: list) -> Any:
    """Check ``value`` against ``kind``, appending (path, message) per violation.

    Returns the value with defaults filled in; a part that fails its type
    check comes back as None.
    """
    if not isinstance(kind, (list, dict)):
        return kind(value, path, errors)
    if isinstance(kind, list):
        if not isinstance(value, list) or not value:
            got = "an empty list" if value == [] else type(value).__name__
            errors.append((path, f"expected a non-empty list, got {got}"))
            return None
        return [_walk(kind[0], item, f"{path}[{i}]", errors) for i, item in enumerate(value)]
    if not isinstance(value, dict):
        errors.append((path or "(document)", f"expected a mapping, got {type(value).__name__}"))
        return None
    prefix = f"{path}." if path else ""
    if str in kind:
        for key in value:
            if not isinstance(key, str):
                errors.append((f"{prefix}{key}", f"expected a string key, got {key!r}"))
        return {key: _walk(kind[str], item, prefix + key, errors)
                for key, item in value.items() if isinstance(key, str)}
    errors.extend((f"{prefix}{key}", "unknown key") for key in value if key not in kind)
    out = {}
    for key, (sub, default) in kind.items():
        if key in value:
            out[key] = _walk(sub, value[key], prefix + key, errors)
        elif default is _REQUIRED:
            errors.append((prefix + key, "required key missing"))
        else:
            out[key] = None if default is None else _walk(sub, default, prefix + key, errors)
    return out


def _within(path: str, outer: str) -> bool:
    return path == outer or path.startswith((f"{outer}.", f"{outer}["))


def _state_labels(states: list[dict]) -> list[str]:
    ids = [state["id"] for state in states]
    if ids != list(range(len(ids))):
        raise ConfigurationError(f"state ids must be sequential from 0, got {ids}")
    return [state["label"] for state in states]


def parse_document(
    doc: Any, overrides: Mapping[str, str] | None = None, name: str = "scenario"
) -> Scenario:
    """The Scenario of a parsed YAML document after dotted-path ``overrides``.

    Override values are parsed as YAML scalars, and a path must name an
    existing scalar; a component in digits indexes a list. The synthetic path
    ``kernel.epsilon`` rescales the whole kernel to the given per-state
    mutation rate. ``doc`` itself is never changed. One
    ScenarioValidationError lists every bad override, then every violation
    of the overridden document.
    """
    bad_overrides = []
    if overrides and isinstance(doc, dict):  # any other document fails the schema
        doc = copy.deepcopy(doc)
        for path, value in overrides.items():
            error = _override(doc, path, value)
            if error is not None:
                bad_overrides.append(f"override {path}: {error}")
    errors: list[tuple[str, str]] = []
    doc = _walk(_SCHEMA, doc, "", errors)

    def failure(*checks: str) -> ScenarioValidationError:
        return ScenarioValidationError(
            bad_overrides + [f"{path}: {message}" for path, message in errors] + list(checks))

    if doc is None:
        raise failure()

    def build(path: str, make: Callable[[], Any], at: str | None = None) -> Any:
        """``make()`` unless the document failed at, above or below ``path``;
        its ConfigurationError is recorded under ``at`` (default ``path``)."""
        if any(_within(bad, path) or _within(path, bad) for bad, _ in errors):
            return None
        try:
            return make()
        except ConfigurationError as exc:
            errors.append((at or path, str(exc)))

    if doc.get("schema_version") not in (None, SCHEMA_VERSION):
        errors.append(("schema_version", f"unsupported version {doc['schema_version']}, "
                                         f"expected {SCHEMA_VERSION}"))
    labels = build("game.states", lambda: _state_labels(doc["game"]["states"]))
    game = build("game", lambda: StageGameSpec.from_profile_maps(
        labels, doc["game"]["payoffs"], doc["game"]["lottery_mode"]), at="game.payoffs")
    kernel = build("kernel.matrix", lambda: TransitionKernel(doc["kernel"]["matrix"]))
    miners = None if doc.get("miners") is None else tuple(
        build(f"miners[{i}]", lambda m=m: Miner(
            m["share"], StrategyKind(m["strategy"], m["meta_budget"], m["preferred_state"])))
        for i, m in enumerate(doc["miners"])
    )
    noise = build("noise", lambda: doc["noise"] and NoisePath(
        doc["noise"]["baseline_rate"],
        tuple((segment["start"], segment["value"]) for segment in doc["noise"]["segments"])))
    theta = build("theta", lambda: doc["theta"] and ThetaProcess(**doc["theta"]))
    meta = build("meta", lambda: MetaModelConfig(**doc["meta"]))
    investment = build(
        "investment", lambda: doc["investment"] and InvestmentPlan(**doc["investment"]))
    fields = dict(
        miners=miners,
        game=game,
        kernel=kernel,
        initial_state=doc.get("initial_state"),
        horizon=doc.get("horizon"),
        delta=(doc.get("discount") or {}).get("delta"),
        risk_aversion=(doc.get("risk_aversion") or {}).get("eta"),
        meta=meta,
        replica_count=doc.get("replica_count"),
        master_seed=doc.get("master_seed"),
        trigger_on_mutation=doc.get("trigger_on_mutation"),
        noise=noise,
        theta=theta,
        spiral_threshold=doc.get("spiral_threshold"),
        post_mutation_value=doc.get("post_mutation_value"),
        investment=investment,
        name=doc.get("name") or name,
    )
    if bad_overrides or errors:
        # A part that failed above is None, and every check that reads it is skipped.
        raise failure(*_scenario_errors(**fields))
    return Scenario(**fields)


def load_document(path: str | Path) -> Any:
    """Read and parse the YAML document; I/O and parse errors propagate."""
    text = Path(path).read_text(encoding="utf-8")
    return _load_yaml(text)


def _load_yaml(text: str) -> Any:
    """``yaml.safe_load`` through libyaml's parser when PyYAML was built with
    it: same constructor and resolver, so the same objects, several times faster."""
    loader = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    return yaml.load(text, Loader=loader)


def load_scenario(path: str | Path, overrides: Mapping[str, str] | None = None) -> Scenario:
    """The scenario of a file after ``overrides``, as ``parse_document``
    makes it; the file stem names a document without a ``name``."""
    return parse_document(load_document(path), overrides, name=Path(path).stem)


def scale_kernel_epsilon(matrix: list[list[float]], epsilon: float) -> list[list[float]]:
    """Rebuild every kernel row with off-diagonal mass exactly ``epsilon``.

    Existing off-diagonal proportions are preserved; rows with no
    off-diagonal mass spread epsilon uniformly over the other states.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ConfigurationError(f"kernel.epsilon must lie in [0, 1], got {epsilon}")
    k = len(matrix)
    if k == 1 and epsilon > 0.0:
        raise ConfigurationError("kernel.epsilon > 0 impossible with a single state")
    scaled = []
    for p, row in enumerate(matrix):
        off_sum = sum(v for q, v in enumerate(row) if q != p)
        new_row = []
        for q, v in enumerate(row):
            if q == p:
                new_row.append(1.0 - epsilon)
            elif off_sum > 0.0:
                new_row.append(v * (epsilon / off_sum))
            else:
                new_row.append(epsilon / (k - 1))
        scaled.append(new_row)
    return scaled


def _override(doc: dict, raw_path: str, raw_value: str) -> str | None:
    """Set one override in ``doc`` in place; what is wrong with it, or None."""
    try:
        value = _load_yaml(raw_value)
    except yaml.YAMLError:
        return f"cannot parse value {raw_value!r}"
    if isinstance(value, (dict, list)):
        return "only scalar values are allowed"
    if raw_path == "kernel.epsilon":
        if not _is_number(value):
            return f"expected a number, got {raw_value!r}"
        kernel = doc.get("kernel")
        matrix = kernel.get("matrix") if isinstance(kernel, dict) else None
        if not isinstance(matrix, list):
            return "document has no kernel.matrix"
        if not all(isinstance(row, list) and all(map(_is_number, row)) for row in matrix):
            return None  # left as it is for parse_document to report
        try:
            kernel["matrix"] = scale_kernel_epsilon(matrix, float(value))
        except ConfigurationError as exc:
            return str(exc)
        return None
    *parents, leaf = raw_path.split(".")
    target = doc
    for part in parents:
        slot = _slot(target, part)
        if slot is None:
            return f"path component {part!r} not found"
        target = target[slot]
    slot = _slot(target, leaf)
    if slot is None:
        return f"key {leaf!r} not found"
    if isinstance(target[slot], (dict, list)):
        return "target is not a scalar"
    target[slot] = value
    return None


def _slot(container: Any, part: str) -> str | int | None:
    """Where ``part`` names an item of ``container``, its key in a mapping or
    its index in a list (written in decimal digits, as ``str`` writes it);
    else None."""
    if isinstance(container, dict):
        return part if part in container else None
    if isinstance(container, list) and part in map(str, range(len(container))):
        return int(part)
    return None
