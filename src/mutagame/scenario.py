"""Scenario documents: strict YAML schema, validation, and scalar overrides.

The on-disk format is a nested YAML mapping versioned by ``schema_version``.
Unknown keys are rejected everywhere and every violation is reported at once
with its key path, so a failing ``validate`` run lists all problems.
"""

from __future__ import annotations

import copy
from pathlib import Path
from typing import Any, Mapping

import yaml

from .discounting import InvestmentPlan, NoisePath
from .errors import ConfigurationError, ScenarioValidationError
from .game import StageGameSpec, StrategyKind, StrategyTag
from .protocol import ThetaProcess, TransitionKernel
from .simulate import MetaModelConfig, Miner, Scenario

SCHEMA_VERSION = 1

_TOP_KEYS = {
    "schema_version", "name", "horizon", "replica_count", "master_seed",
    "initial_state", "trigger_on_mutation", "spiral_threshold",
    "post_mutation_value", "miners", "game", "kernel", "discount",
    "risk_aversion", "noise", "theta", "meta", "investment",
}
_REQUIRED_TOP_KEYS = {
    "schema_version", "horizon", "replica_count", "master_seed",
    "initial_state", "miners", "game", "kernel", "discount",
}
_MINER_KEYS = {"share", "strategy", "meta_budget", "preferred_state"}
_GAME_KEYS = {"lottery_mode", "states", "payoffs"}
_STATE_KEYS = {"id", "label"}
_KERNEL_KEYS = {"matrix"}
_DISCOUNT_KEYS = {"delta"}
_RISK_KEYS = {"eta"}
_NOISE_KEYS = {"baseline_rate", "segments"}
_SEGMENT_KEYS = {"start", "value"}
_THETA_KEYS = {"mean", "variance", "clamp"}
_META_KEYS = {"enabled", "influence_strength", "contest_exponent"}
_INVESTMENT_KEYS = {"upfront_cost", "expected_returns"}

_STRATEGY_NAMES = {tag.value: tag for tag in StrategyTag}


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class _Collector:
    def __init__(self) -> None:
        self.errors: list[str] = []

    def error(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def check_keys(self, path: str, mapping: Mapping, allowed: set[str]) -> None:
        for key in mapping:
            if key not in allowed:
                self.error(f"{path}.{key}" if path else str(key), "unknown key")

    def mapping(self, path: str, value: Any) -> dict | None:
        if not isinstance(value, dict):
            self.error(path, f"expected a mapping, got {type(value).__name__}")
            return None
        return value

    def integer(self, path: str, value: Any) -> int | None:
        if not _is_int(value):
            self.error(path, f"expected an integer, got {value!r}")
            return None
        return value

    def real(self, path: str, value: Any) -> float | None:
        if not _is_real(value):
            self.error(path, f"expected a number, got {value!r}")
            return None
        return float(value)

    def boolean(self, path: str, value: Any) -> bool | None:
        if not isinstance(value, bool):
            self.error(path, f"expected a boolean, got {value!r}")
            return None
        return value


def _parse_miners(col: _Collector, raw: Any) -> list[Miner] | None:
    if not isinstance(raw, list) or not raw:
        col.error("miners", "expected a non-empty list")
        return None
    miners: list[Miner] = []
    ok = True
    for i, entry in enumerate(raw):
        path = f"miners[{i}]"
        block = col.mapping(path, entry)
        if block is None:
            ok = False
            continue
        col.check_keys(path, block, _MINER_KEYS)
        if "share" not in block or "strategy" not in block:
            col.error(path, "share and strategy are required")
            ok = False
            continue
        share = col.real(f"{path}.share", block["share"])
        name = block["strategy"]
        tag = _STRATEGY_NAMES.get(name)
        if tag is None:
            col.error(
                f"{path}.strategy",
                f"unknown strategy {name!r}; valid: {sorted(_STRATEGY_NAMES)}",
            )
            ok = False
            continue
        meta_budget = None
        preferred = None
        if tag is StrategyTag.META_INVESTOR:
            if "meta_budget" not in block or "preferred_state" not in block:
                col.error(path, "MetaInvestor requires meta_budget and preferred_state")
                ok = False
                continue
            meta_budget = col.real(f"{path}.meta_budget", block["meta_budget"])
            preferred = col.integer(f"{path}.preferred_state", block["preferred_state"])
        else:
            for key in ("meta_budget", "preferred_state"):
                if key in block:
                    col.error(f"{path}.{key}", f"only valid for MetaInvestor, not {name}")
                    ok = False
        if share is None or (tag is StrategyTag.META_INVESTOR and (meta_budget is None or preferred is None)):
            ok = False
            continue
        try:
            strategy = StrategyKind(tag, meta_budget, preferred)
            miners.append(Miner(share=share, strategy=strategy))
        except ConfigurationError as exc:
            col.error(path, str(exc))
            ok = False
    return miners if ok else None


def _parse_game(col: _Collector, raw: Any) -> StageGameSpec | None:
    block = col.mapping("game", raw)
    if block is None:
        return None
    col.check_keys("game", block, _GAME_KEYS)
    lottery = False
    if "lottery_mode" in block:
        lottery = col.boolean("game.lottery_mode", block["lottery_mode"]) or False
    states_raw = block.get("states")
    if not isinstance(states_raw, list) or not states_raw:
        col.error("game.states", "expected a non-empty list of {id, label} entries")
        return None
    labels: list[str] = []
    for i, entry in enumerate(states_raw):
        path = f"game.states[{i}]"
        state_block = col.mapping(path, entry)
        if state_block is None:
            return None
        col.check_keys(path, state_block, _STATE_KEYS)
        state_id = col.integer(f"{path}.id", state_block.get("id"))
        label = state_block.get("label")
        if not isinstance(label, str) or not label:
            col.error(f"{path}.label", "expected a non-empty string")
            return None
        if state_id != i:
            col.error(f"{path}.id", f"expected sequential id {i}, got {state_id}")
            return None
        labels.append(label)
    payoffs_raw = col.mapping("game.payoffs", block.get("payoffs"))
    if payoffs_raw is None:
        return None
    for label, table in payoffs_raw.items():
        if col.mapping(f"game.payoffs.{label}", table) is None:
            return None
        for key, values in table.items():
            if not isinstance(values, list) or not all(_is_real(v) for v in values):
                col.error(
                    f"game.payoffs.{label}.{key}", "expected a list of numbers"
                )
                return None
    try:
        return StageGameSpec.from_profile_maps(labels, payoffs_raw, lottery_mode=lottery)
    except ConfigurationError as exc:
        col.error("game.payoffs", str(exc))
        return None


def _parse_kernel(col: _Collector, raw: Any) -> TransitionKernel | None:
    block = col.mapping("kernel", raw)
    if block is None:
        return None
    col.check_keys("kernel", block, _KERNEL_KEYS)
    matrix = block.get("matrix")
    if not isinstance(matrix, list) or not matrix:
        col.error("kernel.matrix", "expected a non-empty list of rows")
        return None
    for i, row in enumerate(matrix):
        if not isinstance(row, list) or not all(_is_real(v) for v in row):
            col.error(f"kernel.matrix[{i}]", "expected a list of numbers")
            return None
    try:
        return TransitionKernel(matrix)
    except ConfigurationError as exc:
        col.error("kernel.matrix", str(exc))
        return None


def _parse_noise(col: _Collector, raw: Any) -> NoisePath | None:
    block = col.mapping("noise", raw)
    if block is None:
        return None
    col.check_keys("noise", block, _NOISE_KEYS)
    rate = col.real("noise.baseline_rate", block.get("baseline_rate"))
    segments_raw = block.get("segments")
    if not isinstance(segments_raw, list) or not segments_raw:
        col.error("noise.segments", "expected a non-empty list of {start, value}")
        return None
    segments = []
    for i, entry in enumerate(segments_raw):
        path = f"noise.segments[{i}]"
        seg = col.mapping(path, entry)
        if seg is None:
            return None
        col.check_keys(path, seg, _SEGMENT_KEYS)
        start = col.integer(f"{path}.start", seg.get("start"))
        value = col.real(f"{path}.value", seg.get("value"))
        if start is None or value is None:
            return None
        segments.append((start, value))
    if rate is None:
        return None
    try:
        return NoisePath(baseline_rate=rate, segments=tuple(segments))
    except ConfigurationError as exc:
        col.error("noise", str(exc))
        return None


def parse_document(doc: Any, name: str = "scenario") -> Scenario:
    """Validate a parsed YAML document and assemble the Scenario.

    Raises ScenarioValidationError carrying every violation found.
    """
    col = _Collector()
    top = col.mapping("(document)", doc)
    if top is None:
        raise ScenarioValidationError(col.errors)
    col.check_keys("", top, _TOP_KEYS)
    for key in sorted(_REQUIRED_TOP_KEYS):
        if key not in top:
            col.error(key, "required key missing")
    if col.errors:
        raise ScenarioValidationError(col.errors)

    version = col.integer("schema_version", top["schema_version"])
    if version is not None and version != SCHEMA_VERSION:
        col.error("schema_version", f"unsupported version {version}, expected {SCHEMA_VERSION}")

    if "name" in top:
        if isinstance(top["name"], str) and top["name"]:
            name = top["name"]
        else:
            col.error("name", "expected a non-empty string")

    horizon = col.integer("horizon", top["horizon"])
    replica_count = col.integer("replica_count", top["replica_count"])
    master_seed = col.integer("master_seed", top["master_seed"])
    initial_state = col.integer("initial_state", top["initial_state"])
    trigger = False
    if "trigger_on_mutation" in top:
        trigger = col.boolean("trigger_on_mutation", top["trigger_on_mutation"]) or False
    spiral_threshold = 0.5
    if "spiral_threshold" in top:
        spiral_threshold = col.real("spiral_threshold", top["spiral_threshold"])
    post_mutation_value = 0.0
    if "post_mutation_value" in top:
        post_mutation_value = col.real("post_mutation_value", top["post_mutation_value"])

    discount_block = col.mapping("discount", top["discount"])
    delta = None
    if discount_block is not None:
        col.check_keys("discount", discount_block, _DISCOUNT_KEYS)
        delta = col.real("discount.delta", discount_block.get("delta"))

    eta = 0.0
    if "risk_aversion" in top:
        risk_block = col.mapping("risk_aversion", top["risk_aversion"])
        if risk_block is not None:
            col.check_keys("risk_aversion", risk_block, _RISK_KEYS)
            eta = col.real("risk_aversion.eta", risk_block.get("eta"))

    game = _parse_game(col, top["game"])
    kernel = _parse_kernel(col, top["kernel"])
    miners = _parse_miners(col, top["miners"])

    noise = None
    if "noise" in top:
        noise = _parse_noise(col, top["noise"])

    theta = None
    if "theta" in top:
        theta_block = col.mapping("theta", top["theta"])
        if theta_block is not None:
            col.check_keys("theta", theta_block, _THETA_KEYS)
            mean = col.real("theta.mean", theta_block.get("mean"))
            variance = col.real("theta.variance", theta_block.get("variance"))
            clamp = True
            if "clamp" in theta_block:
                clamp = col.boolean("theta.clamp", theta_block["clamp"])
            if mean is not None and variance is not None and clamp is not None:
                try:
                    theta = ThetaProcess(mean=mean, variance=variance, clamp=clamp)
                except ConfigurationError as exc:
                    col.error("theta", str(exc))

    meta = MetaModelConfig()
    if "meta" in top:
        meta_block = col.mapping("meta", top["meta"])
        if meta_block is not None:
            col.check_keys("meta", meta_block, _META_KEYS)
            enabled = meta_block.get("enabled", False)
            strength = meta_block.get("influence_strength", 0.0)
            exponent = meta_block.get("contest_exponent", 1.0)
            enabled_ok = col.boolean("meta.enabled", enabled)
            strength_ok = col.real("meta.influence_strength", strength)
            exponent_ok = col.real("meta.contest_exponent", exponent)
            if None not in (enabled_ok, strength_ok, exponent_ok):
                try:
                    meta = MetaModelConfig(
                        enabled=enabled_ok,
                        influence_strength=strength_ok,
                        contest_exponent=exponent_ok,
                    )
                except ConfigurationError as exc:
                    col.error("meta", str(exc))

    investment = None
    if "investment" in top:
        inv_block = col.mapping("investment", top["investment"])
        if inv_block is not None:
            col.check_keys("investment", inv_block, _INVESTMENT_KEYS)
            cost = col.real("investment.upfront_cost", inv_block.get("upfront_cost"))
            returns = inv_block.get("expected_returns")
            if not isinstance(returns, list) or not all(_is_real(v) for v in returns):
                col.error("investment.expected_returns", "expected a list of numbers")
            elif cost is not None:
                try:
                    investment = InvestmentPlan(
                        upfront_cost=cost, expected_returns=tuple(returns)
                    )
                except ConfigurationError as exc:
                    col.error("investment", str(exc))

    if col.errors or None in (horizon, replica_count, master_seed, initial_state, delta,
                              spiral_threshold, post_mutation_value, eta) \
            or game is None or kernel is None or miners is None:
        raise ScenarioValidationError(col.errors or ["invalid scenario document"])

    try:
        return Scenario(
            miners=tuple(miners),
            game=game,
            kernel=kernel,
            initial_state=initial_state,
            horizon=horizon,
            delta=delta,
            risk_aversion=eta,
            meta=meta,
            replica_count=replica_count,
            master_seed=master_seed,
            trigger_on_mutation=trigger,
            noise=noise,
            theta=theta,
            spiral_threshold=spiral_threshold,
            post_mutation_value=post_mutation_value,
            investment=investment,
            name=name,
        )
    except ScenarioValidationError as exc:
        col.errors.extend(exc.errors)
        raise ScenarioValidationError(col.errors) from None


def load_document(path: str | Path) -> Any:
    """Read and parse the YAML document; I/O and parse errors propagate."""
    text = Path(path).read_text(encoding="utf-8")
    return _load_yaml(text)


def _load_yaml(text: str) -> Any:
    """``yaml.safe_load`` through libyaml's parser when PyYAML was built with
    it: same constructor and resolver, so the same objects, several times faster."""
    loader = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    return yaml.load(text, Loader=loader)


def load_scenario(
    path: str | Path, overrides: Mapping[str, str] | None = None
) -> Scenario:
    doc = load_document(path)
    if overrides:
        doc = apply_overrides(doc, overrides)
    return parse_document(doc, name=Path(path).stem)


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


def apply_overrides(doc: Any, overrides: Mapping[str, str]) -> Any:
    """Apply dotted-path scalar overrides to a raw document.

    Values are parsed as YAML scalars. Paths must name an existing scalar;
    the synthetic path ``kernel.epsilon`` rescales the whole kernel to the
    given per-state mutation rate.
    """
    updated = copy.deepcopy(doc)
    if not isinstance(updated, dict):
        raise ScenarioValidationError(["(document): expected a mapping"])
    for raw_path, raw_value in overrides.items():
        try:
            value = _load_yaml(raw_value)
        except yaml.YAMLError:
            raise ScenarioValidationError(
                [f"override {raw_path}: cannot parse value {raw_value!r}"]
            ) from None
        if isinstance(value, (dict, list)):
            raise ScenarioValidationError(
                [f"override {raw_path}: only scalar values are allowed"]
            )
        if raw_path == "kernel.epsilon":
            if not _is_real(value):
                raise ScenarioValidationError(
                    [f"override {raw_path}: expected a number, got {raw_value!r}"]
                )
            kernel = updated.get("kernel")
            matrix = kernel.get("matrix") if isinstance(kernel, dict) else None
            if not isinstance(matrix, list):
                raise ScenarioValidationError(
                    ["override kernel.epsilon: document has no kernel.matrix"]
                )
            try:
                kernel["matrix"] = scale_kernel_epsilon(matrix, float(value))
            except ConfigurationError as exc:
                raise ScenarioValidationError([f"override kernel.epsilon: {exc}"]) from None
            continue
        parts = raw_path.split(".")
        target = updated
        for part in parts[:-1]:
            if isinstance(target, dict) and part in target:
                target = target[part]
            else:
                raise ScenarioValidationError(
                    [f"override {raw_path}: path component {part!r} not found"]
                )
        leaf = parts[-1]
        if not isinstance(target, dict) or leaf not in target:
            raise ScenarioValidationError(
                [f"override {raw_path}: key {leaf!r} not found"]
            )
        if isinstance(target[leaf], (dict, list)):
            raise ScenarioValidationError(
                [f"override {raw_path}: target is not a scalar"]
            )
        target[leaf] = value
    return updated
