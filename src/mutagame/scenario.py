"""Scenarios: the model, its checks, and the strict YAML documents that describe it.

``Scenario``, ``Miner`` and ``MetaModelConfig`` are the validated model the
engine and the analytic side read; every scenario-level check runs when
one is built. ``kernel_as_run`` is the kernel both of them read: the
scenario's, with the meta contest blended in. The on-disk format is a nested YAML mapping versioned by
``schema_version``. Unknown keys are rejected everywhere and every
violation is reported at once with its key path, so a failing ``validate``
run lists all problems. A key the document leaves out takes the default
its constructor declares.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from os import PathLike
from pathlib import Path
from typing import Any, Callable

import yaml

from .discounting import InvestmentPlan, NoisePath
from .errors import ConfigurationError, ScenarioValidationError
from .game import StageGameSpec, StrategyKind, StrategyTag, validate_shares
from .protocol import (_BOOL, _COUNT, _INDEX, _INT, _NONNEGATIVE, _NUMBER, _OPEN_UNIT,
                       _POSITIVE, _REAL, _TEXT, _UNIT, ThetaProcess, TransitionKernel, _instance,
                       _kind, _range, _sum)


@dataclass(frozen=True)
class MetaModelConfig:
    """Second-tier contest over the kernel row.

    ``influence_strength`` (beta) bounds the per-round shift of the kernel
    row; it must stay within [0, 1] so blended rows remain stochastic.
    ``contest_exponent`` is the Tullock exponent applied to hash-weighted
    budgets relative to the largest; ``kernel_as_run`` runs the contest.
    """

    enabled: bool = False
    influence_strength: float = 0.0
    contest_exponent: float = 1.0

    def __post_init__(self) -> None:
        _BOOL(self.enabled, "enabled")
        _UNIT(self.influence_strength, "influence_strength")
        _POSITIVE(self.contest_exponent, "contest_exponent")


@dataclass(frozen=True)
class Miner:
    share: float
    strategy: StrategyKind

    def __post_init__(self) -> None:
        _UNIT(self.share, "miner share")
        _instance(StrategyKind)(self.strategy, "miner strategy")


def _scenario_errors(
    *, miners=None, game=None, kernel=None, initial_state=None, investment=None, **_unchecked
) -> list[str]:
    """Every violation of a rule across a Scenario's fields, one ``path:
    message`` line each; a field's own type, range and length are its kind's. A
    check is skipped where a value it reads is None or not given:
    ``parse_document`` passes None for each part of a document that failed,
    and ``Scenario`` for each field its kind refuses, and each reports that
    failure itself; ``parse_document`` leaves out each key the document
    leaves out."""

    def known(*fields) -> bool:
        return all(field is not None for field in fields)

    errors: list[str] = []
    if known(miners) and known(*miners):
        try:
            validate_shares([m.share for m in miners])
        except ConfigurationError as exc:
            errors.append(f"miners: {exc}")
    if known(game, miners) and game.n != len(miners):
        errors.append(f"game: payoff tables cover {game.n} miners but scenario has {len(miners)}")
    if known(kernel, game) and kernel.size != len(game):
        errors.append(f"kernel: {kernel.size} states but game defines {len(game)}")
    if known(kernel, initial_state) and not 0 <= initial_state < kernel.size:
        errors.append(f"initial_state: {initial_state} out of range [0, {kernel.size})")
    for i, miner in enumerate(miners if known(kernel, miners) else ()):
        preferred = None if miner is None else miner.strategy.preferred_state
        if known(preferred) and preferred >= kernel.size:
            errors.append(
                f"miners[{i}]: preferred_state {preferred} out of range [0, {kernel.size})"
            )
    if investment is not None and not investment.expected_returns[0] > 0.0:
        errors.append(
            "investment.expected_returns[0]: per-period return must be positive, "
            f"got {investment.expected_returns[0]}"
        )
    return errors


@dataclass(frozen=True)
class Scenario:
    """Complete experiment description; immutable and validated on construction."""

    miners: tuple[Miner, ...]
    game: StageGameSpec
    kernel: TransitionKernel
    initial_state: int
    horizon: int
    delta: float
    risk_aversion: float = 0.0
    meta: MetaModelConfig = MetaModelConfig()
    replica_count: int = 1
    master_seed: int = 0
    trigger_on_mutation: bool = False
    noise: NoisePath | None = None
    theta: ThetaProcess | None = None
    spiral_threshold: float = 0.5
    post_mutation_value: float = 0.0
    investment: InvestmentPlan | None = None
    name: str = "scenario"

    def __post_init__(self) -> None:
        # Each field is checked by its kind as the schema checks a document,
        # then the rules across fields; a field its kind refuses is None to those.
        fields, errors = dict(vars(self)), []
        for name, value in vars(self).items():
            try:
                if value is not None:
                    _FIELD_KINDS[name](value, name)
                elif name not in ("noise", "theta", "investment"):
                    raise ConfigurationError(f"{name}: required")
            except ConfigurationError as exc:
                fields[name] = None
                errors.append(str(exc))
        errors += _scenario_errors(**fields)
        if errors:
            raise ScenarioValidationError(errors)

    @property
    def n(self) -> int:
        return len(self.miners)


def _contest_power(x: float, exponent: float) -> float:
    """``x ** exponent`` in decimal software arithmetic at 40 digits, so the
    same bits on every CPU, unlike numpy's dispatched and libm's ``pow``.
    At exponent 1, where decimal gives ``x`` exactly, ``x`` without loading it."""
    if exponent == 1.0:
        return x
    from decimal import Context, Decimal

    return float(Context(prec=40).power(Decimal(x), Decimal(exponent)))


def kernel_as_run(scenario: Scenario) -> TransitionKernel:
    """The kernel the engine steps: every row of ``scenario.kernel`` blended
    toward the outcome of the MetaInvestors' Tullock contest.

    A MetaInvestor's effort is its hash share times its budget, summed per
    preferred state. Contest weights are the efforts relative to the
    largest, raised to the contest exponent and normalized (summed left to
    right). The blend coefficient is beta times the total effort (capped
    at 1), so each row stays a convex combination of two distributions.
    MetaInvestors always cooperate with fixed budgets, so the blend is the
    same every round. With the meta game off, beta 0 or no effort spent,
    this is ``scenario.kernel``.
    """
    _instance(Scenario)(scenario, "scenario")
    meta, kernel, k = scenario.meta, scenario.kernel, scenario.kernel.size
    efforts, total = [0.0] * k, 0.0
    for miner in scenario.miners:
        if miner.strategy.tag is StrategyTag.META_INVESTOR:
            effort = miner.share * miner.strategy.meta_budget
            efforts[miner.strategy.preferred_state] += effort
            total += effort
    if not meta.enabled or meta.influence_strength == 0.0 or total <= 0.0:
        return kernel
    top = max(efforts)
    weights = [_contest_power(effort / top, meta.contest_exponent) for effort in efforts]
    weight_sum = _sum(weights)
    lam = min(meta.influence_strength * min(total, 1.0), 1.0)
    return TransitionKernel([
        [(1.0 - lam) * entry + lam * (weight / weight_sum)
         for entry, weight in zip(kernel._entries[p * k:(p + 1) * k], weights)]
        for p in range(k)
    ])


SCHEMA_VERSION = 1

# A schema kind is a scalar check ``kind(value, path)`` (the model's, from
# ``protocol``, which states the value's type and range), a table {key:
# (kind, required)}, a one-item list [kind] for "a non-empty list of these",
# or {str: kind} for a table with any string keys. An optional key that is
# absent is left out, so the constructor it feeds supplies its default. The
# constructors apply the same kinds; rules across values are theirs alone.
_REQUIRED, _OPTIONAL = True, False
_STRATEGIES = {tag.value: tag for tag in StrategyTag}

# The kind of each Scenario field, which a Scenario built in Python must meet
# as the schema makes a document meet it.
_FIELD_KINDS = {
    "miners": _range(_kind("a sequence of Miner", lambda v: isinstance(v, Sequence)
                           and all(isinstance(miner, Miner) for miner in v)), "non-empty", bool),
    "game": _instance(StageGameSpec),
    "kernel": _instance(TransitionKernel),
    "meta": _instance(MetaModelConfig),
    "noise": _instance(NoisePath),
    "theta": _instance(ThetaProcess),
    "investment": _instance(InvestmentPlan, "an"),
    "initial_state": _INT,
    **dict.fromkeys(("horizon", "replica_count"), _COUNT),
    "master_seed": _INDEX,
    **dict.fromkeys(("delta", "spiral_threshold"), _OPEN_UNIT),
    "risk_aversion": _NONNEGATIVE,
    "post_mutation_value": _REAL,
    "trigger_on_mutation": _BOOL,
    "name": _TEXT,
}


def _strategy(value: Any, path: str) -> StrategyTag:
    if isinstance(value, str) and value in _STRATEGIES:
        return _STRATEGIES[value]
    raise ConfigurationError(f"{path}: unknown strategy {value!r}; valid: {sorted(_STRATEGIES)}")


_SCHEMA = {
    "schema_version": (_INT, _REQUIRED),
    "name": (_TEXT, _OPTIONAL),
    "horizon": (_COUNT, _REQUIRED),
    "replica_count": (_COUNT, _REQUIRED),
    "master_seed": (_INDEX, _REQUIRED),
    "initial_state": (_INT, _REQUIRED),
    "trigger_on_mutation": (_BOOL, _OPTIONAL),
    "spiral_threshold": (_OPEN_UNIT, _OPTIONAL),
    "post_mutation_value": (_REAL, _OPTIONAL),
    "miners": ([{
        "share": (_UNIT, _REQUIRED),
        "strategy": (_strategy, _REQUIRED),
        "meta_budget": (_UNIT, _OPTIONAL),
        "preferred_state": (_INDEX, _OPTIONAL),
    }], _REQUIRED),
    "game": ({
        "lottery_mode": (_BOOL, _OPTIONAL),
        "states": ([{"id": (_INT, _REQUIRED), "label": (_TEXT, _REQUIRED)}], _REQUIRED),
        "payoffs": ({str: {str: [_NUMBER]}}, _REQUIRED),
    }, _REQUIRED),
    "kernel": ({"matrix": ([[_NUMBER]], _REQUIRED)}, _REQUIRED),
    "discount": ({"delta": (_OPEN_UNIT, _REQUIRED)}, _REQUIRED),
    "risk_aversion": ({"eta": (_NONNEGATIVE, _REQUIRED)}, _OPTIONAL),
    "noise": ({
        "baseline_rate": (_NONNEGATIVE, _REQUIRED),
        "segments": ([{"start": (_INT, _REQUIRED), "value": (_NONNEGATIVE, _REQUIRED)}],
                     _REQUIRED),
    }, _OPTIONAL),
    "theta": ({
        "mean": (_REAL, _REQUIRED),
        "variance": (_NONNEGATIVE, _REQUIRED),
        "clamp": (_BOOL, _OPTIONAL),
    }, _OPTIONAL),
    "meta": ({
        "enabled": (_BOOL, _OPTIONAL),
        "influence_strength": (_UNIT, _OPTIONAL),
        "contest_exponent": (_POSITIVE, _OPTIONAL),
    }, _OPTIONAL),
    "investment": ({
        "upfront_cost": (_NONNEGATIVE, _REQUIRED),
        "expected_returns": ([_REAL], _REQUIRED),
    }, _OPTIONAL),
}


def _walk(kind: Any, value: Any, path: str, errors: list) -> Any:
    """Check ``value`` against ``kind``, appending (path, message) per violation.

    Returns the value with every absent optional key left out; a part that
    fails its type check comes back as None.
    """
    if not isinstance(kind, (list, dict)):
        try:
            return kind(value, path)
        except ConfigurationError as exc:  # "<path>: expected ..." or "<path>: must be ..."
            errors.append((path, str(exc).removeprefix(f"{path}: ") + _spelling_hint(kind, value)))
            return None
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
    for key, (sub, required) in kind.items():
        if key in value:
            out[key] = _walk(sub, value[key], prefix + key, errors)
        elif required:
            errors.append((prefix + key, "required key missing"))
    return out


def _spelling_hint(kind: Callable, value: Any) -> str:
    """Why ``kind`` refused text that spells a number it takes. YAML 1.1 reads
    a number in exponent form only with a dot in its mantissa and a sign in
    its exponent, so ``9e-1`` is text; text that spells a finite number
    ``kind`` accepts is told so, with a spelling that YAML reads as that
    number. Any other value gets ""."""
    text = isinstance(value, str) and yaml.resolver.Resolver().resolve(
        yaml.ScalarNode, value, (True, False)) == "tag:yaml.org,2002:str"
    try:
        number = kind(float(value), "") if text else math.nan
    except (ValueError, ConfigurationError):  # not a number, or not one ``kind`` takes
        return ""
    if not math.isfinite(number):
        return ""
    spelling = repr(number) if "." in repr(number) else repr(number).replace("e", ".0e")
    return f", which YAML 1.1 reads as text; write {spelling} for that number"


def _within(path: str, outer: str) -> bool:
    return path == outer or path.startswith((f"{outer}.", f"{outer}["))


def _state_labels(states: list[dict]) -> list[str]:
    ids = [state["id"] for state in states]
    if ids != list(range(len(ids))):
        raise ConfigurationError(f"state ids must be sequential from 0, got {ids}")
    return [state["label"] for state in states]


def _given(table: dict, *keys: str) -> dict:
    """The items of ``table`` under those of ``keys`` that it has."""
    return {key: table[key] for key in keys if key in table}


# An entry of ``parse_document``'s overrides; PyYAML reads str and bytes.
_OVERRIDE = _kind("a (dotted path, YAML text) pair",
                  lambda entry: isinstance(entry[0], str) and isinstance(entry[1], (str, bytes)))


def parse_document(
    doc: Any, overrides: Mapping[str, str] | None = None, name: str = "scenario"
) -> Scenario:
    """The Scenario of a parsed YAML document after dotted-path ``overrides``.

    ``overrides`` maps text paths to YAML text, which is parsed as a scalar,
    and a path must name an existing scalar; a component in digits indexes a
    list. The synthetic path ``kernel.epsilon`` rescales the document's
    kernel, validated as written, to the given per-state mutation rate.
    ``doc`` itself is never changed. One ScenarioValidationError lists every
    bad override, then every violation of the overridden document. A key the
    document leaves out is not passed on, so its constructor's default
    applies. An argument of the wrong type raises ConfigurationError.
    """
    _TEXT(name, "name")
    overrides = [_OVERRIDE(entry, f"override {entry[0]}") for entry in _instance(Mapping)(
        {} if overrides is None else overrides, "overrides").items()]
    bad_overrides, values = [], {}
    if overrides and isinstance(doc, dict):  # any other document fails the schema
        doc = copy.deepcopy(doc)
        for path, value in overrides:
            try:
                values[path] = _override(doc, path, value)
            except ConfigurationError as exc:
                bad_overrides.append(f"override {path}: {exc}")
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
    fields = _given(doc, "initial_state", "horizon", "replica_count", "master_seed",
                    "trigger_on_mutation", "spiral_threshold", "post_mutation_value")
    fields["name"] = doc.get("name") or name
    if "delta" in (doc.get("discount") or {}):
        fields["delta"] = doc["discount"]["delta"]
    if "eta" in (doc.get("risk_aversion") or {}):
        fields["risk_aversion"] = doc["risk_aversion"]["eta"]
    labels = build("game.states", lambda: _state_labels(doc["game"]["states"]))
    fields["game"] = build("game", lambda: StageGameSpec.from_profile_maps(
        labels, doc["game"]["payoffs"], **_given(doc["game"], "lottery_mode")), at="game.payoffs")
    fields["kernel"] = build("kernel.matrix", lambda: TransitionKernel(doc["kernel"]["matrix"]))
    if "kernel.epsilon" in values and fields["kernel"] is not None:
        try:
            fields["kernel"] = scale_kernel_epsilon(fields["kernel"], values["kernel.epsilon"])
        except ConfigurationError as exc:
            bad_overrides.append(f"override kernel.epsilon: {exc}")
    if doc.get("miners") is not None:
        fields["miners"] = tuple(
            build(f"miners[{i}]", lambda m=m: Miner(m["share"], StrategyKind(
                m["strategy"], **_given(m, "meta_budget", "preferred_state"))))
            for i, m in enumerate(doc["miners"])
        )
    if "noise" in doc:
        fields["noise"] = build("noise", lambda: NoisePath(doc["noise"]["baseline_rate"], tuple(
            (segment["start"], segment["value"]) for segment in doc["noise"]["segments"])))
    if "theta" in doc:
        fields["theta"] = build("theta", lambda: ThetaProcess(**doc["theta"]))
    if "meta" in doc:
        fields["meta"] = build("meta", lambda: MetaModelConfig(**doc["meta"]))
    if "investment" in doc:
        fields["investment"] = build("investment", lambda: InvestmentPlan(**doc["investment"]))
    if bad_overrides or errors:
        # A part that failed above is None, and every check that reads it is skipped.
        raise failure(*_scenario_errors(**fields))
    return Scenario(**fields)


def load_document(path: str | Path) -> Any:
    """Read and parse the YAML document; I/O and parse errors propagate, and
    a file that is not UTF-8 is a parse error."""
    path = _kind("a path", lambda v: isinstance(v, (str, PathLike)))(path, "path")
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise yaml.YAMLError(f"not UTF-8: {exc}") from exc
    return _load_yaml(text)


# Far deeper than any scenario nests (5 levels, at game.payoffs), and shallow
# enough for every recursion over a document: composing, copying and printing
# it. libyaml's composer overflowed the C stack at 100,000 levels.
_MAX_DEPTH = 100
# Far more nodes than aliases add to a document ``yaml.safe_dump`` wrote
# (it anchors each list or mapping the document shares: the benchmark's
# GrimTrigger sweep shares four payoff lists, 12 nodes; three states sharing
# one 6-miner payoff table add about 1,000), and few enough that a refused
# value's repr stays near 30 KB. Aliases of aliases multiply: 4 levels of
# 9-way aliases make a 243-byte file 74,718 nodes longer.
_MAX_ALIAS_NODES = 10_000


def _load_yaml(text: str) -> Any:
    """``yaml.safe_load`` through libyaml's parser when PyYAML was built with
    it: same constructor and resolver, so the same objects, several times faster.

    Every failure is a ``yaml.YAMLError``: a syntax error; collections nested
    deeper than ``_MAX_DEPTH``, or aliases that expand to more than
    ``_MAX_ALIAS_NODES`` nodes in all, found before anything is composed by a
    scan of parse events that stops there; a scalar the constructor cannot
    convert, such as an int of more digits than ``sys.get_int_max_str_digits()``.
    """
    loader = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    open_nodes: list[list] = []  # [anchor, nodes so far] of each open collection
    anchored: dict[str, int] = {}  # the nodes of each anchored collection, aliases expanded
    expanded = 0
    for event in yaml.parse(text, Loader=loader):
        if isinstance(event, yaml.CollectionStartEvent):
            if len(open_nodes) == _MAX_DEPTH:
                raise yaml.YAMLError(
                    f"collections nested deeper than {_MAX_DEPTH} levels {_position(event)}")
            open_nodes.append([event.anchor, 1])
            continue
        nodes = 1  # a scalar; stream and document events come with no collection open
        if isinstance(event, yaml.CollectionEndEvent):
            anchor, nodes = open_nodes.pop()
            if anchor is not None:
                anchored[anchor] = nodes
        elif isinstance(event, yaml.AliasEvent):
            nodes = anchored.get(event.anchor, 1)  # a scalar's, or a collection's still open
            expanded += nodes
            if expanded > _MAX_ALIAS_NODES:
                raise yaml.YAMLError(
                    f"aliases expand to more than {_MAX_ALIAS_NODES} nodes {_position(event)}")
        if open_nodes:
            open_nodes[-1][1] += nodes
    try:
        return yaml.load(text, Loader=loader)
    except ValueError as exc:
        raise yaml.YAMLError(str(exc)) from exc


def _position(event: yaml.Event) -> str:
    mark = event.start_mark
    return f"at line {mark.line + 1}, column {mark.column + 1}"


def load_scenario(path: str | Path, overrides: Mapping[str, str] | None = None) -> Scenario:
    """The scenario of a file after ``overrides``, as ``parse_document``
    makes it; the file stem names a document without a ``name``."""
    return parse_document(load_document(path), overrides, name=Path(path).stem)


def scale_kernel_epsilon(kernel: TransitionKernel, epsilon: float) -> TransitionKernel:
    """``kernel`` with every row's off-diagonal mass exactly ``epsilon``.

    Existing off-diagonal proportions are preserved; rows with no
    off-diagonal mass spread epsilon uniformly over the other states.
    """
    _instance(TransitionKernel)(kernel, "kernel")
    epsilon, k = _UNIT(epsilon, "epsilon"), kernel.size
    if k == 1 and epsilon > 0.0:
        raise ConfigurationError("kernel.epsilon > 0 impossible with a single state")
    scaled = []
    for p in range(k):
        row = kernel._entries[p * k:(p + 1) * k]
        off_sum = _sum(v for q, v in enumerate(row) if q != p)
        new_row = []
        for q, v in enumerate(row):
            if q == p:
                new_row.append(1.0 - epsilon)
            elif off_sum > 0.0:
                new_row.append(v * (epsilon / off_sum))
            else:
                new_row.append(epsilon / (k - 1))
        scaled.append(new_row)
    return TransitionKernel(scaled)


def _override(doc: dict, raw_path: str, raw_value: str) -> Any:
    """The value of one override, set in ``doc`` in place; ``kernel.epsilon``
    is only parsed, for ``parse_document`` to apply to the validated kernel.
    A ConfigurationError says what is wrong with it."""
    try:
        value = _load_yaml(raw_value)
    except yaml.YAMLError:
        raise ConfigurationError(f"cannot parse value {raw_value!r}") from None
    if isinstance(value, (dict, list)):
        raise ConfigurationError("only scalar values are allowed")
    if raw_path == "kernel.epsilon":
        refused: list = []
        value = _walk(_UNIT, value, raw_path, refused)
        if refused:
            raise ConfigurationError(refused[0][1])
        return value
    *parents, leaf = raw_path.split(".")
    target = doc
    for part in parents:
        slot = _slot(target, part)
        if slot is None:
            raise ConfigurationError(f"path component {part!r} not found")
        target = target[slot]
    slot = _slot(target, leaf)
    if slot is None:
        raise ConfigurationError(f"key {leaf!r} not found")
    if isinstance(target[slot], (dict, list)):
        raise ConfigurationError("target is not a scalar")
    target[slot] = value
    return value


def _slot(container: Any, part: str) -> str | int | None:
    """Where ``part`` names an item of ``container``, its key in a mapping or
    its index in a list (written in decimal digits, as ``str`` writes it);
    else None."""
    if isinstance(container, dict):
        return part if part in container else None
    if isinstance(container, list) and part in map(str, range(len(container))):
        return int(part)
    return None
