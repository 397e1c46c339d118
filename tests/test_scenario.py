"""Scenario documents: schema validation, error accumulation, overrides."""

import copy
import math
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from mutagame import (
    ConfigurationError,
    MetaModelConfig,
    InvestmentPlan,
    Miner,
    NoisePath,
    ScenarioValidationError,
    StageGameSpec,
    StrategyKind,
    StrategyTag,
    ThetaProcess,
    TransitionKernel,
    parse_document,
)
from mutagame.presets import FIXED_RULES, MUTABLE_CORE, PRESETS
from mutagame.scenario import _contest_power, load_document, load_scenario, scale_kernel_epsilon



@settings(max_examples=500, deadline=None, database=None)
@given(st.floats(min_value=0.0, max_value=1.0) | st.floats(min_value=0.0, allow_infinity=False))
def test_contest_power_at_exponent_one_is_the_decimal_power(x):
    # The weights are relative efforts in [0, 1]; larger x checks the rule beyond them.
    from decimal import Context, Decimal

    expected = float(Context(prec=40).power(Decimal(x), Decimal(1.0)))
    assert _contest_power(x, 1.0).hex() == expected.hex() == x.hex()


def meta_investor(budget, preferred_state):
    return StrategyKind(StrategyTag.META_INVESTOR, budget, preferred_state)


@pytest.fixture
def base_doc():
    return yaml.safe_load(FIXED_RULES)


def test_presets_parse_cleanly(base_doc):
    scenario = parse_document(base_doc)
    assert scenario.name == "fixed_rules"
    assert scenario.n == 2
    assert scenario.delta == 0.9
    mutable = parse_document(yaml.safe_load(MUTABLE_CORE))
    assert mutable.n == 4
    assert mutable.meta.enabled
    assert mutable.noise is not None
    assert mutable.investment is not None
    assert mutable.trigger_on_mutation


def test_load_scenario_round_trip(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(FIXED_RULES, encoding="utf-8")
    scenario = load_scenario(path)
    assert scenario.name == "fixed_rules"  # in-file name wins over the file stem
    assert scenario.horizon == 200
    # file stem is the fallback when the document has no name
    doc = yaml.safe_load(FIXED_RULES)
    del doc["name"]
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert load_scenario(path).name == "scenario"
    # Path() raised TypeError up to 0.20.0.
    for load in (load_scenario, load_document):
        with pytest.raises(ConfigurationError) as excinfo:
            load(5)
        assert str(excinfo.value) == "path: expected a path, got 5"


def _shared_payoff_lists():
    """Two states whose payoff tables share their lists, as the benchmark's
    GrimTrigger sweep builds them: ``yaml.safe_dump`` writes four aliases."""
    table = yaml.safe_load(FIXED_RULES)["game"]["payoffs"]["baseline"]
    text = yaml.safe_dump({"payoffs": {"rules_a": table, "rules_b": dict(table)}})
    assert "*id004" in text
    return text


DOCUMENTS = {**PRESETS, "shared_payoff_lists": _shared_payoff_lists()}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_load_document_matches_safe_load(name, tmp_path):
    path = tmp_path / f"{name}.yaml"
    path.write_text(DOCUMENTS[name], encoding="utf-8")
    # repr also tells 1 from 1.0 and compares key order.
    assert repr(load_document(path)) == repr(yaml.safe_load(DOCUMENTS[name]))


def test_unknown_top_level_key(base_doc):
    base_doc["surprise"] = 1
    with pytest.raises(ScenarioValidationError, match="surprise: unknown key"):
        parse_document(base_doc)


def test_unknown_nested_key(base_doc):
    base_doc["discount"]["mode"] = "hyperbolic"
    with pytest.raises(ScenarioValidationError, match="discount.mode: unknown key"):
        parse_document(base_doc)


def test_missing_required_key(base_doc):
    del base_doc["kernel"]
    with pytest.raises(ScenarioValidationError, match="kernel: required key missing"):
        parse_document(base_doc)


def test_schema_version_gate(base_doc):
    base_doc["schema_version"] = 99
    with pytest.raises(ScenarioValidationError, match="unsupported version"):
        parse_document(base_doc)


def test_kernel_row_error_names_row(base_doc):
    base_doc["kernel"]["matrix"] = [[0.9]]
    with pytest.raises(ScenarioValidationError, match="row 0"):
        parse_document(base_doc)


def test_share_sum_error_cites_normalization(base_doc):
    base_doc["miners"][0]["share"] = 0.6
    with pytest.raises(ScenarioValidationError, match="must equal 1 within"):
        parse_document(base_doc)


def test_multiple_violations_reported_together(base_doc):
    base_doc["miners"][0]["share"] = 0.6
    base_doc["horizon"] = 0
    base_doc["discount"]["delta"] = 2.0
    with pytest.raises(ScenarioValidationError) as excinfo:
        parse_document(base_doc)
    text = "\n".join(excinfo.value.errors)
    assert "hash shares" in text
    assert "horizon" in text
    assert "delta" in text


def test_type_checks(base_doc):
    base_doc["horizon"] = "long"
    base_doc["trigger_on_mutation"] = "yes please"
    with pytest.raises(ScenarioValidationError) as excinfo:
        parse_document(base_doc)
    text = "\n".join(excinfo.value.errors)
    assert "expected an integer" in text
    assert "expected a boolean" in text


def test_meta_investor_payload_required(base_doc):
    base_doc["miners"][0]["strategy"] = "MetaInvestor"
    with pytest.raises(ScenarioValidationError, match="meta_budget"):
        parse_document(base_doc)


def test_meta_payload_rejected_elsewhere(base_doc):
    base_doc["miners"][0]["meta_budget"] = 0.5
    with pytest.raises(ScenarioValidationError, match="only valid for MetaInvestor"):
        parse_document(base_doc)


def test_unknown_strategy_lists_valid_names(base_doc):
    base_doc["miners"][0]["strategy"] = "SelfishMiner"
    with pytest.raises(ScenarioValidationError, match="unknown strategy"):
        parse_document(base_doc)


def test_state_ids_must_be_sequential(base_doc):
    base_doc["game"]["states"] = [{"id": 1, "label": "baseline"}]
    with pytest.raises(ScenarioValidationError, match="sequential"):
        parse_document(base_doc)


@pytest.mark.parametrize(
    "path, value",
    [
        ("risk_aversion.eta", float("nan")),
        ("theta.mean", float("nan")),
        ("theta.variance", float("inf")),
        ("meta.contest_exponent", float("nan")),
        ("post_mutation_value", float("inf")),
        ("noise.baseline_rate", float("nan")),
    ],
)
def test_non_finite_scalar_fields_rejected(path, value):
    doc = yaml.safe_load(MUTABLE_CORE)
    doc["theta"] = {"mean": 1.0, "variance": 0.04}
    *blocks, leaf = path.split(".")
    target = doc
    for block in blocks:
        target = target[block]
    target[leaf] = value
    with pytest.raises(ScenarioValidationError) as excinfo:
        parse_document(doc)
    assert excinfo.value.errors == [f"{path}: expected a finite number, got {value!r}"]


@pytest.mark.parametrize("changes, errors", [
    ({"initial_state": 0.5}, ["initial_state: expected an integer, got 0.5"]),
    ({"trigger_on_mutation": "yes"}, ["trigger_on_mutation: expected a boolean, got 'yes'"]),
    ({"name": 5}, ["name: expected a non-empty string, got 5"]),
    ({"horizon": "5"}, ["horizon: expected an integer, got '5'"]),
    ({"replica_count": "3"}, ["replica_count: expected an integer, got '3'"]),
    ({"delta": "0.9"}, ["delta: expected a finite number, got '0.9'"]),
    ({"risk_aversion": "1"}, ["risk_aversion: expected a finite number, got '1'"]),
    ({"spiral_threshold": "0.5"}, ["spiral_threshold: expected a finite number, got '0.5'"]),
    ({"post_mutation_value": "x"}, ["post_mutation_value: expected a finite number, got 'x'"]),
    ({"horizon": 5.5}, ["horizon: expected an integer, got 5.5"]),
    ({"horizon": True}, ["horizon: expected an integer, got True"]),
    ({"replica_count": 2.5}, ["replica_count: expected an integer, got 2.5"]),
    ({"master_seed": 1.5}, ["master_seed: expected an integer, got 1.5"]),
    ({"kernel": [[1.0]]}, ["kernel: expected a TransitionKernel, got [[1.0]]"]),
    ({"miners": [1, 2]}, ["miners: expected a sequence of Miner, got [1, 2]"]),
    # Type and range lines in field order; initial_state's range needs the
    # kernel, so it is skipped.
    ({"miners": [1, 2], "kernel": [[1.0]], "initial_state": 7, "horizon": "5",
      "delta": math.nan, "replica_count": 0},
     ["miners: expected a sequence of Miner, got [1, 2]",
      "kernel: expected a TransitionKernel, got [[1.0]]",
      "horizon: expected an integer, got '5'",
      "delta: expected a finite number, got nan",
      "replica_count: must be >= 1, got 0"]),
    ({"game": "pd", "meta": {}, "noise": 0.05, "theta": (1.0, 0.04), "investment": [1.0]},
     ["game: expected a StageGameSpec, got 'pd'",
      "meta: expected a MetaModelConfig, got {}",
      "noise: expected a NoisePath, got 0.05",
      "theta: expected a ThetaProcess, got (1.0, 0.04)",
      "investment: expected an InvestmentPlan, got [1.0]"]),
])
def test_scenario_refuses_what_the_schema_refuses(base_doc, changes, errors):
    # Through the Python API each of these ran silently, ran to a TypeError
    # in run_batch, or raised TypeError or AttributeError here.
    with pytest.raises(ScenarioValidationError) as excinfo:
        replace(parse_document(base_doc), **changes)
    assert excinfo.value.errors == errors


# mutable_core with theta: every part present.
FULL_DOC = {**yaml.safe_load(MUTABLE_CORE), "theta": {"mean": 1.0, "variance": 0.04, "clamp": True}}
FULL = parse_document(FULL_DOC)


def _with_miner(index, make):
    return lambda s, v: replace(s, miners=tuple(
        make(v) if i == index else miner for i, miner in enumerate(s.miners)))


def _relabel(doc, value):
    doc["game"]["states"][1]["label"] = value
    if isinstance(value, str):  # the payoff table goes with its label
        doc["game"]["payoffs"][value] = doc["game"]["payoffs"].pop("restricted_capacity")


# Every scalar field of every part and of Scenario, by its key in a document:
# a value the field takes in FULL, and FULL with the value there, built in
# Python. A document key whose last component is a digit indexes a list.
SCALAR_FIELDS = {
    **{key: (getattr(FULL, key), lambda s, v, key=key: replace(s, **{key: v}))
       for key in ("name", "horizon", "replica_count", "master_seed", "initial_state",
                   "trigger_on_mutation", "spiral_threshold", "post_mutation_value")},
    "discount.delta": (0.5, lambda s, v: replace(s, delta=v)),
    "risk_aversion.eta": (0.5, lambda s, v: replace(s, risk_aversion=v)),
    "miners.0.share": (0.3, _with_miner(
        0, lambda v: Miner(v, StrategyKind(StrategyTag.GRIM_TRIGGER)))),
    "miners.3.meta_budget": (0.25, _with_miner(3, lambda v: Miner(0.2, meta_investor(v, 0)))),
    "miners.3.preferred_state": (0, _with_miner(3, lambda v: Miner(0.2, meta_investor(0.25, v)))),
    "game.lottery_mode": (False, lambda s, v: replace(
        s, game=StageGameSpec(s.game.state_labels, s.game, v))),
    "game.states.1.label": ("restricted_capacity", lambda s, v: replace(
        s, game=StageGameSpec(("baseline", v, "fee_spike"), s.game))),
    "noise.baseline_rate": (0.03, lambda s, v: replace(s, noise=NoisePath(v, s.noise.segments))),
    "noise.segments.1.start": (50, lambda s, v: replace(
        s, noise=NoisePath(0.03, ((0, 0.0), (v, 0.05))))),
    "noise.segments.1.value": (0.05, lambda s, v: replace(
        s, noise=NoisePath(0.03, ((0, 0.0), (50, v))))),
    "theta.mean": (1.0, lambda s, v: replace(s, theta=ThetaProcess(v, 0.04))),
    "theta.variance": (0.04, lambda s, v: replace(s, theta=ThetaProcess(1.0, v))),
    "theta.clamp": (True, lambda s, v: replace(s, theta=ThetaProcess(1.0, 0.04, v))),
    "meta.enabled": (True, lambda s, v: replace(s, meta=MetaModelConfig(v, 0.4, 1.0))),
    "meta.influence_strength": (0.4, lambda s, v: replace(s, meta=MetaModelConfig(True, v, 1.0))),
    "meta.contest_exponent": (1.0, lambda s, v: replace(s, meta=MetaModelConfig(True, 0.4, v))),
    "investment.upfront_cost": (250.0, lambda s, v: replace(
        s, investment=InvestmentPlan(v, s.investment.expected_returns))),
    "investment.expected_returns.1": (100.0, lambda s, v: replace(
        s, investment=InvestmentPlan(250.0, (100.0, v, 100.0, 100.0, 100.0)))),
}


def _forms(value):
    """``value`` in each form a caller might pass it: as text, as a bool, int
    or float, and as a Fraction and numpy scalars."""
    forms = [value, str(value), np.bool_(value)]
    if not isinstance(value, str):
        forms += [bool(value), int(value), float(value), Fraction(value),
                  np.float32(value), np.float64(value), np.int64(value)]
    return forms


SCALARS = st.one_of(
    st.integers(), st.integers(min_value=2**1024) | st.integers(max_value=-2**1024),
    st.sampled_from([int(sys.float_info.max), int(sys.float_info.max) + 1]),
    st.floats(), st.booleans(), st.floats().map(repr) | st.integers().map(str), st.fractions(),
    st.floats(width=32).map(np.float32), st.floats().map(np.float64),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.text(max_size=3),
)


@pytest.mark.parametrize("key", sorted(SCALAR_FIELDS))
@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_each_constructor_takes_exactly_what_the_schema_takes(key, data):
    # One rule for a scalar: a Scenario built in Python takes a value at a
    # field exactly when a document takes it at that key. Up to 0.17.0 the
    # parts took any numbers.Real: Fraction(1, 25) as theta's variance ran to
    # a UFuncTypeError in run_batch, and 10**400 raised OverflowError.
    valid, build = SCALAR_FIELDS[key]
    value = data.draw(st.sampled_from(_forms(valid)) | SCALARS)
    doc = copy.deepcopy(FULL_DOC)
    if key == "game.states.1.label":
        _relabel(doc, value)
    else:
        *parents, leaf = key.split(".")
        target = doc
        for part in parents:
            target = target[int(part) if part.isdigit() else part]
        target[int(leaf) if leaf.isdigit() else leaf] = value
    try:
        parse_document(doc)
        schema_takes = True
    except ScenarioValidationError:
        schema_takes = False
    try:
        build(FULL, value)
        python_takes = True
    except (ConfigurationError, ScenarioValidationError):
        python_takes = False
    assert python_takes == schema_takes
    if type(value) not in (bool, int, float, str, np.float64):  # YAML cannot carry it
        assert not python_takes


@pytest.mark.parametrize("arguments, message", [
    (("0.5", StrategyKind(StrategyTag.HONEST)), "miner share: expected a finite number, got '0.5'"),
    ((0.5, "Honest"), "miner strategy: expected a StrategyKind, got 'Honest'"),
    # A bool share was read as 1.0 or 0.0.
    ((True, StrategyKind(StrategyTag.HONEST)), "miner share: expected a finite number, got True"),
    ((False, StrategyKind(StrategyTag.HONEST)),
     "miner share: expected a finite number, got False"),
])
def test_miner_refuses_wrong_types(arguments, message):
    with pytest.raises(ConfigurationError) as excinfo:
        Miner(*arguments)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("arguments, message", [
    ((True, "x"), "influence_strength: expected a finite number, got 'x'"),
    (("yes",), "enabled: expected a boolean, got 'yes'"),
    ((True, 0.5, "2"), "contest_exponent: expected a finite number, got '2'"),
    # A bool strength or exponent was read as 1.0.
    ((True, True), "influence_strength: expected a finite number, got True"),
    ((True, 0.5, True), "contest_exponent: expected a finite number, got True"),
])
def test_meta_model_config_refuses_wrong_types(arguments, message):
    with pytest.raises(ConfigurationError) as excinfo:
        MetaModelConfig(*arguments)
    assert str(excinfo.value) == message


def test_readme_scenario_example_parses():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Scenario files", 1)[1]
    example = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    scenario = parse_document(yaml.safe_load(example))
    assert scenario.name == "my_experiment"
    assert scenario.meta.enabled and scenario.miners[1] == Miner(0.5, meta_investor(0.25, 0))
    assert [m.strategy.tag for m in scenario.miners].count(StrategyTag.META_INVESTOR) == 1
    assert scenario.noise is not None and scenario.theta is not None
    assert scenario.investment is not None and scenario.investment.horizon == 3


def test_absent_optional_keys_take_their_constructors_defaults(base_doc):
    # fixed_rules without its optional keys; theta keeps its required keys
    # so that theta.clamp can be left out.
    for key in ("name", "trigger_on_mutation", "spiral_threshold", "risk_aversion"):
        del base_doc[key]
    del base_doc["game"]["lottery_mode"]
    base_doc["theta"] = {"mean": 1.0, "variance": 0.25}
    written = copy.deepcopy(base_doc)
    # Each of the nine keys at the default its constructor declares.
    written.update(
        trigger_on_mutation=False,
        spiral_threshold=0.5,
        post_mutation_value=0.0,
        risk_aversion={"eta": 0.0},
        meta={"enabled": False, "influence_strength": 0.0, "contest_exponent": 1.0},
    )
    written["theta"]["clamp"] = True
    written["game"]["lottery_mode"] = False
    bare, full = parse_document(base_doc), parse_document(written)
    # The stage game and the kernel print as object addresses, the rest by value.
    assert bare.game.lottery_mode == full.game.lottery_mode
    assert repr(replace(bare, game=full.game, kernel=full.kernel)) == repr(full)


def test_payoff_profiles_must_be_complete(base_doc):
    del base_doc["game"]["payoffs"]["baseline"]["CC"]
    with pytest.raises(ScenarioValidationError, match="3 of 4 profiles"):
        parse_document(base_doc)


def test_override_scalar(base_doc):
    scenario = parse_document(base_doc, {"discount.delta": "0.7", "replica_count": "3"})
    assert scenario.delta == 0.7
    assert scenario.replica_count == 3
    # source document untouched
    assert base_doc["discount"]["delta"] == 0.9


def test_override_bool_and_seed(base_doc):
    scenario = parse_document(base_doc, {"trigger_on_mutation": "true", "master_seed": "99"})
    assert scenario.trigger_on_mutation is True
    assert scenario.master_seed == 99


def test_override_unknown_path(base_doc):
    with pytest.raises(ScenarioValidationError, match="not found"):
        parse_document(base_doc, {"discount.gamma": "0.5"})
    with pytest.raises(ScenarioValidationError, match="not found"):
        parse_document(base_doc, {"nowhere.delta": "0.5"})


def test_override_rejects_non_scalar_target(base_doc):
    with pytest.raises(ScenarioValidationError, match="not a scalar"):
        parse_document(base_doc, {"kernel.matrix": "1"})
    with pytest.raises(ScenarioValidationError, match="scalar values"):
        parse_document(base_doc, {"discount.delta": "[1, 2]"})


def test_override_value_must_be_yaml_text(base_doc):
    # PyYAML reads str and bytes; anything else raised its TypeError up to 0.19.0.
    # Up to 0.20.0 the refusal was one line of a ScenarioValidationError.
    assert parse_document(base_doc, {"horizon": b"7"}).horizon == 7
    for value in (5, None, [1]):
        with pytest.raises(ConfigurationError) as excinfo:
            parse_document(base_doc, {"horizon": value})
        assert str(excinfo.value) == ("override horizon: expected a (dotted path, YAML text) "
                                      f"pair, got ('horizon', {value!r})")
    # Each raised AttributeError up to 0.20.0; a name was taken when the document had one.
    for overrides, name, message in [
        ({5: "1"}, "x", "override 5: expected a (dotted path, YAML text) pair, got (5, '1')"),
        ([("horizon", "5")], "x", "overrides: expected a Mapping, got [('horizon', '5')]"),
        (None, 5, "name: expected a non-empty string, got 5"),
    ]:
        with pytest.raises(ConfigurationError) as excinfo:
            parse_document(base_doc, overrides, name)
        assert str(excinfo.value) == message


def test_kernel_epsilon_override_on_identity(base_doc):
    doc = copy.deepcopy(yaml.safe_load(MUTABLE_CORE))
    scenario = parse_document(doc, {"kernel.epsilon": "0.3"})
    for p, row in enumerate(scenario.kernel.matrix):
        assert row[p] == pytest.approx(0.7)
        assert sum(row) == pytest.approx(1.0, abs=1e-12)
    # identity rows spread epsilon uniformly
    ident = {"kernel": {"matrix": [[1.0, 0.0], [0.0, 1.0]]}}
    scaled = scale_kernel_epsilon(TransitionKernel(ident["kernel"]["matrix"]), 0.4)
    assert scaled.matrix.tolist() == [[0.6, 0.4], [0.4, 0.6]]


def test_kernel_epsilon_preserves_offdiagonal_proportions():
    matrix = [[0.8, 0.15, 0.05], [0.1, 0.7, 0.2], [0.25, 0.25, 0.5]]
    scaled = scale_kernel_epsilon(TransitionKernel(matrix), 0.1).matrix.tolist()
    for p, row in enumerate(scaled):
        assert row[p] == pytest.approx(0.9)
        assert sum(row) == pytest.approx(1.0, abs=1e-12)
    assert scaled[0][1] / scaled[0][2] == pytest.approx(3.0)


def test_kernel_epsilon_single_state_rejected(base_doc):
    with pytest.raises(ScenarioValidationError, match="single state"):
        parse_document(base_doc, {"kernel.epsilon": "0.2"})
    # epsilon 0 on a single state is fine
    scenario = parse_document(base_doc, {"kernel.epsilon": "0"})
    assert scenario.kernel.matrix.tolist() == [[1.0]]


def test_kernel_epsilon_bounds(base_doc):
    with pytest.raises(ScenarioValidationError, match="kernel.epsilon"):
        parse_document(yaml.safe_load(MUTABLE_CORE), {"kernel.epsilon": "1.5"})


def test_override_indexes_lists_at_any_depth():
    scenario = parse_document(yaml.safe_load(MUTABLE_CORE), {"miners.3.meta_budget": "0.5"})
    assert scenario.miners[3] == Miner(0.2, meta_investor(0.5, 0))
    assert [m.strategy.tag for m in scenario.miners].count(StrategyTag.META_INVESTOR) == 1
    scenario = parse_document(yaml.safe_load(FIXED_RULES), {"game.payoffs.baseline.DC.0": "7"})
    assert scenario.game[0].tensor[1, 0].tolist() == [7.0, 0.0]


@pytest.mark.parametrize(
    "path, message",
    [
        ("miners.9.share", "path component '9' not found"),
        ("miners.first.share", "path component 'first' not found"),
        ("game.payoffs.baseline.CC.2", "key '2' not found"),
        ("game.payoffs.baseline.CC.last", "key 'last' not found"),
        ("miners.0", "target is not a scalar"),
    ],
)
def test_override_bad_list_index(base_doc, path, message):
    with pytest.raises(ScenarioValidationError) as excinfo:
        parse_document(base_doc, {path: "0.1"})
    assert excinfo.value.errors == [f"override {path}: {message}"]
