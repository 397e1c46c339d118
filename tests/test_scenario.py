"""Scenario documents: schema validation, error accumulation, overrides."""

import copy

import pytest
import yaml

from mutagame import ScenarioValidationError, parse_document
from mutagame.presets import FIXED_RULES, MUTABLE_CORE, preset_names, preset_text
from mutagame.scenario import (
    apply_overrides,
    load_document,
    load_scenario,
    scale_kernel_epsilon,
)


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


@pytest.mark.parametrize("name", preset_names())
def test_load_document_matches_safe_load(name, tmp_path):
    path = tmp_path / f"{name}.yaml"
    path.write_text(preset_text(name), encoding="utf-8")
    # repr also tells 1 from 1.0 and compares key order.
    assert repr(load_document(path)) == repr(yaml.safe_load(preset_text(name)))


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


def test_payoff_profiles_must_be_complete(base_doc):
    del base_doc["game"]["payoffs"]["baseline"]["CC"]
    with pytest.raises(ScenarioValidationError, match="3 of 4 profiles"):
        parse_document(base_doc)


def test_override_scalar(base_doc):
    doc = apply_overrides(base_doc, {"discount.delta": "0.7", "replica_count": "3"})
    scenario = parse_document(doc)
    assert scenario.delta == 0.7
    assert scenario.replica_count == 3
    # source document untouched
    assert base_doc["discount"]["delta"] == 0.9


def test_override_bool_and_seed(base_doc):
    doc = apply_overrides(
        base_doc, {"trigger_on_mutation": "true", "master_seed": "99"}
    )
    scenario = parse_document(doc)
    assert scenario.trigger_on_mutation is True
    assert scenario.master_seed == 99


def test_override_unknown_path(base_doc):
    with pytest.raises(ScenarioValidationError, match="not found"):
        apply_overrides(base_doc, {"discount.gamma": "0.5"})
    with pytest.raises(ScenarioValidationError, match="not found"):
        apply_overrides(base_doc, {"nowhere.delta": "0.5"})


def test_override_rejects_non_scalar_target(base_doc):
    with pytest.raises(ScenarioValidationError, match="not a scalar"):
        apply_overrides(base_doc, {"kernel.matrix": "1"})
    with pytest.raises(ScenarioValidationError, match="scalar values"):
        apply_overrides(base_doc, {"discount.delta": "[1, 2]"})


def test_kernel_epsilon_override_on_identity(base_doc):
    doc = copy.deepcopy(yaml.safe_load(MUTABLE_CORE))
    doc = apply_overrides(doc, {"kernel.epsilon": "0.3"})
    for p, row in enumerate(doc["kernel"]["matrix"]):
        assert row[p] == pytest.approx(0.7)
        assert sum(row) == pytest.approx(1.0, abs=1e-12)
    # identity rows spread epsilon uniformly
    ident = {"kernel": {"matrix": [[1.0, 0.0], [0.0, 1.0]]}}
    scaled = scale_kernel_epsilon(ident["kernel"]["matrix"], 0.4)
    assert scaled == [[0.6, 0.4], [0.4, 0.6]]


def test_kernel_epsilon_preserves_offdiagonal_proportions():
    matrix = [[0.8, 0.15, 0.05], [0.1, 0.7, 0.2], [0.25, 0.25, 0.5]]
    scaled = scale_kernel_epsilon(matrix, 0.1)
    for p, row in enumerate(scaled):
        assert row[p] == pytest.approx(0.9)
        assert sum(row) == pytest.approx(1.0, abs=1e-12)
    assert scaled[0][1] / scaled[0][2] == pytest.approx(3.0)


def test_kernel_epsilon_single_state_rejected(base_doc):
    with pytest.raises(ScenarioValidationError, match="single state"):
        apply_overrides(base_doc, {"kernel.epsilon": "0.2"})
    # epsilon 0 on a single state is fine
    doc = apply_overrides(base_doc, {"kernel.epsilon": "0"})
    assert doc["kernel"]["matrix"] == [[1.0]]


def test_kernel_epsilon_bounds(base_doc):
    with pytest.raises(ScenarioValidationError, match="kernel.epsilon"):
        apply_overrides(yaml.safe_load(MUTABLE_CORE), {"kernel.epsilon": "1.5"})
