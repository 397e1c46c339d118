"""Metamorphic relations: what the engine must do to a transformed scenario,
bit for bit, with no stored answer.

Scaling every payoff by a power of two scales every float operation of a
run exactly (a product, a sum, a comparison, and √(4v) = 2√v), so the
utilities and the trace's payoffs scale by that factor and every record
that only compares payoffs stays equal. The same holds for `analyze`, with
the post-mutation value scaled too: its thresholds are ratios of payoff
differences, and its continuation values are sums of their products.

Two more relations hold on their own domains. An identity kernel over equal
tables in every state runs as one state does. Permuting the miners permutes
every per-miner value when no lottery and at most one MetaInvestor reads the
miner order.
"""

import copy
import dataclasses
import re

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_engine_oracle import scenarios

from mutagame import (
    BatchSummary,
    Miner,
    NormalFormGame,
    StageGameSpec,
    StrategyKind,
    StrategyTag,
    TransitionKernel,
    grim_cooperation_verdict,
    grim_trigger_threshold,
    kernel_as_run,
    mixed_nash_2x2,
    mutation_rate,
    parse_document,
    pure_nash,
    run_batch,
)
from mutagame.cli import EXIT_OK, main
from mutagame.presets import FIXED_RULES, MUTABLE_CORE

SMALL = {"horizon": 60, "replica_count": 40}


def mutable_core():
    return yaml.safe_load(MUTABLE_CORE)


def fixed_rules_theta_lottery():
    doc = yaml.safe_load(FIXED_RULES)
    doc["game"]["lottery_mode"] = True
    doc["theta"] = {"mean": 1.0, "variance": 0.04}
    return doc


def myopic_mix():
    """mutable_core with two MyopicBestResponse miners, at a discount where
    they defect in some states and rounds and cooperate in others."""
    doc = yaml.safe_load(MUTABLE_CORE)
    doc["miners"][0]["strategy"] = "MyopicBestResponse"
    doc["miners"][2]["strategy"] = "MyopicBestResponse"
    doc["discount"]["delta"] = 0.8
    return doc


SCENARIOS = {
    "mutable_core": mutable_core,
    "fixed_rules_theta_lottery": fixed_rules_theta_lottery,
    "myopic_mix": myopic_mix,
}


def scale_payoffs(doc, factor):
    for table in doc["game"]["payoffs"].values():
        for key, row in table.items():
            table[key] = [factor * value for value in row]
    return doc


def scaled_run(make, factor):
    doc = make()
    doc.update(SMALL)
    return run_batch(parse_document(scale_payoffs(doc, factor)))


@pytest.mark.parametrize("factor", [2.0, 0.25])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scaling_every_payoff_scales_the_utilities_exactly(name, factor):
    summary, batch = scaled_run(SCENARIOS[name], 1.0)
    scaled_summary, scaled = scaled_run(SCENARIOS[name], factor)
    assert np.count_nonzero(batch.payoffs) > 0
    for field in ("mean_utility", "std_utility", "risk_adjusted_utility",
                  "mean_endogenous_utility"):
        base, got = getattr(summary, field), getattr(scaled_summary, field)
        assert got == (None if base is None else tuple(factor * value for value in base)), field
    for field in ("mean_cooperation_duration", "spiral_frequency",
                  "mean_final_cooperation_fraction", "mutation_count_mean",
                  "mutation_count_std", "mutation_count_min", "mutation_count_max"):
        assert getattr(scaled_summary, field) == getattr(summary, field), field
    assert np.array_equal(scaled.payoffs, factor * batch.payoffs)
    assert np.array_equal(scaled.discounted_utility, factor * batch.discounted_utility)
    if batch.endogenous_utility is not None:
        assert np.array_equal(scaled.endogenous_utility, factor * batch.endogenous_utility)
    for field in ("states", "profiles", "theta", "winner", "cooperation_duration"):
        assert np.array_equal(getattr(scaled, field), getattr(batch, field)), field
    assert np.array_equal(scaled.mutation_counts, batch.mutation_counts)


UTILITY_FIELDS = ("mean_utility", "std_utility", "risk_adjusted_utility",
                  "mean_endogenous_utility")


def bits(array):
    """``repr`` of an optional array's values: equal only bit for bit."""
    return repr(None if array is None else array.tolist())


def scaled_scenario(scenario, factor):
    game = scenario.game
    return dataclasses.replace(scenario, game=StageGameSpec(
        game.state_labels, [NormalFormGame(factor * table.tensor) for table in game],
        game.lottery_mode))


@settings(max_examples=150, deadline=None, database=None)
@given(scenarios(), st.sampled_from([2.0, 0.25]))
def test_scaling_every_payoff_scales_every_drawn_scenario_exactly(scenario, factor):
    # The drawn scenarios cover every strategy tag, and theta, the lottery,
    # the noise path and the meta game each on and off. Bit for bit: every
    # comparison is of repr, so a zero keeps its sign.
    summary, batch = run_batch(scenario)
    scaled_summary, scaled = run_batch(scaled_scenario(scenario, factor))
    for field in dataclasses.fields(BatchSummary):
        base, got = getattr(summary, field.name), getattr(scaled_summary, field.name)
        if field.name in UTILITY_FIELDS and base is not None:
            base = tuple(factor * value for value in base)
        assert repr(got) == repr(base), field.name
    for field in ("payoffs", "discounted_utility", "endogenous_utility"):
        base = getattr(batch, field)
        assert bits(getattr(scaled, field)) == bits(None if base is None else factor * base), field
    for field in ("states", "profiles", "theta", "winner", "cooperation_duration",
                  "mutation_counts"):
        assert bits(getattr(scaled, field)) == bits(getattr(batch, field)), field


def test_the_myopic_mix_both_defects_and_cooperates():
    # Otherwise its profiles would not depend on the payoffs it compares.
    _, batch = scaled_run(myopic_mix, 1.0)
    myopic = batch.defects[:, :, [0, 2]]
    assert myopic.any() and not myopic.all()


def identity_pair(make, s):
    """The documents of one relation: a 1-state scenario on one table, and a
    3-state scenario whose states all have that table, on the identity
    kernel from state ``s``. The table is state ``s``'s of ``make()``'s
    document, or its last state's where it has fewer states. The meta
    contest's strength is 0: it would blend the kernel toward a state."""
    doc = make()
    doc.update(SMALL)
    if "meta" in doc:
        doc["meta"]["influence_strength"] = 0.0
    labels = [state["label"] for state in doc["game"]["states"]]
    table = doc["game"]["payoffs"][labels[min(s, len(labels) - 1)]]
    one, three = copy.deepcopy(doc), copy.deepcopy(doc)
    one["game"].update(states=[{"id": 0, "label": "only"}], payoffs={"only": table})
    one.update(kernel={"matrix": [[1.0]]}, initial_state=0)
    three["game"].update(states=[{"id": q, "label": f"s{q}"} for q in range(3)],
                         payoffs={f"s{q}": copy.deepcopy(table) for q in range(3)})
    three.update(kernel={"matrix": np.eye(3).tolist()}, initial_state=s)
    return one, three


@pytest.mark.parametrize("s", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_an_identity_kernel_over_equal_tables_is_one_state(name, s):
    # Each round draws one protocol uniform whatever the state count, and an
    # identity row never leaves its state, so no rule change is ever on
    # record.
    one, three = identity_pair(SCENARIOS[name], s)
    summary, batch = run_batch(parse_document(one))
    three_summary, three_batch = run_batch(parse_document(three))
    assert three_summary == summary
    assert np.all(three_batch.states == s)
    for field in ("profiles", "theta", "winner", "cooperation_duration"):
        assert np.array_equal(getattr(three_batch, field), getattr(batch, field)), field
    assert np.array_equal(three_batch.payoffs, batch.payoffs)


def with_preferred_state(miner, most):
    """``miner``, a MetaInvestor's preferred state capped at ``most``."""
    strategy = miner.strategy
    if strategy.tag is not StrategyTag.META_INVESTOR:
        return miner
    return Miner(miner.share, StrategyKind(
        strategy.tag, strategy.meta_budget, min(strategy.preferred_state, most)))


def on_identity_kernel(scenario, table, k, s):
    """``scenario`` with ``table`` in each of k states, on the k-state
    identity kernel from state ``s``. The meta contest's strength is 0: it
    would blend the kernel toward a state. GrimTrigger miners defect on a
    rule change, so a rule change on record would show in their actions."""
    return dataclasses.replace(
        scenario, trigger_on_mutation=True,
        miners=tuple(with_preferred_state(miner, k - 1) for miner in scenario.miners),
        game=StageGameSpec([f"s{q}" for q in range(k)], [table] * k,
                           scenario.game.lottery_mode),
        kernel=TransitionKernel(np.eye(k)), initial_state=s,
        meta=dataclasses.replace(scenario.meta, influence_strength=0.0))


RECORD_FIELDS = ("profiles", "theta", "winner", "cooperation_duration", "payoffs",
                 "discounted_utility", "endogenous_utility", "mutation_counts")


@settings(max_examples=150, deadline=None, database=None)
@given(scenarios(), st.data())
def test_an_identity_kernel_over_equal_tables_is_one_state_on_drawn_scenarios(scenario, data):
    # The domain: one of the drawn scenario's tables in every state, and an
    # identity kernel the meta contest leaves as it is. Each round draws one
    # protocol uniform whatever the state count, and an identity row never
    # leaves its state, so no rule change is ever on record.
    table = scenario.game[data.draw(st.integers(0, len(scenario.game) - 1))]
    k = data.draw(st.integers(2, 3))
    summary, batch = run_batch(on_identity_kernel(scenario, table, 1, 0))
    assert np.all(batch.states == 0)
    for s in range(k):
        k_summary, k_batch = run_batch(on_identity_kernel(scenario, table, k, s))
        assert repr(k_summary) == repr(summary)
        assert np.all(k_batch.states == s)
        for field in RECORD_FIELDS:
            assert bits(getattr(k_batch, field)) == bits(getattr(batch, field)), (s, field)


def permuted_scenario(scenario, order):
    """``scenario`` with miner j the miner ``order[j]`` was: its share,
    strategy, actions and payoffs."""
    n = scenario.n
    game = scenario.game
    return dataclasses.replace(
        scenario, miners=tuple(scenario.miners[i] for i in order),
        game=StageGameSpec(game.state_labels, [
            NormalFormGame(table.tensor.transpose([*order, n])[..., list(order)])
            for table in game], game.lottery_mode))


@settings(max_examples=150, deadline=None, database=None)
@given(scenarios(), st.data())
def test_permuting_the_miners_permutes_every_per_miner_value_on_drawn_scenarios(scenario, data):
    # The domain: no lottery (its cuts follow miner order) and at most one
    # MetaInvestor (several would sum their efforts in another order).
    tags = [miner.strategy.tag for miner in scenario.miners]
    assume(tags.count(StrategyTag.META_INVESTOR) <= 1)
    scenario = dataclasses.replace(scenario, game=StageGameSpec(
        scenario.game.state_labels, scenario.game, lottery_mode=False))
    order = data.draw(st.permutations(range(scenario.n)))
    summary, batch = run_batch(scenario)
    moved_summary, moved = run_batch(permuted_scenario(scenario, order))
    for field in dataclasses.fields(BatchSummary):
        base = getattr(summary, field.name)
        if field.name in UTILITY_FIELDS and base is not None:
            base = tuple(base[i] for i in order)
        assert repr(getattr(moved_summary, field.name)) == repr(base), field.name
    for field in ("payoffs", "defects", "discounted_utility", "endogenous_utility"):
        base = getattr(batch, field)
        assert bits(getattr(moved, field)) == bits(None if base is None else base[..., order]), field
    for field in ("states", "theta", "winner", "cooperation_duration", "mutation_counts"):
        assert bits(getattr(moved, field)) == bits(getattr(batch, field)), field


# Miner j of the permuted scenario is miner PERMUTATION[j] of the original.
PERMUTATION = (2, 0, 3, 1)
PERMUTED = {"mutable_core": mutable_core, "myopic_mix": myopic_mix}


def permuted(doc, order):
    """``doc`` with its miners in ``order``: shares, strategies, the payoff
    columns and the letters of each profile key."""
    doc = copy.deepcopy(doc)
    doc["miners"] = [doc["miners"][i] for i in order]
    for state, table in doc["game"]["payoffs"].items():
        doc["game"]["payoffs"][state] = {
            "".join(key[i] for i in order): [row[i] for i in order] for key, row in table.items()
        }
    return doc


@pytest.mark.parametrize("name", sorted(PERMUTED))
def test_permuting_the_miners_permutes_every_per_miner_value(name):
    # Without the lottery (its cuts follow miner order) and with one
    # MetaInvestor (several would sum their efforts in another order).
    doc = PERMUTED[name]()
    doc.update(SMALL)
    assert not doc["game"]["lottery_mode"]
    assert [m["strategy"] for m in doc["miners"]].count("MetaInvestor") == 1
    order = list(PERMUTATION)
    summary, batch = run_batch(parse_document(doc))
    moved_summary, moved = run_batch(parse_document(permuted(doc, order)))
    for field in ("mean_utility", "std_utility", "risk_adjusted_utility",
                  "mean_endogenous_utility"):
        base, got = getattr(summary, field), getattr(moved_summary, field)
        assert got == (None if base is None else tuple(base[i] for i in order)), field
    for field in ("replica_count", "mean_cooperation_duration", "spiral_frequency",
                  "mean_final_cooperation_fraction", "mutation_count_mean",
                  "mutation_count_std", "mutation_count_min", "mutation_count_max"):
        assert getattr(moved_summary, field) == getattr(summary, field), field
    assert np.array_equal(moved.states, batch.states)
    assert np.array_equal(moved.defects, batch.defects[:, :, order])
    assert np.array_equal(moved.payoffs, batch.payoffs[:, :, order])
    assert np.array_equal(moved.discounted_utility, batch.discounted_utility[:, order])
    assert np.array_equal(moved.cooperation_duration, batch.cooperation_duration)


def grim_sweep_pair():
    """The benchmark's grim_sweep scenario: a GrimTrigger pair playing a
    prisoner's dilemma in both states of a symmetric 2-state kernel."""
    doc = yaml.safe_load(FIXED_RULES)
    doc["trigger_on_mutation"] = True
    pd = doc["game"]["payoffs"]["baseline"]
    doc["game"].update(states=[{"id": 0, "label": "rules_a"}, {"id": 1, "label": "rules_b"}],
                       payoffs={"rules_a": pd, "rules_b": copy.deepcopy(pd)})
    doc["kernel"]["matrix"] = [[0.98, 0.02], [0.02, 0.98]]
    return doc


def grim_sweep_pair_stag_hunt():
    """The grim_sweep pair with a stag hunt in its second state: two pure
    Nash profiles, no temptation, and a mixed equilibrium."""
    doc = grim_sweep_pair()
    doc["game"]["payoffs"]["rules_b"] = {
        "CC": [4.0, 4.0], "CD": [0.0, 3.0], "DC": [3.0, 0.0], "DD": [2.0, 2.0],
    }
    return doc


ANALYZED = {
    "fixed_rules": lambda: yaml.safe_load(FIXED_RULES),
    "mutable_core": mutable_core,
    "grim_sweep_pair": grim_sweep_pair,
    "grim_sweep_pair_stag_hunt": grim_sweep_pair_stag_hunt,
}


def analysis(doc):
    """Per state, what `analyze` reports, from the functions it calls: the
    Nash list, the grim threshold's words and δ*, the mixed equilibrium, and
    the cooperation verdict."""
    scenario = parse_document(doc)
    rates = mutation_rate(kernel_as_run(scenario))
    for state, stage in enumerate(scenario.game):
        threshold = grim_trigger_threshold(stage)
        words = (pure_nash(stage), threshold.always_sustainable, threshold.never_sustainable,
                 threshold.delta_star, mixed_nash_2x2(stage) if scenario.n == 2 else None)
        yield words, grim_cooperation_verdict(
            stage, scenario.delta, rates.per_state[state], scenario.post_mutation_value)


def report(doc, tmp_path, capsys):
    """The `analyze` report of ``doc`` with each continuation and defect number masked."""
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert main(["analyze", str(path)]) == EXIT_OK
    return re.sub(r"(E\[coop\]|defect)=[-0-9.e+]+", r"\1=#", capsys.readouterr().out)


@pytest.mark.parametrize("post", [None, 1.5])
@pytest.mark.parametrize("name", sorted(ANALYZED))
def test_doubling_every_payoff_doubles_every_verdict_number(name, post, tmp_path, capsys):
    # post None keeps the document's post-mutation value (0.0 or absent).
    doc = ANALYZED[name]()
    if post is not None:
        doc["post_mutation_value"] = post
    doubled = scale_payoffs(copy.deepcopy(doc), 2.0)
    doubled["post_mutation_value"] = 2.0 * doc.get("post_mutation_value", 0.0)
    states = list(zip(analysis(doc), analysis(doubled), strict=True))
    for (words, verdict), (doubled_words, doubled_verdict) in states:
        assert doubled_words == words
        assert doubled_verdict.holds == verdict.holds
        assert doubled_verdict.continuation == 2.0 * verdict.continuation
        assert doubled_verdict.defect_now == 2.0 * verdict.defect_now
    assert any(verdict.continuation != 0.0 for _, (_, verdict) in states)
    assert report(doubled, tmp_path, capsys) == report(doc, tmp_path, capsys)
