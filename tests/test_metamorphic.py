"""Metamorphic relations: what the engine must do to a transformed scenario,
bit for bit, with no stored answer.

Scaling every payoff by a power of two scales every float operation of a
run exactly (a product, a sum, a comparison, and √(4v) = 2√v), so the
utilities and the trace's payoffs scale by that factor and every record
that only compares payoffs stays equal.
"""

import numpy as np
import pytest
import yaml

from mutagame import parse_document, run_batch
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


def scaled_run(make, factor):
    doc = make()
    doc.update(SMALL)
    for table in doc["game"]["payoffs"].values():
        for key, row in table.items():
            table[key] = [factor * value for value in row]
    return run_batch(parse_document(doc))


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


def test_the_myopic_mix_both_defects_and_cooperates():
    # Otherwise its profiles would not depend on the payoffs it compares.
    _, batch = scaled_run(myopic_mix, 1.0)
    myopic = batch.defects[:, :, [0, 2]]
    assert myopic.any() and not myopic.all()
