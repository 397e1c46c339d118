"""The columnar trace writer against the row-at-a-time reference writer.

Both must write the same bytes: every float as its ``repr``, ``-0.0``
included. The memory guard pins the per-replica conversion, which keeps a
run's peak memory flat as the batch grows.
"""

import tracemalloc
from collections import defaultdict

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from oracles import csv_trace_writer
from test_engine_oracle import scenarios

from mutagame import (
    Miner,
    NormalFormGame,
    Scenario,
    StageGameSpec,
    StrategyKind,
    StrategyTag,
    ThetaProcess,
    TransitionKernel,
    parse_document,
    run_batch,
)
from mutagame.cli import write_trace_csv
from mutagame.presets import FIXED_RULES, MUTABLE_CORE


def assert_same_bytes(scenario, directory):
    _, batch = run_batch(scenario)
    write_trace_csv(directory / "columnar.csv", scenario, batch)
    csv_trace_writer(directory / "reference.csv", scenario, batch)
    written = (directory / "columnar.csv").read_bytes()
    assert written == (directory / "reference.csv").read_bytes()
    return written


@settings(max_examples=200, deadline=None, database=None)
@given(scenarios())
def test_writer_matches_csv_writer_oracle(tmp_path_factory, scenario):
    assert_same_bytes(scenario, tmp_path_factory.mktemp("trace"))


def two_state_scenario(n, horizon, replicas, theta):
    games = [
        NormalFormGame(np.arange((2**n) * n, dtype=float).reshape((2,) * n + (n,)) - 1.5),
        NormalFormGame(np.full((2,) * n + (n,), 2.0)),
    ]
    return Scenario(
        miners=(Miner(1.0 / n, StrategyKind(StrategyTag.TIT_FOR_TAT)),) * n,
        game=StageGameSpec(["a", "b"], games, lottery_mode=True),
        kernel=TransitionKernel([[0.7, 0.3], [0.4, 0.6]]),
        initial_state=0,
        horizon=horizon,
        delta=0.9,
        replica_count=replicas,
        master_seed=11,
        theta=theta,
    )


EDGE_CASES = {
    "one_round_one_replica_lottery_theta": two_state_scenario(
        2, 1, 1, ThetaProcess(mean=1.0, variance=0.04)
    ),
    "one_miner": two_state_scenario(1, 30, 3, ThetaProcess(mean=1.0, variance=0.04)),
    "theta_clamp_off": two_state_scenario(
        3, 30, 4, ThetaProcess(mean=0.0, variance=1.0, clamp=False)
    ),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_writer_edge_cases_match_oracle(case, tmp_path):
    scenario = EDGE_CASES[case]
    written = assert_same_bytes(scenario, tmp_path)
    lines = written.decode().split("\n")
    assert lines[-1] == ""
    assert len(lines) == 2 + scenario.replica_count * scenario.horizon
    if case == "theta_clamp_off":
        # A lottery loser's zero times theta: both signs of zero in one
        # replica's payoff column, which only a dedupe keyed by bits keeps apart.
        columns = defaultdict(set)
        for line in lines[1:-1]:
            row = line.split(",")
            for i, field in enumerate(row[5:]):
                columns[row[0], i].add(field)
        assert any({"0.0", "-0.0"} <= fields for fields in columns.values())


def test_writer_peak_memory_stays_per_replica(tmp_path):
    lottery_theta = yaml.safe_load(FIXED_RULES)
    lottery_theta["game"]["lottery_mode"] = True
    lottery_theta["theta"] = {"mean": 1.0, "variance": 0.04}
    for doc in (yaml.safe_load(MUTABLE_CORE), lottery_theta):
        doc.update(replica_count=250, horizon=200)
        scenario = parse_document(doc)
        _, batch = run_batch(scenario)
        tracemalloc.start()
        try:
            write_trace_csv(tmp_path / "trace.csv", scenario, batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # About 0.14 MB on both documents, value tables included; converting
        # the whole batch with .tolist() at once peaks above 7 MB.
        assert peak < 4_000_000


def test_profile_masks_peak_stays_under_twice_their_size():
    doc = yaml.safe_load(MUTABLE_CORE)
    doc.update(replica_count=250, horizon=200)
    _, batch = run_batch(parse_document(doc))
    tracemalloc.start()
    try:
        masks = batch.profile_masks()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # An (R, H, n) bool @ int64 bits product peaks at 40x the uint8 masks.
    assert masks.dtype == np.uint8
    assert peak < 2 * masks.nbytes
    bits = 1 << np.arange(batch.defects.shape[2] - 1, -1, -1)
    assert np.array_equal(masks, batch.defects @ bits)
