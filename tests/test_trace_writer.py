"""The columnar trace writer against the row-at-a-time reference writer.

Both must write the same bytes: every float as its ``repr``, ``-0.0``
included, all from one process. The memory guard pins
the per-replica conversion, which keeps a run's peak memory flat as the
batch grows.
"""

import errno
import os
import subprocess
import sys
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
from mutagame import cli, simulate
from mutagame.cli import EXIT_CAPACITY, EXIT_IO, main, write_trace_csv
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
    "lottery_negative_payoffs": two_state_scenario(3, 30, 4, None),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_writer_edge_cases_match_oracle(case, tmp_path):
    scenario = EDGE_CASES[case]
    written = assert_same_bytes(scenario, tmp_path)
    lines = written.decode().split("\n")
    assert lines[-1] == ""
    assert len(lines) == 2 + scenario.replica_count * scenario.horizon
    if case in ("theta_clamp_off", "lottery_negative_payoffs"):
        # A lottery loser's zero times a negative payoff or theta: both signs
        # of zero in one replica's payoff column, which only a dedupe or a
        # table keyed by bits keeps apart.
        columns = defaultdict(set)
        for line in lines[1:-1]:
            row = line.split(",")
            for i, field in enumerate(row[5:]):
                columns[row[0], i].add(field)
        assert any({"0.0", "-0.0"} <= fields for fields in columns.values())


def lottery_theta_document():
    doc = yaml.safe_load(FIXED_RULES)
    doc["game"]["lottery_mode"] = True
    doc["theta"] = {"mean": 1.0, "variance": 0.04}
    return doc


def test_large_theta_trace_never_forks(monkeypatch, tmp_path):
    def refuse_fork(*args):
        pytest.fail("trace.csv is written in one process")

    monkeypatch.setattr(os, "fork", refuse_fork, raising=False)
    lottery_theta = lottery_theta_document()
    lottery_theta.update(replica_count=100, horizon=200)  # 20,000 lines
    assert_same_bytes(parse_document(lottery_theta), tmp_path)


def full_disk():
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def out_of_memory():
    raise MemoryError()


def bug():
    [][0]


WRITER_FAILURES = {
    "full_disk": (full_disk, EXIT_IO, "error: [Errno 28] No space left on device\n"),
    "out_of_memory": (out_of_memory, EXIT_CAPACITY, "error: out of memory: \n"),
}


def fail_writer(monkeypatch, fail):
    monkeypatch.setattr(cli, "_write_rows", lambda handle, scenario, batch: fail())


def run_args(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(lottery_theta_document()), encoding="utf-8")
    return ["run", str(path), "--out", str(tmp_path / "out"), "--replicas", "6",
            "--set", "horizon=20"]


def assert_no_child_or_stray_file(out):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(entry.name for entry in out.iterdir()) == ["trace.csv"]


@pytest.mark.parametrize("case", sorted(WRITER_FAILURES))
def test_writer_failure_reaches_exit_code(monkeypatch, tmp_path, capsys, case):
    fail, code, expected = WRITER_FAILURES[case]
    fail_writer(monkeypatch, fail)
    assert main(run_args(tmp_path)) == code
    assert capsys.readouterr().err == expected
    assert_no_child_or_stray_file(tmp_path / "out")


def test_writer_bug_is_not_reported_as_io_error(monkeypatch, tmp_path, capfd):
    fail_writer(monkeypatch, bug)
    with pytest.raises(IndexError, match="list index out of range"):
        main(run_args(tmp_path))
    assert capfd.readouterr().err == ""
    assert_no_child_or_stray_file(tmp_path / "out")


def test_run_child_stderr_is_clean(tmp_path):
    # -X dev shows every warning, ResourceWarning and DeprecationWarning
    # included, on a run of 100 replicas x 200 rounds with theta and lottery.
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(lottery_theta_document()), encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "mutagame.cli", "run", str(path),
         "--out", str(tmp_path / "out"), "--replicas", "100", "--set", "horizon=200"],
        capture_output=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert result.stderr == b""


def test_writer_peak_memory_stays_per_replica(tmp_path):
    for doc in (yaml.safe_load(MUTABLE_CORE), lottery_theta_document()):
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
        if scenario.theta is None:
            # The table of line tails, built from one replica's codes at a
            # time, peaked at 53 KB. Codes for the whole batch at once, with
            # np.unique over them, peaked at 2.5 MB.
            assert peak < 500_000


def test_simulate_peak_never_holds_defect_flags(monkeypatch):
    doc = yaml.safe_load(MUTABLE_CORE)
    doc.update(replica_count=250, horizon=200)
    scenario = parse_document(doc)
    _, batch = run_batch(scenario)
    loop_peaks = []
    draws = simulate._draws

    def draws_then_peak(*args):
        yield from draws(*args)
        loop_peaks.append(tracemalloc.get_traced_memory()[1])

    monkeypatch.setattr(simulate, "_draws", draws_then_peak)
    tracemalloc.start()
    try:
        _, traced = simulate._simulate(scenario, batch.replicas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert batch.profiles.dtype == np.uint8
    assert np.array_equal(traced.profiles, batch.profiles)
    # The loop over rounds holds the (R, H) uint8 states and masks, (R,)
    # vectors and one round's (R, n) payoffs: it peaked at 215 KB, 115 KB
    # over the two arrays. (R, H, n) Defect flags would add 4x the masks
    # (200 KB), and an (R, H, 1) float64 draws array 8x, so the bound, states
    # plus 4x the masks (250 KB), lies between. The whole call adds one
    # replica's derived payoffs at a time for the endogenous products: it
    # peaked at 274 KB, so it never holds the (R, H, n) payoffs (1.6 MB) that
    # ``batch.payoffs`` derives. Storing them peaked at 3.73 MB.
    masks, states = batch.profiles.nbytes, batch.states.nbytes
    assert loop_peaks and loop_peaks[-1] < states + 4 * masks
    assert peak < 2 * batch.payoffs.nbytes + states + 4 * masks
    assert peak < batch.payoffs.nbytes
    bits = 1 << np.arange(batch.defects.shape[2] - 1, -1, -1)
    assert np.array_equal(batch.profiles, batch.defects @ bits)
