"""The columnar trace writer against the row-at-a-time reference writer.

Both must write the same bytes: every float as its ``repr``, ``-0.0``
included, with or without a worker process. The memory guard pins
the per-replica conversion, which keeps a run's peak memory flat as the
batch grows.
"""

import errno
import os
import signal
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
from mutagame.cli import EXIT_CAPACITY, EXIT_IO, EXIT_OK, main, write_trace_csv
from mutagame.scenario import load_scenario
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


def usable_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def split_small_batches(monkeypatch, cpus):
    """A worker wherever ``cpus`` allows one, however small the batch."""
    usable_cpus(monkeypatch, cpus)
    monkeypatch.setattr(cli, "_MIN_LINES_PER_WRITER", 1)


def count_forks(monkeypatch):
    fork = os.fork
    calls = []

    def counted():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@needs_fork
def test_worker_split_is_capped_and_floored(monkeypatch):
    usable_cpus(monkeypatch, 9)
    assert cli._worker_split(1000, 200) == 500
    assert cli._worker_split(99, 200) == 99  # 19,800 lines: no worker
    assert cli._worker_split(100, 200) == 50
    assert cli._worker_split(1, 10**6) == 1  # one replica never forks
    assert cli._worker_split(3, 10**6) == 1
    usable_cpus(monkeypatch, 1)
    assert cli._worker_split(1000, 200) == 1000
    usable_cpus(monkeypatch, 9)
    monkeypatch.delattr(os, "fork")
    assert cli._worker_split(1000, 200) == 1000


@needs_fork
@pytest.mark.parametrize("cpus", [1, 2, 3, 9])
def test_bytes_do_not_depend_on_worker_count(monkeypatch, tmp_path, cpus):
    lottery_theta = lottery_theta_document()
    lottery_theta.update(replica_count=7, horizon=40)
    split_small_batches(monkeypatch, cpus)
    forks = count_forks(monkeypatch)
    for scenario in (parse_document(lottery_theta), EDGE_CASES["theta_clamp_off"]):
        count = scenario.replica_count
        split = cli._worker_split(count, scenario.horizon)
        assert split == (count // 2 if cpus >= 2 else count)
        assert_same_bytes(scenario, tmp_path)
    assert len(forks) == (2 if cpus >= 2 else 0)  # one worker per write at most


@needs_fork
def test_large_batch_forks_once_on_many_cpus(monkeypatch, tmp_path):
    usable_cpus(monkeypatch, 9)
    forks = count_forks(monkeypatch)
    lottery_theta = lottery_theta_document()
    lottery_theta.update(replica_count=100, horizon=200)  # 20,000 lines: one worker
    assert_same_bytes(parse_document(lottery_theta), tmp_path)
    assert forks == [os.getpid()]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_refused_fork_is_written_in_this_process(monkeypatch, tmp_path):
    calls = []

    def refuse(*args):
        calls.append(args)
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    split_small_batches(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", refuse)
    lottery_theta = lottery_theta_document()
    lottery_theta.update(replica_count=7, horizon=40)
    assert_same_bytes(parse_document(lottery_theta), tmp_path)
    assert len(calls) == 1  # the worker's replicas were written here
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def full_disk():
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def out_of_memory():
    raise MemoryError()


def killed():
    os.kill(os.getpid(), signal.SIGKILL)


def bug():
    [][0]


WRITER_FAILURES = {
    "full_disk": (full_disk, EXIT_IO, "error: [Errno 28] No space left on device\n"),
    "out_of_memory": (out_of_memory, EXIT_CAPACITY, "error: out of memory: \n"),
}


def fail_from(monkeypatch, fail, first):
    """Fail every replica range that starts at ``first`` or later: the
    worker's, in the worker and again when ``run`` writes it itself, and
    with ``first`` 0 also ``run``'s own, before it waits for the worker."""
    write_rows = cli._write_rows

    def failing(handle, scenario, batch, rows):
        if rows.start >= first:
            fail()
        write_rows(handle, scenario, batch, rows)

    split_small_batches(monkeypatch, 2)
    monkeypatch.setattr(cli, "_write_rows", failing)


def run_args(tmp_path, out="out"):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(lottery_theta_document()), encoding="utf-8")
    return ["run", str(path), "--out", str(tmp_path / out), "--replicas", "6",
            "--set", "horizon=20"]


def assert_no_worker_or_stray_file(out, names=("trace.csv",)):
    with pytest.raises(ChildProcessError):  # the worker was reaped
        os.waitpid(-1, os.WNOHANG)
    assert sorted(entry.name for entry in out.iterdir()) == sorted(names)


@needs_fork
@pytest.mark.parametrize("case", sorted(WRITER_FAILURES))
def test_worker_failure_reaches_exit_code(monkeypatch, tmp_path, capsys, case):
    fail, code, expected = WRITER_FAILURES[case]
    for first in (1, 0):
        with monkeypatch.context() as patch:
            fail_from(patch, fail, first)
            forks = count_forks(patch)
            assert main(run_args(tmp_path, f"out{first}")) == code
        assert len(forks) == 1
        assert capsys.readouterr().err == expected
        assert_no_worker_or_stray_file(tmp_path / f"out{first}")


@needs_fork
def test_worker_bug_is_not_reported_as_io_error(monkeypatch, tmp_path, capfd):
    for first in (1, 0):
        with monkeypatch.context() as patch:
            fail_from(patch, bug, first)
            forks = count_forks(patch)
            with pytest.raises(IndexError, match="list index out of range"):
                main(run_args(tmp_path, f"out{first}"))
        assert len(forks) == 1
        # The worker failed silently; only this process's exception reports the bug.
        assert capfd.readouterr().err == ""
        assert_no_worker_or_stray_file(tmp_path / f"out{first}")


@needs_fork
@pytest.mark.parametrize("fail", [killed, full_disk, out_of_memory, bug], ids=lambda f: f.__name__)
def test_failure_confined_to_worker_is_written_by_run(monkeypatch, tmp_path, capfd, fail):
    parent = os.getpid()
    write_rows = cli._write_rows
    written_here = []

    def failing_in_worker(handle, scenario, batch, rows):
        write_rows(handle, scenario, batch, rows)
        if os.getpid() != parent:
            handle.write("9,a partial line")
            handle.flush()  # bytes that run must discard
            fail()
        written_here.append(rows)

    split_small_batches(monkeypatch, 2)
    monkeypatch.setattr(cli, "_write_rows", failing_in_worker)
    forks = count_forks(monkeypatch)
    args = run_args(tmp_path)
    assert main(args) == EXIT_OK
    assert len(forks) == 1
    # Its own replicas, then the worker's, after the worker exited.
    assert written_here == [range(0, 3), range(3, 6)]
    assert capfd.readouterr().err == ""  # the worker reported nothing
    scenario = load_scenario(args[1], {"replica_count": "6", "horizon": "20"})
    _, batch = run_batch(scenario)
    csv_trace_writer(tmp_path / "reference.csv", scenario, batch)
    out = tmp_path / "out"
    assert (out / "trace.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert_no_worker_or_stray_file(out, ("summary.json", "trace.csv"))


def test_run_child_stderr_is_clean(tmp_path):
    # Python 3.12+ warns on fork() once numpy's BLAS threads run; -X dev
    # shows every warning, ResourceWarning and DeprecationWarning included.
    # 100 replicas x 200 rounds is enough lines for a worker where two CPUs are usable.
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


def test_writer_peak_memory_stays_per_replica(monkeypatch, tmp_path):
    # tracemalloc sees only this process, so it must format every replica.
    usable_cpus(monkeypatch, 1)
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
