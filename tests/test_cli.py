"""Command-line front end: exit codes, file outputs, determinism."""

import gc
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

from mutagame import parse_document, run_batch, simulate
from mutagame.cli import (
    EXIT_CAPACITY,
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)
from mutagame.presets import FIXED_RULES, MUTABLE_CORE


@pytest.fixture
def fixed_rules_file(tmp_path):
    path = tmp_path / "fixed_rules.yaml"
    path.write_text(FIXED_RULES, encoding="utf-8")
    return path


def small(args, replicas=5):
    return args + ["--replicas", str(replicas), "--set", "horizon=50"]


def test_validate_ok(fixed_rules_file, capsys):
    assert main(["validate", str(fixed_rules_file)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "OK"


def test_validate_kernel_row_failure(tmp_path, capsys):
    doc = yaml.safe_load(FIXED_RULES)
    doc["kernel"]["matrix"] = [[0.9]]
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: kernel.matrix: kernel row 0 sums to 0.9, must equal 1 within 1e-12\n"
    )


def test_validate_share_failure(tmp_path, capsys):
    doc = yaml.safe_load(FIXED_RULES)
    doc["miners"][0]["share"] = 0.6
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == EXIT_VALIDATION
    assert "must equal 1 within" in capsys.readouterr().err


def test_validate_lists_every_violation(tmp_path, capsys):
    doc = yaml.safe_load(FIXED_RULES)
    doc["miners"][0]["share"] = 0.6
    doc["horizon"] = 0
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "hash shares" in err and "horizon" in err


def _every_range_violation(doc):
    doc["noise"]["baseline_rate"] = -1
    doc["theta"] = {"mean": 1.0, "variance": -1}
    doc.update(horizon=0, replica_count=0)
    doc["miners"][0]["share"] += 0.4  # shares sum to 1.4


def _seven_range_violations(doc):
    doc["theta"] = {"mean": 1.0, "variance": -1}
    doc["miners"][3].update(meta_budget=2.0, preferred_state=-1)
    doc["noise"]["baseline_rate"] = -1
    doc["noise"]["segments"][1]["value"] = -2
    doc["meta"].update(influence_strength=2.0, contest_exponent=-1)


# Violations in overrides and in several parts of a document: every one is
# listed, bad overrides first, and the exit code is 1.
EVERY_VIOLATION = {
    "bad_overrides_and_horizon": (
        lambda doc: None,
        ["--set", "foo=1", "--set", "bar.baz=2", "--set", "horizon=0"],
        "error: override foo: key 'foo' not found\n"
        "error: override bar.baz: path component 'bar' not found\n"
        "error: horizon: must be >= 1, got 0\n",
    ),
    "type_error_and_replica_count": (
        lambda doc: None,
        ["--set", "horizon=abc", "--set", "replica_count=0"],
        "error: horizon: expected an integer, got 'abc'\n"
        "error: replica_count: must be >= 1, got 0\n",
    ),
    "parts_and_scenario_checks": (
        _every_range_violation,
        [],
        "error: horizon: must be >= 1, got 0\n"
        "error: replica_count: must be >= 1, got 0\n"
        "error: noise.baseline_rate: must be >= 0, got -1.0\n"
        "error: theta.variance: must be >= 0, got -1.0\n"
        "error: miners: hash shares sum to 1.4, must equal 1 within 1e-12\n",
    ),
    # A part's constructor stopped at its first range violation up to 0.19.0,
    # so four of these seven were listed.
    "every_range_in_every_part": (
        _seven_range_violations,
        [],
        "error: miners[3].meta_budget: must be in [0, 1], got 2.0\n"
        "error: miners[3].preferred_state: must be >= 0, got -1\n"
        "error: noise.baseline_rate: must be >= 0, got -1.0\n"
        "error: noise.segments[1].value: must be >= 0, got -2.0\n"
        "error: theta.variance: must be >= 0, got -1.0\n"
        "error: meta.influence_strength: must be in [0, 1], got 2.0\n"
        "error: meta.contest_exponent: must be positive, got -1.0\n",
    ),
    # YAML 1.1 reads a number in exponent form only with a dot in its
    # mantissa and a sign in its exponent; README says so. The message says
    # so too, with a spelling that YAML reads as the number.
    "yaml_1_1_exponent_spellings": (
        lambda doc: None,
        ["--set", "kernel.epsilon=5e-2", "--set", "game.payoffs.baseline.CCCC.0=1e-05",
         "--set", "discount.delta=9e-1", "--set", "noise.baseline_rate=1.0e3"],
        "error: override kernel.epsilon: expected a finite number, got '5e-2', "
        "which YAML 1.1 reads as text; write 0.05 for that number\n"
        "error: game.payoffs.baseline.CCCC[0]: expected a number, got '1e-05', "
        "which YAML 1.1 reads as text; write 1.0e-05 for that number\n"
        "error: discount.delta: expected a finite number, got '9e-1', "
        "which YAML 1.1 reads as text; write 0.9 for that number\n"
        "error: noise.baseline_rate: expected a finite number, got '1.0e3', "
        "which YAML 1.1 reads as text; write 1000.0 for that number\n",
    ),
}


@pytest.mark.parametrize("case", sorted(EVERY_VIOLATION))
def test_validate_lists_every_override_and_document_violation(case, tmp_path, capsys):
    corrupt, args, expected = EVERY_VIOLATION[case]
    doc = yaml.safe_load(MUTABLE_CORE)
    corrupt(doc)
    path = tmp_path / "mc.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert main(["validate", str(path), *args]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", expected)


def test_each_suggested_spelling_passes(tmp_path, capsys):
    # Each override of the pinned exponent-spelling case, written as its
    # message suggests, is a number the scenario takes.
    _, args, expected = EVERY_VIOLATION["yaml_1_1_exponent_spellings"]
    spellings = re.findall(r"write (\S+) for that number", expected)
    fixed = [f"{arg.split('=')[0]}={spelling}"
             for arg, spelling in zip(args[1::2], spellings, strict=True)]
    path = tmp_path / "mc.yaml"
    path.write_text(MUTABLE_CORE, encoding="utf-8")
    for pair in fixed:
        assert main(["validate", str(path), "--set", pair]) == EXIT_OK, pair
    assert capsys.readouterr().err == ""


def _second_state(doc):
    doc["game"]["states"].append({"id": 1, "label": "fork"})
    doc["kernel"]["matrix"] = [[1.0, 0.0], [0.0, 1.0]]


BAD_PAYOFF_TABLES = {
    "bad_profile_key": (
        lambda doc: doc["game"]["payoffs"]["baseline"].update(
            CX=doc["game"]["payoffs"]["baseline"].pop("CD")
        ),
        "error: game.payoffs: state 'baseline': bad profile key 'CX' for 2 miners",
    ),
    "wrong_payoff_count": (
        lambda doc: doc["game"]["payoffs"]["baseline"].update(CD=[0.0]),
        "error: game.payoffs: state 'baseline', profile 'CD': must be of length 2, got [0.0]",
    ),
    "incomplete_table": (
        lambda doc: doc["game"]["payoffs"]["baseline"].pop("DD"),
        "error: game.payoffs: state 'baseline': 3 of 4 profiles defined",
    ),
    "missing_state_table": (
        _second_state,
        "error: game.payoffs: payoff tables missing for states: ['fork']",
    ),
    "unknown_state_table": (
        lambda doc: doc["game"]["payoffs"].update(fork=doc["game"]["payoffs"]["baseline"]),
        "error: game.payoffs: payoff tables for unknown states: ['fork']",
    ),
    "nan_payoff": (
        lambda doc: doc["game"]["payoffs"]["baseline"].update(CC=[float("nan"), 3.0]),
        "error: game.payoffs: payoff table for state 'baseline' has non-finite entries",
    ),
}

EPSILON = ["--set", "kernel.epsilon=0.0"]


def _grim_pair_with_invalid_kernel(doc):
    """The GrimTrigger pair on two states of one table, with a kernel whose
    rows sum to 1 but whose entries leave [0, 1]."""
    _second_state(doc)
    doc["game"]["payoffs"]["fork"] = dict(doc["game"]["payoffs"]["baseline"])
    doc["kernel"]["matrix"] = [[0.5, -0.5], [7.0, -3.0]]

# Malformed document shapes: each gives one pinned error line, never a traceback.
# Each entry: (corrupt the document, extra CLI arguments, the stderr line).
BAD_DOCUMENTS = {
    "non_string_profile_key": (
        lambda doc: doc["game"]["payoffs"]["baseline"].update({11: [1.0, 1.0]}),
        [],
        "error: game.payoffs.baseline.11: expected a string key, got 11",
    ),
    "list_strategy": (
        lambda doc: doc["miners"][0].update(strategy=["x"]),
        [],
        "error: miners[0].strategy: unknown strategy ['x']; valid: ['AlwaysDefect', 'Collude', "
        "'GrimTrigger', 'Honest', 'MetaInvestor', 'MyopicBestResponse', 'TitForTat', 'Withhold']",
    ),
    "ragged_kernel": (
        lambda doc: doc["kernel"].update(matrix=[[1.0], [0.0, 1.0]]),
        [],
        "error: kernel.matrix: transition kernel must be a square matrix of numbers",
    ),
    # kernel.epsilon rescales the kernel only once it is validated as written.
    "epsilon_on_number_row": (
        lambda doc: doc["kernel"].update(matrix=[1]),
        EPSILON,
        "error: kernel.matrix[0]: expected a non-empty list, got int",
    ),
    "epsilon_on_string_entry": (
        lambda doc: doc["kernel"].update(matrix=[[1.0, "x"]]),
        EPSILON,
        "error: kernel.matrix[0][1]: expected a number, got 'x'",
    ),
    "epsilon_on_invalid_kernel": (
        _grim_pair_with_invalid_kernel,
        ["--set", "kernel.epsilon=0.1"],
        "error: kernel.matrix: transition kernel entries must lie in [0, 1]",
    ),
    "epsilon_out_of_range_on_invalid_kernel": (
        _grim_pair_with_invalid_kernel,
        ["--set", "kernel.epsilon=1.5"],
        "error: override kernel.epsilon: must be in [0, 1], got 1.5\n"
        "error: kernel.matrix: transition kernel entries must lie in [0, 1]",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_PAYOFF_TABLES))
def test_validate_pins_payoff_table_errors(case, tmp_path, capsys):
    corrupt, expected = BAD_PAYOFF_TABLES[case]
    doc = yaml.safe_load(FIXED_RULES)
    corrupt(doc)
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == expected + "\n"


@pytest.mark.parametrize("case", sorted(BAD_DOCUMENTS))
def test_validate_pins_malformed_document_errors(case, tmp_path, capsys):
    corrupt, args, expected = BAD_DOCUMENTS[case]
    doc = yaml.safe_load(FIXED_RULES)
    corrupt(doc)
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert main(["validate", str(path), *args]) == EXIT_VALIDATION
    assert capsys.readouterr().err == expected + "\n"


def test_run_beyond_memory_is_capacity_error(fixed_rules_file, tmp_path, capsys):
    # numpy refuses the 7 PiB states array up front, so nothing is allocated.
    overrides = ["--replicas", "1", "--set", "horizon=1000000000000000"]
    assert main(["validate", str(fixed_rules_file), *overrides]) == EXIT_OK
    out = str(tmp_path / "out")
    assert main(["run", str(fixed_rules_file), "--out", out, *overrides]) == EXIT_CAPACITY
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1


def test_run_past_numpy_dimension_limit_is_capacity_error(fixed_rules_file, tmp_path, capsys):
    # 1e20 rounds do not fit numpy's index type, so no allocation is tried.
    overrides = ["--replicas", "1", "--set", "horizon=100000000000000000000"]
    assert main(["validate", str(fixed_rules_file), *overrides]) == EXIT_OK
    out = str(tmp_path / "out")
    assert main(["run", str(fixed_rules_file), "--out", out, *overrides]) == EXIT_CAPACITY
    assert capsys.readouterr().err == (
        "error: 1 replicas x horizon 100000000000000000000 x 2 miners "
        "exceed the largest array numpy can index\n"
    )


def test_run_past_sys_maxsize_replicas_is_capacity_error(fixed_rules_file, tmp_path, capsys):
    # len() of so long a range overflows; the check counts without it.
    overrides = ["--replicas", "100000000000000000000"]
    assert main(["validate", str(fixed_rules_file), *overrides]) == EXIT_OK
    out = str(tmp_path / "out")
    assert main(["run", str(fixed_rules_file), "--out", out, *overrides]) == EXIT_CAPACITY
    assert capsys.readouterr().err == (
        "error: 100000000000000000000 replicas x horizon 200 x 2 miners "
        "exceed the largest array numpy can index\n"
    )


def test_missing_file_is_io_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.yaml")]) == EXIT_IO


def test_parse_error_is_io_error(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("miners: [unclosed", encoding="utf-8")
    assert main(["validate", str(path)]) == EXIT_IO
    assert "cannot parse" in capsys.readouterr().err


HUGE_INT = "1" * 5000  # past the digits that int() converts from a string


def _fixed_rules_with(key, value):
    """FIXED_RULES with the top-level ``key`` (and its indented block) set to ``value``."""
    return re.sub(rf"(?m)^{key}:.*\n(?:  .*\n)*", f"{key}: {value}\n", FIXED_RULES)


# A file the YAML loader cannot turn into a document: exit 2, one line.
UNPARSEABLE_FILES = {
    "huge_int": _fixed_rules_with("horizon", HUGE_INT).encode(),
    "impossible_date": _fixed_rules_with("horizon", "2020-02-30").encode(),
    "not_utf8": b"\xff\xfe" + FIXED_RULES.encode(),
}


@pytest.mark.parametrize("case", sorted(UNPARSEABLE_FILES))
def test_unparseable_file_is_io_error(case, tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_bytes(UNPARSEABLE_FILES[case])
    assert main(["validate", str(path)]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: cannot parse scenario file: ")


@pytest.mark.parametrize("command", [
    ["validate", "{path}", "--set", f"horizon={HUGE_INT}"],
    ["sweep", "{path}", "--param", "horizon", "--values", f"5,{HUGE_INT}", "--out", "{out}"],
])
def test_unparseable_override_value_is_a_violation(command, fixed_rules_file, tmp_path, capsys):
    args = [arg.format(path=fixed_rules_file, out=tmp_path / "out") for arg in command]
    assert main(args) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: override horizon: cannot parse value {HUGE_INT!r}"]
    assert not (tmp_path / "out").exists()


# Nesting past the loader's depth bound, in a file (exit 2) or in an override
# value (exit 1). Each runs in a child process: at these depths composing the
# document has overflowed Python's recursion limit and, at 100,000 levels,
# crashed the process.
DEEP_CHILD = """
import sys
from mutagame.cli import main
path, key, depth, where = sys.argv[1:]
nested = "[" * int(depth) + "]" * int(depth)
override = f"{key}={nested}" if where == "override" else "horizon=3"
sys.exit(main(["validate", path, "--set", override]))
"""


@pytest.mark.parametrize("key, depth, where, code, start", [
    ("miners", 600, "file", EXIT_IO, "error: cannot parse scenario file: collections nested"),
    ("horizon", 5000, "file", EXIT_IO, "error: cannot parse scenario file: collections nested"),
    ("horizon", 100_000, "file", EXIT_IO, "error: cannot parse scenario file: collections nested"),
    ("horizon", 100_000, "override", EXIT_VALIDATION, "error: override horizon: cannot parse value"),
])
def test_deep_nesting_is_refused_with_one_line(key, depth, where, code, start, tmp_path):
    path = tmp_path / "deep.yaml"
    nested = "[" * depth + "]" * depth
    path.write_text(_fixed_rules_with(key, nested) if where == "file" else FIXED_RULES,
                    encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-c", DEEP_CHILD, str(path), key, str(depth), where],
        capture_output=True, text=True, timeout=60,
    )
    assert (result.returncode, result.stdout) == (code, "")
    [line] = result.stderr.splitlines()
    assert line.startswith(start)


def _aliases(levels):
    """A flow list of 9 ones, then ``levels`` lists that each alias the one
    before 9 times: every level multiplies the nodes by 9."""
    lists = ["&a0 [" + ", ".join(["1"] * 9) + "]"]
    for level in range(1, levels + 1):
        lists.append(f"&a{level} [" + ", ".join([f"*a{level - 1}"] * 9) + "]")
    return "[" + ", ".join(lists) + "]"


# Aliases of aliases past the loader's bound, in a file (exit 2) or in an
# override value (exit 1). Before the bound, the file's 4 levels reached
# validation, which printed the expanded value: 216 KB on one line, and 9
# times more per further level. Each runs in a child process with a timeout.
@pytest.mark.parametrize("where, code, start", [
    ("file", EXIT_IO, "error: cannot parse scenario file: aliases expand to more than"),
    ("override", EXIT_VALIDATION, "error: override horizon: cannot parse value"),
])
def test_alias_expansion_is_refused_with_one_short_line(where, code, start, tmp_path):
    path = tmp_path / "aliases.yaml"
    path.write_text(_fixed_rules_with("horizon", _aliases(4)) if where == "file" else FIXED_RULES,
                    encoding="utf-8")
    overrides = ["--set", f"horizon={_aliases(4)}"] if where == "override" else []
    result = subprocess.run(
        [sys.executable, "-m", "mutagame.cli", "validate", str(path), *overrides],
        capture_output=True, text=True, timeout=60,
    )
    assert (result.returncode, result.stdout) == (code, "")
    [line] = result.stderr.splitlines()
    assert line.startswith(start) and len(line.encode()) < 1024


def _overflowing(doc, case):
    if case == "payoffs":
        doc["game"]["payoffs"]["baseline"] = {key: [1.5e308, 1.5e308]
                                              for key in ("CC", "CD", "DC", "DD")}
    else:
        doc["theta"] = {"mean": 1.0e308, "variance": 0.0}
    return doc


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("case", ["payoffs", "theta"])
def test_overflowed_utilities_exit_3_with_one_line(case, command, tmp_path):
    # Finite inputs whose utilities overflow float64 would put inf and nan
    # into the outputs, which JSON does not allow, under numpy warnings.
    path = tmp_path / "overflow.yaml"
    path.write_text(yaml.safe_dump(_overflowing(yaml.safe_load(FIXED_RULES), case)),
                    encoding="utf-8")
    sweep = ["--param", "discount.delta", "--values", "0.5,0.6"] if command == "sweep" else []
    result = subprocess.run(
        [sys.executable, "-m", "mutagame.cli", command, str(path), *sweep,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60,
    )
    assert (result.returncode, result.stdout) == (EXIT_CAPACITY, "")
    assert result.stderr == "error: the utilities overflow float64: a summary value is not finite\n"
    assert not (tmp_path / "out").exists()


def test_sweep_row_overflow_exits_3_with_one_line(tmp_path):
    # Each miner's utility is finite, 1e308 in one round of one replica, so
    # the batch passes; the sweep row's mean over the miners overflows, and
    # is refused by the same rule as the batch summary.
    doc = yaml.safe_load(FIXED_RULES)
    doc["game"]["payoffs"]["baseline"] = {key: [1.0e308, 1.0e308]
                                          for key in ("CC", "CD", "DC", "DD")}
    doc["horizon"] = 1
    path = tmp_path / "overflow.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "mutagame.cli", "sweep", str(path), "--param", "discount.delta",
         "--values", "0.5,0.6", "--replicas", "1", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60,
    )
    assert (result.returncode, result.stdout) == (EXIT_CAPACITY, "")
    assert result.stderr == "error: the utilities overflow float64: a summary value is not finite\n"
    assert not (tmp_path / "out").exists()


def test_run_writes_outputs(fixed_rules_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(small(["run", str(fixed_rules_file), "--out", str(out)])) == EXIT_OK
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "replica,t,state,theta,actions,payoff_0,payoff_1"
    assert len(trace) == 1 + 5 * 50
    assert trace[1] == "0,0,0,,CC,3.0,3.0"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenario"] == "fixed_rules"
    assert summary["spiral_frequency"] == 0.0
    assert summary["replica_count"] == 5
    assert "mean_cooperation_duration" in capsys.readouterr().out


def test_run_is_deterministic(fixed_rules_file, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    args = ["run", str(fixed_rules_file), "--seed", "42"]
    assert main(small(args + ["--out", str(out_a)])) == EXIT_OK
    assert main(small(args + ["--out", str(out_b)])) == EXIT_OK
    assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()


def test_run_single_replica_zero_std(fixed_rules_file, tmp_path):
    out = tmp_path / "out"
    assert main(
        ["run", str(fixed_rules_file), "--out", str(out),
         "--set", "replica_count=1", "--set", "horizon=30"]
    ) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["std_utility"] == [0.0, 0.0]
    assert summary["mutation_count_std"] == 0.0


def test_run_unwritable_output(fixed_rules_file, tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory", encoding="utf-8")
    code = main(small(["run", str(fixed_rules_file), "--out", str(blocker)]))
    assert code == EXIT_IO


def test_bad_set_syntax(fixed_rules_file, capsys):
    assert main(["validate", str(fixed_rules_file), "--set", "delta0.5"]) == EXIT_VALIDATION
    assert "key=value" in capsys.readouterr().err


def test_preset_round_trip(tmp_path, capsys):
    out = tmp_path / "preset.yaml"
    assert main(["preset", "fixed_rules", "--out", str(out)]) == EXIT_OK
    assert main(["validate", str(out)]) == EXIT_OK
    out2 = tmp_path / "preset2.yaml"
    assert main(["preset", "mutable_core", "--out", str(out2)]) == EXIT_OK
    assert main(["validate", str(out2)]) == EXIT_OK


def test_mutable_core_default_seed_spirals(tmp_path):
    from mutagame.presets import MUTABLE_CORE

    path = tmp_path / "mutable_core.yaml"
    path.write_text(MUTABLE_CORE, encoding="utf-8")
    out = tmp_path / "out"
    # default master_seed from the preset file; trimmed replica count for speed
    assert main(["run", str(path), "--out", str(out), "--replicas", "10"]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["spiral_frequency"] > 0.0
    assert summary["mean_endogenous_utility"] is not None


def test_preset_unknown_name(capsys):
    assert main(["preset", "golden_age"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: unknown preset 'golden_age'; available: fixed_rules, mutable_core\n"
    )


def test_sweep_rejects_single_value(fixed_rules_file, capsys):
    code = main(
        ["sweep", str(fixed_rules_file), "--param", "discount.delta",
         "--values", "0.5", "--out", "unused"]
    )
    assert code == EXIT_VALIDATION


def test_sweep_rejects_unknown_path(fixed_rules_file, tmp_path):
    code = main(
        ["sweep", str(fixed_rules_file), "--param", "discount.gamma",
         "--values", "0.1,0.2", "--out", str(tmp_path)]
    )
    assert code == EXIT_VALIDATION


def test_sweep_checks_every_point_before_simulating(
    fixed_rules_file, tmp_path, monkeypatch, capsys
):
    # The invalid point comes last: no point may run before it is refused.
    batches = []
    monkeypatch.setattr(simulate, "run_batch", lambda scenario: batches.append(scenario))
    code = main(
        ["sweep", str(fixed_rules_file), "--param", "discount.delta",
         "--values", "0.5,1.0", "--replicas", "20000", "--out", str(tmp_path / "sweep")]
    )
    assert (code, batches) == (EXIT_VALIDATION, [])
    assert capsys.readouterr().err.splitlines() == [
        "error: discount.delta: must be strictly inside (0, 1), got 1.0"
    ]
    assert not (tmp_path / "sweep").exists()


OUTSIDE_UNIT = "must be strictly inside (0, 1), got"

# A sweep lists every violation of every point, each distinct line once, in
# point order, and runs no point.
SWEEP_VIOLATIONS = {
    "bad_override_and_shared_horizon": (
        ["--values", "0.5,0.6", "--set", "foo=1", "--set", "horizon=0"],
        ["error: override foo: key 'foo' not found", "error: horizon: must be >= 1, got 0"],
    ),
    "two_bad_points": (
        ["--values", "0.5,2,3"],
        [f"error: discount.delta: {OUTSIDE_UNIT} 2.0", f"error: discount.delta: {OUTSIDE_UNIT} 3.0"],
    ),
    "shared_line_once": (
        ["--values", "0.5,2", "--set", "horizon=0"],
        ["error: horizon: must be >= 1, got 0", f"error: discount.delta: {OUTSIDE_UNIT} 2.0"],
    ),
    # The swept values would silently replace the override.
    "param_also_set": (
        ["--values", "0.5,0.6", "--set", "discount.delta=0.9"],
        ["error: --param discount.delta is also overridden by --set, --seed or --replicas; "
         "the swept values would replace it"],
    ),
}


@pytest.mark.parametrize("case", sorted(SWEEP_VIOLATIONS))
def test_sweep_lists_every_violation_of_every_point(case, tmp_path, monkeypatch, capsys):
    args, expected = SWEEP_VIOLATIONS[case]
    path = tmp_path / "mc.yaml"
    path.write_text(MUTABLE_CORE, encoding="utf-8")
    batches = []
    monkeypatch.setattr(simulate, "run_batch", lambda scenario: batches.append(scenario))
    code = main(["sweep", str(path), "--param", "discount.delta", *args,
                 "--out", str(tmp_path / "sweep")])
    assert (code, batches) == (EXIT_VALIDATION, [])
    captured = capsys.readouterr()
    assert (captured.out, captured.err.splitlines()) == ("", expected)


def test_sweep_of_epsilon_refuses_an_invalid_kernel(tmp_path, monkeypatch, capsys):
    # Rescaling would make each point's kernel valid; the document's is not.
    doc = yaml.safe_load(FIXED_RULES)
    _grim_pair_with_invalid_kernel(doc)
    path = tmp_path / "grim.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    batches = []
    monkeypatch.setattr(simulate, "run_batch", lambda scenario: batches.append(scenario))
    code = main(["sweep", str(path), "--param", "kernel.epsilon", "--values", "0.05,0.1",
                 "--out", str(tmp_path / "sweep")])
    assert (code, batches) == (EXIT_VALIDATION, [])
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: kernel.matrix: transition kernel entries must lie in [0, 1]\n")
    assert not (tmp_path / "sweep").exists()


# The last value of a key given twice would silently win.
# Each entry: (the key, the command).
TWICE = {
    "set_twice": ("horizon", ["validate", "{path}", "--set", "horizon=0", "--set", "horizon=5"]),
    "set_and_seed": ("master_seed", ["run", "{path}", "--set", "master_seed=1", "--seed", "2",
                                     "--out", "{out}"]),
    "set_and_replicas": ("replica_count", ["run", "{path}", "--set", "replica_count=5",
                                           "--replicas", "3", "--out", "{out}"]),
    "sweep_set_twice": ("horizon", ["sweep", "{path}", "--param", "discount.delta", "--values",
                                    "0.5,0.6", "--set", "horizon=3", "--set", "horizon=4",
                                    "--out", "{out}"]),
}


@pytest.mark.parametrize("case", sorted(TWICE))
def test_an_override_key_given_twice_is_refused(case, fixed_rules_file, tmp_path, capsys):
    key, command = TWICE[case]
    args = [arg.format(path=fixed_rules_file, out=tmp_path / "out") for arg in command]
    assert main(args) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", (
        f"error: {key} is overridden twice by --set, --seed or --replicas; "
        "the last value would replace the first\n"))
    assert not (tmp_path / "out").exists()


def test_sweep_over_a_list_element(tmp_path):
    path = tmp_path / "mc.yaml"
    path.write_text(MUTABLE_CORE, encoding="utf-8")
    out = tmp_path / "sweep"
    code = main(small(["sweep", str(path), "--param", "miners.3.meta_budget",
                       "--values", "0,0.5,1", "--out", str(out)], replicas=2))
    assert code == EXIT_OK
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [
        ["miners.3.meta_budget", value] for value in ("0", "0.5", "1")
    ]


def test_sweep_delta_brackets_threshold(tmp_path):
    # Myopic deviator in a grim population: defects immediately at delta 0.3,
    # cooperates for the whole horizon at delta 0.7 (threshold 0.5).
    doc = yaml.safe_load(FIXED_RULES)
    doc["miners"][1]["strategy"] = "MyopicBestResponse"
    doc["horizon"] = 60
    doc["replica_count"] = 3
    path = tmp_path / "deviator.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    out = tmp_path / "sweep"
    code = main(
        ["sweep", str(path), "--param", "discount.delta", "--values", "0.3,0.7",
         "--out", str(out)]
    )
    assert code == EXIT_OK
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0].startswith("param,value,mean_cooperation_duration")
    low = rows[1].split(",")
    high = rows[2].split(",")
    assert low[1] == "0.3" and high[1] == "0.7"
    assert float(low[2]) <= 1.0  # defection at round 0 collapses cooperation
    assert float(high[2]) == 60.0
    assert float(low[4]) == 1.0 and float(high[4]) == 0.0


def test_sweep_frees_each_point_batch(tmp_path):
    # A point's trace must be freed before the next point runs, so a sweep
    # peaks at about one point's run_batch. The sweep's own parsed documents
    # and rows cost a fixed 35-55 KB, so R must make one point's record large
    # beside them: on mutable_core at R=1000, H=200 the sweep measured 1.07x
    # the largest point peak (856 KB), against 1.62x while each batch lived
    # on into the next point.
    doc = yaml.safe_load(MUTABLE_CORE)
    doc["replica_count"] = 1000
    path = tmp_path / "mutable_core.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    values = ["0", "0.05", "0.2"]
    point_peaks = []
    for value in values:
        scenario = parse_document(doc, {"kernel.epsilon": value})
        tracemalloc.start()
        try:
            run_batch(scenario)
            point_peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    tracemalloc.start()
    try:
        code = main(["sweep", str(path), "--param", "kernel.epsilon",
                     "--values", ",".join(values), "--out", str(tmp_path / "sweep")])
        sweep_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert sweep_peak <= 1.1 * max(point_peaks)


def test_sweep_epsilon_duration_nonincreasing(tmp_path):
    doc = yaml.safe_load(FIXED_RULES)
    # two states sharing the PD table so the kernel can actually mutate
    doc["game"]["states"] = [
        {"id": 0, "label": "baseline"}, {"id": 1, "label": "forked"}
    ]
    doc["game"]["payoffs"]["forked"] = dict(doc["game"]["payoffs"]["baseline"])
    doc["kernel"]["matrix"] = [[1.0, 0.0], [0.0, 1.0]]
    doc["trigger_on_mutation"] = True
    doc["horizon"] = 80
    doc["replica_count"] = 40
    path = tmp_path / "grim.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    out = tmp_path / "sweep"
    code = main(
        ["sweep", str(path), "--param", "kernel.epsilon",
         "--values", "0,0.05,0.2", "--out", str(out)]
    )
    assert code == EXIT_OK
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    durations = [float(r.split(",")[2]) for r in rows]
    assert durations[0] >= durations[1] >= durations[2]
    assert durations[0] > durations[2]


def test_analyze_reports_analytics(fixed_rules_file, capsys):
    assert main(["analyze", str(fixed_rules_file)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "pure Nash profiles: DD" in out
    assert "grim delta_star: 0.500000" in out
    assert "epsilon_max: 0.000000" in out
    assert "integrity: 1.000000" in out
    assert "cooperation condition" in out and "holds" in out


def test_analyze_uniform_kernel_metrics(tmp_path, capsys):
    doc = yaml.safe_load(FIXED_RULES)
    doc["game"]["states"] = [{"id": i, "label": f"s{i}"} for i in range(4)]
    doc["game"]["payoffs"] = {f"s{i}": doc["game"]["payoffs"]["baseline"] for i in range(4)}
    doc["kernel"]["matrix"] = [[0.25] * 4 for _ in range(4)]
    path = tmp_path / "uniform.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert main(["analyze", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "entropy (uniform weighting): 1.386294 nats" in out  # ln 4
    assert "integrity: 0.250000" in out
    assert "epsilon_max: 0.750000" in out


def test_analyze_mutable_core_reports_investment(tmp_path, capsys):
    from mutagame.presets import MUTABLE_CORE

    path = tmp_path / "mutable_core.yaml"
    path.write_text(MUTABLE_CORE, encoding="utf-8")
    assert main(["analyze", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "npv" in out and "breakeven horizon" in out
    assert "fails" in out  # delta 0.5 sits below every state threshold


def test_analyze_rates_are_the_rates_the_engine_runs(tmp_path, capsys):
    # The MetaInvestor's lobbying moves mutable_core's chain off its
    # kernel's 0.1. Each state's empirical leave frequency over 2,000
    # replicas (the preset's seed, fixed before looking) lies within 4 SE of
    # the rate analyze prints; against 0.1 it missed by z = 22.2 and 18.7.
    # A lone MetaInvestor wins the contest at every exponent: raw powers of
    # its effort 0.05 underflowed past about 249, and analyze printed 0.1.
    path = tmp_path / "mutable_core.yaml"
    path.write_text(MUTABLE_CORE, encoding="utf-8")
    for exponent in ("1.0", "250.0", "1.0e+300"):
        assert main(["analyze", str(path), "--set", f"meta.contest_exponent={exponent}"]) == EXIT_OK
        printed = re.search(r"mutation rate per state: \[(.*)\]", capsys.readouterr().out)
        rates = [float(rate) for rate in printed.group(1).split(",")]
        assert rates == [0.098, 0.118, 0.118], exponent
    _, batch = run_batch(parse_document(yaml.safe_load(MUTABLE_CORE), {"replica_count": "2000"}))
    left = batch.states[:, 1:] != batch.states[:, :-1]
    for state, rate in enumerate(rates):
        trials = batch.states[:, :-1] == state
        frequency = np.count_nonzero(left[trials]) / np.count_nonzero(trials)
        se = math.sqrt(rate * (1.0 - rate) / np.count_nonzero(trials))
        assert abs(frequency - rate) <= 4 * se, (state, frequency)


# T - P overflows float64 in the first table; in the second T - R, R - P and
# T - P are finite, but the continuation of R - P at a delta one ulp below 1
# is not. analyze printed 8 report lines, then a validation error (exit 1)
# naming an internal parameter.
GRIM_OVERFLOWS = {
    "payoff_differences": ({"CC": [1.0e308, 1.0e308], "CD": [-1.0e308, 1.7e308],
                            "DC": [1.7e308, -1.0e308], "DD": [-1.0e308, -1.0e308]}, 0.9),
    "continuation": ({"CC": [1e300, 1e300], "CD": [0.0, 2e300], "DC": [2e300, 0.0],
                      "DD": [0.0, 0.0]}, 0.9999999999999999),
}


@pytest.mark.parametrize("case", sorted(GRIM_OVERFLOWS))
def test_analyze_refuses_overflowing_grim_quantities(case, tmp_path):
    table, delta = GRIM_OVERFLOWS[case]
    doc = yaml.safe_load(FIXED_RULES)
    doc["game"]["payoffs"]["baseline"] = table
    doc["discount"]["delta"] = delta
    path = tmp_path / "overflow.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    result = subprocess.run([sys.executable, "-m", "mutagame.cli", "analyze", str(path)],
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (EXIT_CAPACITY, "")
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "overflow float64" in lines[0]


def test_analyze_prints_nothing_before_a_refusal(fixed_rules_file, monkeypatch, capsys):
    # pure_nash's player limit is refused for the first state, after the
    # kernel lines are computed; none of them is printed.
    from mutagame import equilibrium

    monkeypatch.setattr(equilibrium, "MAX_NASH_PLAYERS", 1)
    assert main(["analyze", str(fixed_rules_file)]) == EXIT_CAPACITY
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: pure_nash supports at most 1 players, got 2\n"


def test_analyze_investment_past_float_range_never_breaks_even(tmp_path, capsys):
    # (1 + rate) ** t passes float range before the plan breaks even; the
    # loop raised OverflowError, and analyze ended in a traceback.
    path = tmp_path / "mutable_core.yaml"
    path.write_text(MUTABLE_CORE, encoding="utf-8")
    assert main(["analyze", str(path), "--set", "noise.segments.1.value=1.5",
                 "--set", "investment.upfront_cost=10000"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "  breakeven horizon: (never)\n" in out
    npv = float(re.search(r"  npv: (\S+)\n", out).group(1))
    assert math.isfinite(npv) and npv < 0.0


@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_nonpositive_first_investment_return_is_a_violation(command, tmp_path, capsys):
    doc = yaml.safe_load(MUTABLE_CORE)
    doc["investment"]["expected_returns"][0] = 0.0
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert main([command, str(path)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: investment.expected_returns[0]: per-period return must be positive, got 0.0\n"
    )


def test_exit_code_constants_are_distinct():
    assert len({EXIT_OK, EXIT_VALIDATION, EXIT_IO, EXIT_CAPACITY, EXIT_INTERNAL}) == 5


def test_a_bug_exits_with_its_own_code_and_traceback(fixed_rules_file, tmp_path):
    # Python exits 1, the validation code, on any traceback; entry() prints
    # the traceback and exits 4. main() still raises it to an in-process
    # caller (test_writer_bug_is_not_reported_as_io_error).
    argv = ["run", str(fixed_rules_file), "--out", str(tmp_path / "out"), *small([], 3)]
    code = (
        "import sys\n"
        "from mutagame import cli\n"
        "def write_trace_csv(path, scenario, batch):\n"
        "    raise IndexError('list index out of range')\n"
        "cli.write_trace_csv = write_trace_csv\n"
        f"sys.argv = ['mutagame', *{argv!r}]\n"
        "sys.exit(cli.entry())\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == EXIT_INTERNAL
    assert result.stdout == ""
    assert result.stderr.startswith("Traceback (most recent call last):\n")
    assert "in write_trace_csv\n" in result.stderr
    assert result.stderr.endswith("\nIndexError: list index out of range\n")


def test_main_leaves_the_heap_unfrozen(fixed_rules_file):
    frozen = gc.get_freeze_count()
    assert main(["validate", str(fixed_rules_file)]) == EXIT_OK
    assert gc.get_freeze_count() == frozen


def test_program_entries_freeze_the_import_time_heap(fixed_rules_file):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    script = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    module, _, function = script["mutagame"].partition(":")
    launchers = [
        "runpy.run_module('mutagame.cli', run_name='__main__')",  # python -m
        f"sys.exit(importlib.import_module({module!r}).{function}())",  # console script
    ]
    for launcher in launchers:
        code = (
            "import gc, importlib, runpy, sys\n"
            "sys.argv = ['mutagame', 'validate', sys.argv[1]]\n"
            "try:\n"
            f"    {launcher}\n"
            "except SystemExit as exc:\n"
            "    print(exc.code, gc.get_freeze_count())\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code, str(fixed_rules_file)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        exit_code, frozen = result.stdout.split()[-2:]
        assert exit_code == str(EXIT_OK) and int(frozen) > 0, launcher


def test_cli_commands_never_load_numpy_random(tmp_path):
    # The draws compute PCG64 themselves; only replica_rng, the documented
    # reference of the stream, loads numpy.random.
    code = (
        "import sys\n"
        "from mutagame.cli import main\n"
        "out, path = sys.argv[1], sys.argv[1] + '/mutable_core.yaml'\n"
        "small = ['--replicas', '3', '--set', 'horizon=20']\n"
        "codes = [\n"
        "    main(['preset', 'mutable_core', '--out', path]),\n"
        "    main(['run', path, '--out', out + '/run', *small]),\n"
        "    main(['sweep', path, '--param', 'kernel.epsilon', '--values', '0,0.1',\n"
        "          '--out', out + '/sweep', *small]),\n"
        "    main(['validate', path]),\n"
        "    main(['analyze', path]),\n"
        "]\n"
        "print(*codes, 'numpy.random' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split()[-6:] == [str(EXIT_OK)] * 5 + ["False"]


def test_contest_at_exponent_one_never_loads_decimal(tmp_path):
    # mutable_core's contest runs at exponent 1, where each weight is its
    # relative effort; `decimal` is loaded only for a true power.
    code = (
        "import sys\n"
        "from mutagame.cli import main\n"
        "out, path = sys.argv[1], sys.argv[1] + '/mutable_core.yaml'\n"
        "main(['preset', 'mutable_core', '--out', path])\n"
        "print(main(['run', path, '--out', out, '--replicas', '3', '--set', 'horizon=20']),\n"
        "      'decimal' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split()[-2:] == [str(EXIT_OK), "False"]


def _entry_launchers():
    """``python -m mutagame.cli`` and the console script, as child-process code."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    script = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    module, _, function = script["mutagame"].partition(":")
    return [
        "runpy.run_module('mutagame.cli', run_name='__main__')",  # python -m
        f"sys.exit(importlib.import_module({module!r}).{function}())",  # console script
    ]


def test_scenario_boundary_never_loads_numpy(fixed_rules_file):
    # Checking a scenario needs no array: numpy is most of the package's
    # import time. The CLI commands are checked in
    # test_each_command_loads_only_what_it_runs.
    code = (
        "import sys\n"
        "import mutagame\n"
        "scenario = mutagame.load_scenario(sys.argv[1])\n"
        "print(scenario.n, 'numpy' in sys.modules)\n"
        "from mutagame import run_batch\n"
        "print(run_batch.__module__, 'numpy' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", code, str(fixed_rules_file)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["2 False", "mutagame.simulate True"]


ENGINE_COMMANDS = {"run": [], "sweep": ["--param", "discount.delta", "--values", "0.5,0.6"]}


def _engine_command_started(launcher, command, scenario_file, report, env=None):
    """Start ``command`` on ``scenario_file`` in a child through ``launcher``
    and stop it where it would load the scenario; return what the child's
    expression ``report`` printed there."""
    code = (
        "import gc, importlib, os, runpy, sys\n"
        "import mutagame.scenario\n"
        "def started(*args):\n"
        f"    print({report})\n"
        "    sys.exit(0)\n"
        "mutagame.scenario.load_scenario = mutagame.scenario.load_document = started\n"
        f"sys.argv = ['mutagame', {command!r}, sys.argv[1], *{ENGINE_COMMANDS[command]!r}]\n"
        "try:\n"
        f"    {launcher}\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
    )
    result = subprocess.run([sys.executable, "-c", code, str(scenario_file)],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_engine_commands_start_with_numpy_frozen(fixed_rules_file):
    # entry() freezes the heap that the engine's imports build before a
    # command runs; imported after the freeze, numpy's objects would be
    # scanned by every later collection.
    reference = subprocess.run(
        [sys.executable, "-c", "import gc, numpy, mutagame.simulate\n"
                               "gc.freeze()\n"
                               "print(gc.get_freeze_count())\n"],
        capture_output=True, text=True,
    )
    assert reference.returncode == 0, reference.stderr
    for launcher in _entry_launchers():
        for command in ENGINE_COMMANDS:
            frozen = _engine_command_started(launcher, command, fixed_rules_file,
                                             "gc.get_freeze_count()")
            assert int(frozen) >= int(reference.stdout) > 0, (launcher, command)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs /proc/self/task and two CPUs, where OpenBLAS starts a pool")
def test_engine_commands_run_on_one_thread(fixed_rules_file):
    # The engine calls no BLAS routine, so entry() starts numpy with one
    # OpenBLAS thread: a pool's workers spin before they sleep, doubling
    # numpy's import on two CPUs. The caller's own setting does not bring
    # the pool back; a library import leaves the environment alone.
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    for env in (base, {**base, "OPENBLAS_NUM_THREADS": "4"}):
        for launcher in _entry_launchers():
            for command in ENGINE_COMMANDS:
                tasks = _engine_command_started(launcher, command, fixed_rules_file,
                                                "len(os.listdir('/proc/self/task'))", env)
                assert tasks == "1", (launcher, command, env.get("OPENBLAS_NUM_THREADS"))
    code = "import os, mutagame.simulate\nprint('OPENBLAS_NUM_THREADS' in os.environ)\n"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=base)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False"]


# The one of csv, json, equilibrium and presets that each command loads.
OWN_MODULE = {"validate": None, "run": "json", "sweep": "csv",
              "analyze": "mutagame.equilibrium", "preset": "mutagame.presets"}


def test_each_command_loads_only_what_it_runs(fixed_rules_file, tmp_path):
    # Only `run` and `sweep` load numpy: checking a scenario needs no array,
    # and `analyze` reads the models' Python floats. cli imports each module
    # of OWN_MODULE in the one command that runs it, so `validate` loads
    # none, and the analytic code never loads in `run` or `sweep`. A
    # site-packages .pth file may load some of them in every interpreter,
    # so a command is counted against a bare child.
    names = sorted(filter(None, OWN_MODULE.values()))
    report = (f"print(','.join(n for n in {names!r} if n in sys.modules) or '-', "
              "'numpy' in sys.modules)\n")
    bare = subprocess.run([sys.executable, "-c", "import importlib, runpy, sys\n" + report],
                          capture_output=True, text=True)
    assert bare.returncode == 0, bare.stderr
    preloaded = set(bare.stdout.split()[-2].split(",")) - {"-"}
    engine = ["--replicas", "3", "--set", "horizon=20"]
    mutable_core = str(tmp_path / "mc.yaml")
    commands = [
        ["preset", "mutable_core", "--out", mutable_core],
        ["validate", str(fixed_rules_file)],
        ["run", str(fixed_rules_file), "--out", str(tmp_path / "run"), *engine],
        ["sweep", str(fixed_rules_file), *ENGINE_COMMANDS["sweep"],
         "--out", str(tmp_path / "sweep"), *engine],
        ["analyze", str(fixed_rules_file)],
        ["analyze", mutable_core],
    ]
    for launcher in _entry_launchers():
        for argv in commands:
            code = (
                "import importlib, runpy, sys\n"
                f"sys.argv = ['mutagame', *{argv!r}]\n"
                "try:\n"
                f"    {launcher}\n"
                "except SystemExit as exc:\n"
                "    print(exc.code)\n"
                f"    {report}"
            )
            result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
            assert result.returncode == 0, result.stderr
            loaded = ",".join(sorted(preloaded | {OWN_MODULE[argv[0]]} - {None})) or "-"
            numpy = str(argv[0] in ENGINE_COMMANDS)
            assert result.stdout.split()[-3:] == [str(EXIT_OK), loaded, numpy], (launcher, argv)
