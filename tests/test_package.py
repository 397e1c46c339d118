"""The package's version and public names."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mutagame

# Retired in 0.2.0: the scalar single-round API (now the reference engine in
# tests/oracles.py) and the per-replica record views of a batch. Retired in
# 0.3.0: the per-round sample statistics (now the risk-adjusted reference in
# tests/oracles.py), the engine's separate summary pass and the uncalled
# truncation horizon. Retired in 0.4.0: the Action enum (pure_nash returns
# C/D keys; the scalar reference keeps its own in tests/oracles.py) and the
# wrappers around the preset table.
RETIRED = {
    "Action",
    "PayoffVariance",
    "PlayHistory",
    "ReplicaTrace",
    "RoundRecord",
    "SpiralReport",
    "block_lottery",
    "cooperation_duration",
    "detect_spiral",
    "parse_profile",
    "payoff_variance",
    "preset_names",
    "preset_text",
    "profile_key",
    "resolve_actions",
    "risk_adjusted_utility",
    "sample_from_cumulative",
    "sample_theta",
    "stage_payoffs",
    "step_protocol",
    "summarize_batch",
    "truncation_horizon",
}


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert mutagame.__version__ == project["version"] == "0.4.0"


def test_public_names_resolve_and_retired_names_are_gone():
    for name in mutagame.__all__:
        assert getattr(mutagame, name) is not None, name
    assert not RETIRED & set(mutagame.__all__)
    assert not RETIRED & set(vars(mutagame))
    for module in pkgutil.iter_modules(mutagame.__path__):
        namespace = vars(importlib.import_module(f"mutagame.{module.name}"))
        assert not RETIRED & set(namespace), module.name
    assert not hasattr(mutagame.NormalFormGame, "from_stage_game")
    assert not hasattr(mutagame.StrategyKind, "honest")
    assert not hasattr(mutagame.BatchTrace, "profile_masks")
    assert not hasattr(mutagame.TransitionKernel, "row")
    assert not hasattr(mutagame.TransitionKernel, "identity")


FAILING_HYPOTHESIS_TEST = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    # Hypothesis reports a failure through libcst, whose import warns; under
    # this project's warnings-as-errors that once ended the whole session.
    (tmp_path / "test_example.py").write_text(FAILING_HYPOTHESIS_TEST, encoding="utf-8")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(pyproject),
         "--rootdir", str(tmp_path), "test_example.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout.splitlines()[-1], done.stdout[-2000:]
