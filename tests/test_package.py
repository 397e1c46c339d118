"""The package's version and public names."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import mutagame

# Retired in 0.2.0: the scalar single-round API (now the reference engine in
# tests/oracles.py) and the per-replica record views of a batch.
RETIRED = {
    "PlayHistory",
    "ReplicaTrace",
    "RoundRecord",
    "SpiralReport",
    "block_lottery",
    "cooperation_duration",
    "detect_spiral",
    "parse_profile",
    "profile_key",
    "resolve_actions",
    "sample_from_cumulative",
    "sample_theta",
    "stage_payoffs",
    "step_protocol",
}


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert mutagame.__version__ == project["version"] == "0.2.0"


def test_public_names_resolve_and_retired_names_are_gone():
    for name in mutagame.__all__:
        assert getattr(mutagame, name) is not None, name
    assert not RETIRED & set(mutagame.__all__)
    assert not RETIRED & set(vars(mutagame))
    for module in pkgutil.iter_modules(mutagame.__path__):
        namespace = vars(importlib.import_module(f"mutagame.{module.name}"))
        assert not RETIRED & set(namespace), module.name
    assert not hasattr(mutagame.Action, "from_symbol")
    assert not hasattr(mutagame.NormalFormGame, "from_stage_game")
    assert not hasattr(mutagame.StrategyKind, "honest")
    assert not hasattr(mutagame.BatchTrace, "profile_masks")
