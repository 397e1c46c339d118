"""Golden fence: sha256 of the CLI's deterministic outputs, pinned.

The hashes were produced by the scalar per-replica engine (the negative-theta
and lottery-free theta cases by the batch engine's one-draw-at-a-time theta
loop, which reproduces it) and the row-at-a-time
``csv.writer`` trace writer. Any engine or writer change that alters a state,
an action, a payoff bit, a float repr or the summary fails here, unlike
run-vs-run determinism checks, which drift together.
"""

import hashlib

import pytest
import yaml

from mutagame.cli import EXIT_OK, main
from mutagame.presets import FIXED_RULES, MUTABLE_CORE


def theta_doc(theta, lottery=True):
    doc = yaml.safe_load(FIXED_RULES)
    doc["game"]["lottery_mode"] = lottery
    doc["theta"] = theta
    return doc


RUN_CASES = {
    "fixed_rules": (
        lambda: yaml.safe_load(FIXED_RULES),
        "73e767f410b77be46bb9a0531f2b2c1b1441fe172d98711d372868294819adc3",
        "e680142ac601cb87419ba3152729b091df2b1ef78029eb91663202a8e745bb1f",
    ),
    "mutable_core": (
        lambda: yaml.safe_load(MUTABLE_CORE),
        "f7c7f35b90e7a3eeb01d07459ffd9498d97d9bf6b1c7c549c8ffef35a74e64df",
        "34bd7a91b10f100655dd33a3e4fd985f961f816fefb6b53a6d65e4a5f4431e07",
    ),
    # Two draws per round: the protocol step and theta's normal.
    "fixed_rules_theta": (
        lambda: theta_doc({"mean": 1.0, "variance": 0.04}, lottery=False),
        "4891aeeb426e469d3297c239123324d54a29879fb77b700b543757f2e8899dfb",
        "396598dcce01a04c219806fa4d5b88443c58b16fbeb1884f02f32a4c5358ef8e",
    ),
    "fixed_rules_lottery_theta": (
        lambda: theta_doc({"mean": 1.0, "variance": 0.04}),
        "eb96fddf4a032522e32085446de3f4ce8a43fbc14bf8f4697ab4c308322ba0e8",
        "b9df5e5fc0d0ec002e4fe6b0cb84bc437ce97af8265355dfbd750688a9764497",
    ),
    # Unclamped theta below zero times a lottery loser's zero mask: about
    # 9.9k "-0.0" payoff fields in trace.csv.
    "fixed_rules_lottery_negative_theta": (
        lambda: theta_doc({"mean": 0.0, "variance": 1.0, "clamp": False}),
        "a184c3bee3830885c96c7f9cd45c94ce4ab27073740f0dde268787aec09497e6",
        "a3b62b627f85f8c52b962e6f684843190c759ab30a7ae0bffa7f051580056281",
    ),
}

SWEEP_SHA256 = "45c326b8f8a8dd3785465bb785a0ad04d87c08b815c62d94d33c5e31c240d6af"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(RUN_CASES))
def test_run_outputs_match_golden_hashes(case, tmp_path):
    make_doc, trace_sha, summary_sha = RUN_CASES[case]
    scenario = tmp_path / f"{case}.yaml"
    scenario.write_text(yaml.safe_dump(make_doc()), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out)]) == EXIT_OK
    assert sha256(out / "trace.csv") == trace_sha
    assert sha256(out / "summary.json") == summary_sha


def test_sweep_output_matches_golden_hash(tmp_path):
    scenario = tmp_path / "mutable_core.yaml"
    scenario.write_text(MUTABLE_CORE, encoding="utf-8")
    out = tmp_path / "out"
    assert main(
        ["sweep", str(scenario), "--param", "kernel.epsilon",
         "--values", "0,0.05,0.2", "--out", str(out)]
    ) == EXIT_OK
    assert sha256(out / "sweep.csv") == SWEEP_SHA256
