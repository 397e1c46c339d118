"""The benchmark's workloads: scenario documents made from a seed, and the
CLI command each one times.

The seed only picks the scenario's master seed, so every seed exercises the
same code paths with different random streams. The run workloads start from
the program's own presets, the ones a user gets from ``mutagame preset``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HORIZON = 200
SWEEP_PARAM = "kernel.epsilon"
SWEEP_VALUES = ("0.005", "0.02", "0.1")
PRISONERS_DILEMMA = {"CC": [3.0, 3.0], "CD": [0.0, 5.0], "DC": [5.0, 0.0], "DD": [1.0, 1.0]}

Preset = Callable[[str], dict]


def master_seed(seed: int) -> int:
    return random.Random(seed).randrange(2**31)


def _mutable_run(seed: int, replicas: int, preset: Preset) -> dict:
    doc = preset("mutable_core")
    doc.update(horizon=HORIZON, replica_count=replicas, master_seed=master_seed(seed))
    return doc


def _grim_sweep(seed: int, replicas: int, preset: Preset) -> dict:
    """A GrimTrigger pair that defects from the round after the first rule
    change of a symmetric 2-state kernel, so its sweep has a closed form."""
    return {
        "schema_version": 1,
        "name": "grim_sweep",
        "horizon": HORIZON,
        "replica_count": replicas,
        "master_seed": master_seed(seed),
        "initial_state": 0,
        "trigger_on_mutation": True,
        "spiral_threshold": 0.5,
        "miners": [{"share": 0.5, "strategy": "GrimTrigger"} for _ in range(2)],
        "game": {
            "lottery_mode": False,
            "states": [{"id": 0, "label": "rules_a"}, {"id": 1, "label": "rules_b"}],
            "payoffs": {
                "rules_a": dict(PRISONERS_DILEMMA),
                "rules_b": dict(PRISONERS_DILEMMA),
            },
        },
        "kernel": {"matrix": [[0.98, 0.02], [0.02, 0.98]]},
        "discount": {"delta": 0.9},
    }


def _fixed_noisy_run(seed: int, replicas: int, preset: Preset) -> dict:
    doc = preset("fixed_rules")
    doc.update(horizon=HORIZON, replica_count=replicas, master_seed=master_seed(seed))
    doc["game"]["lottery_mode"] = True
    doc["theta"] = {"mean": 1.0, "variance": 0.04}
    return doc


@dataclass(frozen=True)
class Workload:
    name: str
    replicas: int  # per run, or per sweep point
    sweep: bool
    verdict: str  # the overall cooperation condition `analyze` must print
    document: Callable[[int, int, Preset], dict]

    @property
    def points(self) -> int:
        return len(SWEEP_VALUES) if self.sweep else 1

    def replica_rounds(self, replicas: int) -> int:
        return self.points * replicas * HORIZON

    def command(self, scenario: Path, out: Path) -> list[str]:
        if self.sweep:
            return ["sweep", str(scenario), "--param", SWEEP_PARAM,
                    "--values", ",".join(SWEEP_VALUES), "--out", str(out)]
        return ["run", str(scenario), "--out", str(out)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mutable_run", 250, False, "fails", _mutable_run),
        Workload("grim_sweep", 250, True, "holds", _grim_sweep),
        Workload("fixed_noisy_run", 400, False, "holds", _fixed_noisy_run),
    )
}
