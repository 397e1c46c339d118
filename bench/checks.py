"""Output checks: each returns a list of (check, passed, detail) findings.

Run outputs are recomputed from ``trace.csv`` and compared with
``summary.json``; Monte Carlo estimates with a closed form must lie within
Z_LIMIT standard errors of it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

Z_LIMIT = 4.0
REL_TOL = 1e-9
OUTPUT_FILES = ("trace.csv", "summary.json", "sweep.csv")


def output_hashes(out_dir: Path) -> dict[str, str]:
    """sha256 of every deterministic artifact the command wrote."""
    hashes = {}
    for name in OUTPUT_FILES:
        path = out_dir / name
        if path.is_file():
            hashes[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def _close(name: str, got: float, want: float) -> tuple[str, bool, str]:
    ok = math.isclose(got, want, rel_tol=REL_TOL, abs_tol=REL_TOL)
    return name, ok, f"summary {want!r}, recomputed {got!r}"


def _within(name: str, got: float, want: float, se: float) -> tuple[str, bool, str]:
    diff = got - want
    if se > 0.0:
        z = diff / se
        return name, abs(z) <= Z_LIMIT, f"got {got:.6g}, exact {want:.6g}, z = {z:+.2f}"
    return name, diff == 0.0, f"got {got!r}, exact {want!r}, zero standard error"


def check_analyze(stdout: str, verdict: str) -> list[tuple[str, bool, str]]:
    want = f"overall cooperation condition: {verdict}"
    lines = [line.strip() for line in stdout.splitlines()]
    return [("analyze verdict", want in lines, want)]


def check_run(out_dir: Path, doc: dict) -> list[tuple[str, bool, str]]:
    """Recompute the summary's utilities, spirals and mutations from trace.csv."""
    replicas, horizon = doc["replica_count"], doc["horizon"]
    delta, threshold = doc["discount"]["delta"], doc.get("spiral_threshold", 0.5)
    n = len(doc["miners"])
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    findings = []
    utility_sum = [0.0] * n
    spirals = durations = mutations = rows = 0
    layout_ok = True
    with open(out_dir / "trace.csv", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        want_header = ["replica", "t", "state", "theta", "actions"] + [
            f"payoff_{i}" for i in range(n)
        ]
        findings.append(("trace.csv header", header == want_header, ",".join(header)))
        for replica in range(replicas):
            totals = [0.0] * n
            factor = 1.0
            last_good = -1
            previous_state = None
            for t in range(horizon):
                row = next(reader, None)
                if row is None or int(row[0]) != replica or int(row[1]) != t:
                    layout_ok = False
                    break
                rows += 1
                state = int(row[2])
                if previous_state is not None and state != previous_state:
                    mutations += 1
                previous_state = state
                if row[4].count("C") / n >= threshold:
                    last_good = t
                for i in range(n):
                    totals[i] += factor * float(row[5 + i])
                factor *= delta
            if not layout_ok:
                break
            for i in range(n):
                utility_sum[i] += totals[i]
            if last_good != horizon - 1:
                spirals += 1
                durations += last_good + 1
            else:
                durations += horizon
        rows += sum(1 for _ in reader)
    findings.append(
        ("trace.csv rows", layout_ok and rows == replicas * horizon,
         f"{1 + rows} lines for 1 + {replicas}*{horizon}")
    )
    if not layout_ok:
        return findings
    findings.append(("replica_count", summary["replica_count"] == replicas,
                     str(summary["replica_count"])))
    for i in range(n):
        findings.append(_close(f"mean_utility[{i}]", utility_sum[i] / replicas,
                               summary["mean_utility"][i]))
    findings.append(_close("spiral_frequency", spirals / replicas,
                           summary["spiral_frequency"]))
    findings.append(_close("mean_cooperation_duration", durations / replicas,
                           summary["mean_cooperation_duration"]))
    findings.append(_close("mutation_count_mean", mutations / replicas,
                           summary["mutation_count_mean"]))
    return findings


def grim_duration_moments(epsilon: float, horizon: int) -> tuple[float, float]:
    """Mean and variance of min(M + 1, H), M ~ Geometric(epsilon) on {1, 2, ...}:
    P(D = d) = eps (1 - eps)^(d - 2) for 2 <= d < H and (1 - eps)^(H - 2) at H."""
    m1 = m2 = 0.0
    for d in range(2, horizon):
        p = epsilon * (1.0 - epsilon) ** (d - 2)
        m1 += d * p
        m2 += d * d * p
    tail = (1.0 - epsilon) ** (horizon - 2)
    m1 += horizon * tail
    m2 += horizon * horizon * tail
    return m1, m2 - m1 * m1


def check_grim_sweep(out_dir: Path, doc: dict, values: tuple[str, ...]) -> list[tuple[str, bool, str]]:
    """Cooperation duration and spiral frequency against their closed forms."""
    replicas, horizon = doc["replica_count"], doc["horizon"]
    with open(out_dir / "sweep.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    findings = [("sweep.csv rows", [r["value"] for r in rows] == list(values),
                 f"{len(rows)} rows")]
    for row in rows[: len(values)]:
        eps = float(row["value"])
        mean, var = grim_duration_moments(eps, horizon)
        findings.append(_within(f"mean_cooperation_duration @ {eps}",
                                float(row["mean_cooperation_duration"]), mean,
                                math.sqrt(var / replicas)))
        p = 1.0 - (1.0 - eps) ** (horizon - 2)
        findings.append(_within(f"spiral_frequency @ {eps}", float(row["spiral_frequency"]),
                                p, math.sqrt(p * (1.0 - p) / replicas)))
    return findings


def check_fixed_noisy(out_dir: Path, doc: dict) -> list[tuple[str, bool, str]]:
    """Immutable rules never spiral; each round pays CC * theta to the lottery
    winner, so a miner expects share * mean(theta) * CC per round. (Clamping
    theta at 0 moves that by about 1e-8 of it at the benchmark's theta.)"""
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    replicas, horizon = doc["replica_count"], doc["horizon"]
    delta = doc["discount"]["delta"]
    theta = doc["theta"]["mean"]
    all_cooperate = doc["game"]["payoffs"][doc["game"]["states"][0]["label"]]["CC"]
    findings = [
        ("spiral_frequency", summary["spiral_frequency"] == 0.0,
         str(summary["spiral_frequency"])),
        ("mutation_count_max", summary["mutation_count_max"] == 0,
         str(summary["mutation_count_max"])),
    ]
    annuity = (1.0 - delta**horizon) / (1.0 - delta)
    for i, miner in enumerate(doc["miners"]):
        want = all_cooperate[i] * miner["share"] * theta * annuity
        se = summary["std_utility"][i] / math.sqrt(replicas)
        findings.append(_within(f"mean_utility[{i}]", summary["mean_utility"][i], want, se))
    return findings
