"""Command-line front end: validate, run, sweep, analyze, preset.

Exit codes: 0 success, 1 validation failure, 2 I/O or parse failure,
3 capacity error. All file outputs are deterministic functions of the
scenario file, the overrides, and the master seed.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import yaml

from . import equilibrium, presets
from .discounting import ZERO_NOISE, breakeven_horizon, npv
from .errors import (
    CapacityError,
    ConfigurationError,
    MutagameError,
    ScenarioValidationError,
)
from .protocol import integrity, kernel_entropy, mutation_rate
from .scenario import apply_overrides, load_document, parse_document
from .simulate import BatchSummary, BatchTrace, Scenario, run_batch

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_CAPACITY = 3

TRACE_FILENAME = "trace.csv"
SUMMARY_FILENAME = "summary.json"
SWEEP_FILENAME = "sweep.csv"


def _parse_set_pairs(pairs: list[str]) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ConfigurationError(f"--set expects key=value, got {pair!r}")
        overrides[key] = value
    return overrides


def _collect_overrides(args: argparse.Namespace) -> dict[str, str]:
    overrides = _parse_set_pairs(getattr(args, "set", []) or [])
    if getattr(args, "seed", None) is not None:
        overrides["master_seed"] = str(args.seed)
    if getattr(args, "replicas", None) is not None:
        overrides["replica_count"] = str(args.replicas)
    return overrides


def _load(args: argparse.Namespace) -> Scenario:
    doc = load_document(args.scenario)
    overrides = _collect_overrides(args)
    if overrides:
        doc = apply_overrides(doc, overrides)
    return parse_document(doc, name=Path(args.scenario).stem)


def write_trace_csv(path: Path, scenario: Scenario, batch: BatchTrace) -> None:
    """Fixed schema: replica,t,state,theta,actions,payoff_0..payoff_{n-1}.

    Written one replica at a time, column by column: floats are their
    ``repr``, so every payoff and theta round-trips, ``-0.0`` included.
    """
    profile_keys = ["".join(p) for p in itertools.product("CD", repeat=scenario.n)]
    masks = batch.profile_masks()
    rounds = list(map(str, range(scenario.horizon)))
    no_theta = [""] * scenario.horizon
    header = ["replica", "t", "state", "theta", "actions"]
    header += [f"payoff_{i}" for i in range(scenario.n)]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for r, replica_index in enumerate(batch.replicas):
            thetas = no_theta if batch.theta is None else map(repr, batch.theta[r].tolist())
            columns = [
                itertools.repeat(str(replica_index)),
                rounds,
                map(str, batch.states[r].tolist()),
                thetas,
                map(profile_keys.__getitem__, masks[r].tolist()),
                *(map(repr, payoffs) for payoffs in batch.payoffs[r].T.tolist()),
            ]
            handle.write("\n".join(map(",".join, zip(*columns))) + "\n")


def write_summary_json(path: Path, scenario: Scenario, summary: BatchSummary) -> None:
    payload = {
        "scenario": scenario.name,
        "master_seed": scenario.master_seed,
        "horizon": scenario.horizon,
        **summary.to_dict(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def _print_summary(scenario: Scenario, summary: BatchSummary) -> None:
    print(f"scenario                        {scenario.name}")
    print(f"replicas                        {summary.replica_count}")
    print(f"spiral_frequency                {summary.spiral_frequency:.4f}")
    print(f"mean_cooperation_duration       {summary.mean_cooperation_duration:.4f}")
    print(f"mean_final_cooperation_fraction {summary.mean_final_cooperation_fraction:.4f}")
    print(
        "mutations_per_replica           "
        f"{summary.mutation_count_mean:.4f} "
        f"(std {summary.mutation_count_std:.4f}, "
        f"min {summary.mutation_count_min}, max {summary.mutation_count_max})"
    )
    print("miner  strategy             share   mean_utility  std_utility   risk_adjusted")
    for i, miner in enumerate(scenario.miners):
        print(
            f"{i:<6d} {miner.strategy.tag.value:<20s} {miner.share:<7.3f} "
            f"{summary.mean_utility[i]:<13.6f} {summary.std_utility[i]:<13.6f} "
            f"{summary.risk_adjusted_utility[i]:.6f}"
        )


def cmd_validate(args: argparse.Namespace) -> int:
    _load(args)
    print("OK")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    scenario = _load(args)
    summary, batch = run_batch(scenario)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trace_csv(out_dir / TRACE_FILENAME, scenario, batch)
    write_summary_json(out_dir / SUMMARY_FILENAME, scenario, summary)
    _print_summary(scenario, summary)
    return EXIT_OK


def _ci_half_width(samples: np.ndarray) -> float:
    if samples.size <= 1:
        return 0.0
    return float(1.96 * samples.std(ddof=1) / math.sqrt(samples.size))


def cmd_sweep(args: argparse.Namespace) -> int:
    values = [v for v in (s.strip() for s in args.values.split(",")) if v]
    if len(values) < 2:
        raise ConfigurationError("sweep needs at least two values")
    doc = load_document(args.scenario)
    base_overrides = _collect_overrides(args)
    rows = []
    for value in values:
        overrides = dict(base_overrides)
        overrides[args.param] = value
        point_doc = apply_overrides(doc, overrides)
        scenario = parse_document(point_doc, name=Path(args.scenario).stem)
        summary, batch = run_batch(scenario)
        durations = batch.cooperation_duration.astype(float)
        utilities = batch.discounted_utility.mean(axis=1)
        rows.append(
            [
                args.param,
                value,
                repr(float(durations.mean())),
                repr(_ci_half_width(durations)),
                repr(summary.spiral_frequency),
                repr(float(utilities.mean())),
                repr(_ci_half_width(utilities)),
            ]
        )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / SWEEP_FILENAME, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            [
                "param",
                "value",
                "mean_cooperation_duration",
                "cooperation_duration_ci95",
                "spiral_frequency",
                "mean_utility",
                "mean_utility_ci95",
            ]
        )
        writer.writerows(rows)
    for row in rows:
        print(
            f"{row[0]}={row[1]}: coop_duration={float(row[2]):.4f}"
            f" (ci {float(row[3]):.4f}) spiral_freq={float(row[4]):.4f}"
            f" mean_utility={float(row[5]):.6f} (ci {float(row[6]):.6f})"
        )
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    scenario = _load(args)
    game = scenario.game
    rates = mutation_rate(scenario.kernel)
    uniform = kernel_entropy(scenario.kernel, "uniform")
    stationary = kernel_entropy(scenario.kernel, "stationary")
    print(f"scenario: {scenario.name}")
    print(f"miners: {scenario.n}, protocol states: {game.num_states}")
    print("kernel")
    print(f"  mutation rate per state: {[round(e, 12) for e in rates.per_state]}")
    print(f"  epsilon_max: {rates.maximum:.6f}")
    print(f"  entropy (uniform weighting): {uniform.value:.6f} nats")
    suffix = " (fell back to uniform weights)" if stationary.fell_back_to_uniform else ""
    print(f"  entropy (stationary weighting): {stationary.value:.6f} nats{suffix}")
    print(f"  integrity: {integrity(scenario.kernel):.6f}")
    all_hold = True
    for state in range(game.num_states):
        label = game.state_labels[state]
        stage = equilibrium.NormalFormGame.from_stage_game(game, state)
        nash = equilibrium.pure_nash(stage)
        threshold = equilibrium.grim_trigger_threshold(stage)
        verdict = equilibrium.grim_cooperation_verdict(
            stage,
            scenario.delta,
            rates.per_state[state],
            scenario.post_mutation_value,
        )
        all_hold = all_hold and verdict.holds
        profiles = (
            " ".join("".join(a.symbol for a in profile) for profile in nash)
            if nash
            else "(none)"
        )
        print(f"state {state} ({label})")
        print(f"  pure Nash profiles: {profiles}")
        if threshold.always_sustainable:
            print("  grim delta_star: always sustainable (no temptation)")
        elif threshold.never_sustainable:
            print("  grim delta_star: never sustainable (punishment toothless)")
        else:
            print(f"  grim delta_star: {threshold.delta_star:.6f}")
        if scenario.n == 2:
            mixed = equilibrium.mixed_nash_2x2(stage)
            if mixed:
                p, q = mixed[0]
                print(f"  mixed equilibrium (cooperate probs): p0={p:.6f} p1={q:.6f}")
        print(
            f"  cooperation condition at delta={scenario.delta}, "
            f"epsilon={rates.per_state[state]:.6f}: "
            f"{'holds' if verdict.holds else 'fails'} "
            f"(delta*E[coop]={verdict.delta * verdict.expected_coop:.6f} vs "
            f"defect={verdict.defect_now:.6f})"
        )
    print(f"overall cooperation condition: {'holds' if all_hold else 'fails'}")
    if scenario.investment is not None:
        noise = scenario.noise if scenario.noise is not None else ZERO_NOISE
        value = npv(scenario.investment, noise)
        horizon = breakeven_horizon(
            per_period_return=scenario.investment.expected_returns[0],
            upfront_cost=scenario.investment.upfront_cost,
            noise=noise,
            max_horizon=max(1000, scenario.investment.horizon),
        )
        print("investment")
        print(f"  npv: {value:.6f}")
        print(f"  breakeven horizon: {horizon if horizon is not None else '(never)'}")
    return EXIT_OK


def cmd_preset(args: argparse.Namespace) -> int:
    if args.name not in presets.PRESETS:
        print(
            f"error: unknown preset {args.name!r}; available: "
            f"{', '.join(presets.preset_names())}",
            file=sys.stderr,
        )
        return EXIT_VALIDATION
    out_path = Path(args.out) if args.out else Path(f"{args.name}.yaml")
    out_path.write_text(presets.preset_text(args.name), encoding="utf-8")
    print(f"wrote {out_path}")
    return EXIT_OK


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None,
                        help="override master_seed")
    parser.add_argument("--replicas", type=int, default=None,
                        help="override replica_count")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a scalar scenario field (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mutagame",
        description="Deterministic repeated mining-game simulator under "
                    "mutable vs immutable protocol rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a scenario file")
    p.add_argument("scenario")
    _add_override_flags(p)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("run", help="run a Monte Carlo batch")
    p.add_argument("scenario")
    p.add_argument("--out", default="out", help="output directory")
    _add_override_flags(p)
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("sweep", help="sweep one scalar parameter")
    p.add_argument("scenario")
    p.add_argument("--param", required=True,
                   help="dotted path of the swept scalar (e.g. discount.delta, kernel.epsilon)")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--out", default="out", help="output directory")
    _add_override_flags(p)
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("analyze", help="analytic report, no simulation")
    p.add_argument("scenario")
    _add_override_flags(p)
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("preset", help="write a built-in scenario file")
    p.add_argument("name")
    p.add_argument("--out", default=None, help="output file (default <name>.yaml)")
    p.set_defaults(handler=cmd_preset)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ScenarioValidationError as exc:
        for line in exc.errors:
            print(f"error: {line}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except MutagameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except yaml.YAMLError as exc:
        print(f"error: cannot parse scenario file: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
