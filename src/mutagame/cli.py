"""Command-line front end: validate, run, sweep, analyze, preset.

Exit codes: 0 success, 1 validation failure, 2 I/O or parse failure,
3 capacity error or out of memory, 4 internal error (a bug: ``entry()``
prints its traceback). All file outputs are deterministic functions of the
scenario file, the overrides, and the master seed.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, TextIO

import yaml

from .discounting import ZERO_NOISE, breakeven_horizon, npv
from .errors import (
    CapacityError,
    ConfigurationError,
    MutagameError,
    ScenarioValidationError,
)
from .game import _profile_key
from .protocol import integrity, kernel_entropy, mutation_rate
from .scenario import Scenario, kernel_as_run, load_document, load_scenario, parse_document

# A module that one command alone runs is imported in that command, so no
# child carries another command's modules in its peak RSS: `run` loads json,
# `sweep` csv, `analyze` equilibrium, `preset` presets, and `validate` none.
if TYPE_CHECKING:  # `validate`, `analyze` and `preset` never load numpy; `run` and `sweep` do
    import numpy as np

    from .simulate import BatchSummary, BatchTrace

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4

TRACE_FILENAME = "trace.csv"
SUMMARY_FILENAME = "summary.json"
SWEEP_FILENAME = "sweep.csv"


def _collect_overrides(args: argparse.Namespace) -> dict[str, str]:
    """The ``--set`` pairs, then ``--seed`` as ``master_seed`` and ``--replicas``
    as ``replica_count``; a key given twice is refused, not overwritten."""
    pairs = list(args.set)
    if args.seed is not None:
        pairs.append(f"master_seed={args.seed}")
    if args.replicas is not None:
        pairs.append(f"replica_count={args.replicas}")
    overrides: dict[str, str] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ConfigurationError(f"--set expects key=value, got {pair!r}")
        if key in overrides:
            raise ConfigurationError(f"{key} is overridden twice by --set, --seed or --replicas; "
                                     "the last value would replace the first")
        overrides[key] = value
    return overrides


def _write_rows(handle: TextIO, scenario: Scenario, batch: BatchTrace) -> None:
    """Write the trace lines of every replica of ``batch``.

    Written one replica at a time, column by column: floats are their
    ``repr``, so every payoff and theta round-trips, ``-0.0`` included.
    Without theta, a line after ``replica,t,`` is a function of its code
    (state, profile mask and, with the lottery, winner): its tail is
    formatted once, when the code first occurs, by one ``payoff_rule`` call
    on the new codes. With theta, each distinct payoff is formatted once per
    replica, keyed by its bits (so ``-0.0`` and ``0.0`` stay apart), and
    theta, which differs every round, field by field.
    """
    import numpy as np

    n = scenario.n
    profile_keys = [_profile_key(mask, n) for mask in range(2**n)]
    state_keys = list(map(str, range(len(scenario.game))))
    rounds = list(map(str, range(scenario.horizon)))
    tails: dict[int, str] = {}
    for r in range(len(batch.replicas)):
        if batch.theta is None:
            codes = batch.states[r].astype(np.intp) << n | batch.profiles[r]
            if batch.winner is not None:
                codes = codes * n + batch.winner[r]
            codes = codes.tolist()
            new = list(set(codes).difference(tails))
            if new:
                rest, winner = np.array(new), None
                if batch.winner is not None:
                    rest, winner = np.divmod(rest, n)
                states, masks = rest >> n, rest & (2**n - 1)
                payoffs = batch.payoff_rule(states, masks, None, winner).tolist()
                for code, state, mask, row in zip(new, states.tolist(), masks.tolist(), payoffs):
                    tails[code] = ",".join(
                        [state_keys[state], "", profile_keys[mask], *map(repr, row)])
            line_tails = [map(tails.__getitem__, codes)]
        else:
            bits, inverse = np.unique(batch.replica_payoffs(r).T.view(np.uint64), return_inverse=True)
            values = list(map(repr, bits.view(np.float64).tolist()))
            payoff_columns = inverse.reshape(n, scenario.horizon).tolist()
            line_tails = [
                map(state_keys.__getitem__, batch.states[r].tolist()),
                map(repr, batch.theta[r].tolist()),
                map(profile_keys.__getitem__, batch.profiles[r].tolist()),
                *(map(values.__getitem__, column) for column in payoff_columns),
            ]
        columns = [itertools.repeat(str(batch.replicas[r])), rounds, *line_tails]
        handle.write("\n".join(map(",".join, zip(*columns))) + "\n")


def write_trace_csv(path: Path, scenario: Scenario, batch: BatchTrace) -> None:
    """Fixed schema: replica,t,state,theta,actions,payoff_0..payoff_{n-1}.

    Rows are formatted by ``_write_rows``.
    """
    header = ["replica", "t", "state", "theta", "actions"]
    header += [f"payoff_{i}" for i in range(scenario.n)]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        _write_rows(handle, scenario, batch)


def write_summary_json(path: Path, scenario: Scenario, summary: BatchSummary) -> None:
    import json

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
    load_scenario(args.scenario, _collect_overrides(args))
    print("OK")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    from .simulate import run_batch

    scenario = load_scenario(args.scenario, _collect_overrides(args))
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
    import csv

    import numpy as np

    from . import simulate

    values = [v for v in (s.strip() for s in args.values.split(",")) if v]
    if len(values) < 2:
        raise ConfigurationError("sweep needs at least two values")
    doc, overrides = load_document(args.scenario), _collect_overrides(args)
    if args.param in overrides:
        raise ConfigurationError(f"--param {args.param} is also overridden by --set, --seed "
                                 "or --replicas; the swept values would replace it")
    name = Path(args.scenario).stem
    # Every point is checked before any runs, and each distinct line is listed once.
    scenarios, errors = [], {}
    for value in values:
        try:
            scenarios.append(parse_document(doc, {**overrides, args.param: value}, name))
        except ScenarioValidationError as exc:
            errors.update(dict.fromkeys(exc.errors))
    if errors:
        raise ScenarioValidationError(list(errors))
    rows = []
    for value, scenario in zip(values, scenarios):
        summary, batch = simulate.run_batch(scenario)
        durations = batch.cooperation_duration.astype(float)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, with one error
            utilities = batch.discounted_utility.mean(axis=1)
            row = [float(durations.mean()), _ci_half_width(durations),
                   summary.spiral_frequency, float(utilities.mean()), _ci_half_width(utilities)]
        del batch  # free this point's trace before the next point runs
        simulate._require_finite(row)
        rows.append([args.param, value, *row])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / SWEEP_FILENAME, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["param", "value", "mean_cooperation_duration", "cooperation_duration_ci95",
                         "spiral_frequency", "mean_utility", "mean_utility_ci95"])
        writer.writerows([*row[:2], *map(repr, row[2:])] for row in rows)
    for param, value, duration, duration_ci, spiral, utility, utility_ci in rows:
        print(
            f"{param}={value}: coop_duration={duration:.4f} (ci {duration_ci:.4f})"
            f" spiral_freq={spiral:.4f} mean_utility={utility:.6f} (ci {utility_ci:.6f})"
        )
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    from . import equilibrium

    scenario = load_scenario(args.scenario, _collect_overrides(args))
    game, kernel = scenario.game, kernel_as_run(scenario)
    rates = mutation_rate(kernel)
    stationary = kernel_entropy(kernel, "stationary")
    lines = [f"scenario: {scenario.name}"]  # printed at the end: a refusal prints none
    lines.append(f"miners: {scenario.n}, protocol states: {len(game)}")
    lines.append("kernel")
    lines.append(f"  mutation rate per state: {[round(e, 12) for e in rates.per_state]}")
    lines.append(f"  epsilon_max: {rates.maximum:.6f}")
    lines.append(f"  entropy (uniform weighting): {kernel_entropy(kernel, 'uniform').value:.6f} nats")
    suffix = " (fell back to uniform weights)" if stationary.fell_back_to_uniform else ""
    lines.append(f"  entropy (stationary weighting): {stationary.value:.6f} nats{suffix}")
    lines.append(f"  integrity: {integrity(kernel):.6f}")
    all_hold = True
    for state, (label, stage) in enumerate(zip(game.state_labels, game)):
        nash = " ".join(equilibrium.pure_nash(stage)) or "(none)"
        threshold = equilibrium.grim_trigger_threshold(stage)
        verdict = equilibrium.grim_cooperation_verdict(
            stage,
            scenario.delta,
            rates.per_state[state],
            scenario.post_mutation_value,
        )
        all_hold = all_hold and verdict.holds
        lines.append(f"state {state} ({label})")
        lines.append(f"  pure Nash profiles: {nash}")
        if threshold.always_sustainable:
            lines.append("  grim delta_star: always sustainable (no temptation)")
        elif threshold.never_sustainable:
            lines.append("  grim delta_star: never sustainable (punishment toothless)")
        else:
            lines.append(f"  grim delta_star: {threshold.delta_star:.6f}")
        if scenario.n == 2:
            mixed = equilibrium.mixed_nash_2x2(stage)
            if mixed:
                p, q = mixed[0]
                lines.append(f"  mixed equilibrium (cooperate probs): p0={p:.6f} p1={q:.6f}")
        lines.append(
            f"  cooperation condition at delta={scenario.delta}, "
            f"epsilon={rates.per_state[state]:.6f}: "
            f"{'holds' if verdict.holds else 'fails'} "
            f"(delta*E[coop]={verdict.continuation:.6f} vs "
            f"defect={verdict.defect_now:.6f})"
        )
    lines.append(f"overall cooperation condition: {'holds' if all_hold else 'fails'}")
    if scenario.investment is not None:
        noise = scenario.noise if scenario.noise is not None else ZERO_NOISE
        value = npv(scenario.investment, noise)
        horizon = breakeven_horizon(
            per_period_return=scenario.investment.expected_returns[0],
            upfront_cost=scenario.investment.upfront_cost,
            noise=noise,
            max_horizon=max(1000, scenario.investment.horizon),
        )
        lines.append("investment")
        lines.append(f"  npv: {value:.6f}")
        lines.append(f"  breakeven horizon: {horizon if horizon is not None else '(never)'}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_preset(args: argparse.Namespace) -> int:
    from . import presets

    if args.name not in presets.PRESETS:
        raise ConfigurationError(
            f"unknown preset {args.name!r}; available: {', '.join(sorted(presets.PRESETS))}"
        )
    out_path = Path(args.out) if args.out else Path(f"{args.name}.yaml")
    out_path.write_text(presets.PRESETS[args.name], encoding="utf-8")
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
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except MemoryError as exc:  # e.g. numpy refusing an array larger than memory
        print(f"error: out of memory: {exc}", file=sys.stderr)
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


def entry() -> int:
    """Program entry for ``python -m mutagame.cli`` and the ``mutagame`` script."""
    # Move the import-time heap (numpy's and yaml's objects) out of every
    # later collection, the interpreter's shutdown collections included:
    # they took about 34 ms after a `run` of the mutable_core preset, 9 ms
    # frozen. Not in main(), which tests call in-process. `run` and `sweep`
    # import the engine, so they do so here, to be frozen: imported after
    # the freeze, numpy made that `run` 8% slower. An exception that main()
    # lets through is a bug, not a refusal: it exits with a code of its own.
    try:
        if sys.argv[1:2] in (["run"], ["sweep"]):
            # The engine calls no BLAS routine, so numpy's OpenBLAS pool only
            # costs: a worker per extra CPU spins ~2^28 cycles before it sleeps,
            # which doubled `import numpy` on 2 vCPUs. Set before numpy loads.
            os.environ["OPENBLAS_NUM_THREADS"] = "1"
            from . import simulate
        gc.freeze()
        return main()
    except Exception:
        import traceback

        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(entry())
