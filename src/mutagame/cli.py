"""Command-line front end: validate, run, sweep, analyze, preset.

Exit codes: 0 success, 1 validation failure, 2 I/O or parse failure,
3 capacity error or out of memory. All file outputs are deterministic
functions of the scenario file, the overrides, and the master seed.
"""

from __future__ import annotations

import argparse
import csv
import gc
import itertools
import json
import math
import os
import sys
import warnings
from pathlib import Path
from typing import TextIO

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
from .scenario import apply_overrides, load_document, load_scenario, parse_document
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


def _write_rows(
    handle: TextIO, scenario: Scenario, batch: BatchTrace, masks: np.ndarray, rows: range
) -> None:
    """Write the trace lines of the replicas at positions ``rows`` of ``batch``;
    ``masks`` is ``batch.profile_masks()``.

    Written one replica at a time, column by column: floats are their
    ``repr``, so every payoff and theta round-trips, ``-0.0`` included.
    Each distinct payoff is formatted once per replica, keyed by its bits
    (so ``-0.0`` and ``0.0`` stay apart); theta differs every round and is
    formatted field by field.
    """
    profile_keys = ["".join(p) for p in itertools.product("CD", repeat=scenario.n)]
    state_keys = list(map(str, range(len(scenario.game))))
    rounds = list(map(str, range(scenario.horizon)))
    no_theta = [""] * scenario.horizon
    for r in rows:
        thetas = no_theta if batch.theta is None else map(repr, batch.theta[r].tolist())
        bits, inverse = np.unique(batch.payoffs[r].T.view(np.uint64), return_inverse=True)
        values = list(map(repr, bits.view(np.float64).tolist()))
        payoff_columns = inverse.reshape(scenario.n, scenario.horizon).tolist()
        columns = [
            itertools.repeat(str(batch.replicas[r])),
            rounds,
            map(state_keys.__getitem__, batch.states[r].tolist()),
            thetas,
            map(profile_keys.__getitem__, masks[r].tolist()),
            *(map(values.__getitem__, column) for column in payoff_columns),
        ]
        handle.write("\n".join(map(",".join, zip(*columns))) + "\n")


# A worker's fork, temporary file, wait and append cost 3-10 ms on a 2-vCPU
# host, what one process takes to format 3,000-10,000 lines, so the batch is
# split only when each half holds at least this many lines.
_MIN_LINES_PER_WRITER = 10_000


def _worker_split(count: int, horizon: int) -> int:
    """The first replica that a forked worker formats: ``count // 2``, or
    ``count`` for no worker. There is a worker only where this process can
    fork and may run on two CPUs or more (its ``sched_getaffinity`` set), and
    only for two replicas or more with ``_MIN_LINES_PER_WRITER`` trace lines
    (``horizon`` per replica) in each half. Two processes are the only count
    measured to pay, on a 2-vCPU host."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return count
    if len(os.sched_getaffinity(0)) < 2 or count < 2:
        return count
    return count // 2 if count * horizon >= 2 * _MIN_LINES_PER_WRITER else count


def _fork_writer(
    part: TextIO, scenario: Scenario, batch: BatchTrace, masks: np.ndarray, rows: range
) -> int | None:
    """Fork a worker that writes the replicas ``rows`` into ``part``; return
    its pid, or None if the host refuses the fork (``EAGAIN``, ``ENOMEM``).
    The worker always leaves by ``os._exit``, never returning into the
    caller: with status 0 once ``part`` holds every row, else nonzero, and it
    reports nothing more. The caller writes the rows itself on any failure."""
    with warnings.catch_warnings():
        # Python 3.12+ warns on fork() in a multi-threaded process, and
        # numpy's idle BLAS thread pool makes this one so. The worker calls no
        # BLAS routine and leaves by os._exit, so it never waits on a lock
        # held by a thread it did not inherit.
        warnings.filterwarnings("ignore", r"This process .* is multi-threaded", DeprecationWarning)
        try:
            pid = os.fork()
        except OSError:
            return None
    if pid:
        return pid
    status = 1
    try:
        _write_rows(part, scenario, batch, masks, rows)
        part.flush()
        status = EXIT_OK
    finally:
        os._exit(status)


def write_trace_csv(path: Path, scenario: Scenario, batch: BatchTrace) -> None:
    """Fixed schema: replica,t,state,theta,actions,payoff_0..payoff_{n-1}.

    Rows are formatted by ``_write_rows``. Where ``_worker_split`` gives a
    split, a forked worker writes the replicas from it on into an anonymous
    temporary file in the same directory while this process writes the
    header and the replicas before it into ``path``; the temporary file is
    appended once the worker has exited. If the fork is refused, or the
    worker does not exit 0 (an error, or a signal such as the OOM killer's),
    this process empties that file and writes those replicas itself, so an
    error they raise is raised here. The bytes never depend on the split.
    """
    import shutil  # only `run` needs these, so `validate` does not import them here
    import tempfile

    header = ["replica", "t", "state", "theta", "actions"]
    header += [f"payoff_{i}" for i in range(scenario.n)]
    masks = batch.profile_masks()
    count = len(batch.replicas)
    split = _worker_split(count, scenario.horizon)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        if split == count:
            _write_rows(handle, scenario, batch, masks, range(count))
            return
        with tempfile.TemporaryFile("w+", encoding="utf-8", newline="", dir=path.parent) as part:
            # Flushed before the fork, no buffer the worker inherits holds bytes it could write again.
            for stream in (handle, sys.stdout, sys.stderr):
                stream.flush()
            pid = _fork_writer(part, scenario, batch, masks, range(split, count))
            try:
                _write_rows(handle, scenario, batch, masks, range(split))
            finally:
                status = None if pid is None else os.waitpid(pid, 0)[1]
            if status != 0:
                part.seek(0)
                part.truncate()
                _write_rows(part, scenario, batch, masks, range(split, count))
            handle.flush()
            part.seek(0)
            shutil.copyfileobj(part.buffer, handle.buffer)


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
    load_scenario(args.scenario, _collect_overrides(args))
    print("OK")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
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
        del batch  # free this point's trace before the next point runs
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
    scenario = load_scenario(args.scenario, _collect_overrides(args))
    game = scenario.game
    rates = mutation_rate(scenario.kernel)
    uniform = kernel_entropy(scenario.kernel, "uniform")
    stationary = kernel_entropy(scenario.kernel, "stationary")
    print(f"scenario: {scenario.name}")
    print(f"miners: {scenario.n}, protocol states: {len(game)}")
    print("kernel")
    print(f"  mutation rate per state: {[round(e, 12) for e in rates.per_state]}")
    print(f"  epsilon_max: {rates.maximum:.6f}")
    print(f"  entropy (uniform weighting): {uniform.value:.6f} nats")
    suffix = " (fell back to uniform weights)" if stationary.fell_back_to_uniform else ""
    print(f"  entropy (stationary weighting): {stationary.value:.6f} nats{suffix}")
    print(f"  integrity: {integrity(scenario.kernel):.6f}")
    all_hold = True
    for state, (label, stage) in enumerate(zip(game.state_labels, game)):
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
            " ".join("".join(a.value for a in profile) for profile in nash)
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
    # frozen. Not in main(), which tests call in-process.
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
