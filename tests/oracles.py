"""Independent oracles shared across test modules.

The Nash oracle is deliberately written against the plain dict
representation of a game, with no reliance on the package's tensor layout,
so it stays an independent check of the enumeration code paths. The scalar
engine plays one replica round by round through the single-round library
functions; it is the reference for the replica-vectorized batch engine. The
row-at-a-time ``csv.writer`` trace writer is the reference for the columnar
one in ``mutagame.cli``.
"""

import csv
import itertools

import numpy as np

from mutagame import (
    BatchSummary,
    PlayHistory,
    ReplicaTrace,
    StrategyTag,
    apply_meta_influence,
    block_lottery,
    detect_spiral,
    discounted_utility,
    endogenous_discount_path,
    replica_rng,
    resolve_actions,
    risk_adjusted_utility,
    sample_theta,
    stage_payoffs,
    step_protocol,
)
from mutagame.protocol import sample_from_cumulative
from mutagame.simulate import RoundRecord


def nash_oracle(profile_map: dict[str, list[float]]) -> set[str]:
    """Exhaustive pure-Nash check: a profile survives when no single-letter
    flip strictly improves the flipped player's payoff."""
    equilibria = set()
    for key, payoffs in profile_map.items():
        improvable = False
        for player, action in enumerate(key):
            flipped = key[:player] + ("D" if action == "C" else "C") + key[player + 1 :]
            if profile_map[flipped][player] > payoffs[player]:
                improvable = True
                break
        if not improvable:
            equilibria.add(key)
    return equilibria


def random_profile_map(rng: np.random.Generator, n: int) -> dict[str, list[float]]:
    return {
        "".join(p): [float(v) for v in rng.integers(-5, 6, size=n)]
        for p in itertools.product("CD", repeat=n)
    }


def scalar_replica(scenario, replica_index):
    """Reference engine: the per-round scalar loop, one replica at a time.

    It resolves actions, steps the protocol, draws theta and the lottery
    winner and pays each round through the single-round library functions,
    in the documented draw order. The batch engine must reproduce it bit
    for bit.
    """
    rng = replica_rng(scenario.master_seed, replica_index)
    game = scenario.game
    n = scenario.n
    strategies = [m.strategy for m in scenario.miners]
    shares = [m.share for m in scenario.miners]
    investors = scenario.meta_investors()
    meta_enabled = scenario.meta.enabled and bool(investors)
    budget_keep = np.ones(n)
    if meta_enabled:
        for i, miner in enumerate(scenario.miners):
            if miner.strategy.tag is StrategyTag.META_INVESTOR:
                budget_keep[i] = 1.0 - miner.strategy.meta_budget

    history = PlayHistory(n)
    records: list[RoundRecord] = []
    payoff_matrix = np.empty((scenario.horizon, n))
    state = scenario.initial_state
    previous_state: int | None = None

    for t in range(scenario.horizon):
        mutated = previous_state is not None and state != previous_state
        profile = resolve_actions(
            strategies,
            history,
            t,
            game=game,
            state=state,
            trigger_on_mutation=scenario.trigger_on_mutation,
            discount=scenario.delta,
        )
        if meta_enabled:
            effective_row = apply_meta_influence(
                scenario.kernel.row(state), investors, scenario.meta
            )
            next_state = sample_from_cumulative(np.cumsum(effective_row), rng)
        else:
            next_state = step_protocol(scenario.kernel, state, rng)
        theta = sample_theta(scenario.theta, rng) if scenario.theta is not None else None

        payoffs = stage_payoffs(game, state, profile)
        if theta is not None:
            scale = max(0.0, theta) if scenario.theta.clamp else theta
            payoffs = payoffs * scale
        if meta_enabled:
            payoffs = payoffs * budget_keep
        winner: int | None = None
        if game.lottery_mode:
            winner = block_lottery(shares, rng)
            mask = np.zeros(n)
            mask[winner] = 1.0
            payoffs = payoffs * mask

        records.append(
            RoundRecord(
                t=t,
                state=state,
                theta=theta,
                profile=tuple(profile),
                payoffs=tuple(float(p) for p in payoffs),
                mutated=mutated,
                lottery_winner=winner,
            )
        )
        payoff_matrix[t] = payoffs
        history.append(profile, mutated)
        previous_state = state
        state = next_state

    discounted = tuple(
        discounted_utility(payoff_matrix[:, i], scenario.delta) for i in range(n)
    )
    endogenous: tuple[float, ...] | None = None
    if scenario.noise is not None:
        path = endogenous_discount_path(scenario.noise, scenario.horizon - 1)
        endogenous = tuple(float(v) for v in path @ payoff_matrix)
    return ReplicaTrace(
        replica_index=replica_index,
        records=records,
        discounted_utility=discounted,
        endogenous_utility=endogenous,
        mutation_count=sum(1 for r in records if r.mutated),
    )


def scalar_summary(scenario, traces) -> BatchSummary:
    """Reference aggregation over a list of per-replica traces."""
    n = scenario.n
    utility = np.array([t.discounted_utility for t in traces])
    mean_utility = utility.mean(axis=0)
    if len(traces) > 1:
        std_utility = utility.std(axis=0, ddof=1)
    else:
        std_utility = np.zeros(n)

    cube = np.array([[r.payoffs for r in trace.records] for trace in traces])
    risk_adjusted = tuple(
        risk_adjusted_utility(cube[:, :, i].T, scenario.delta, scenario.risk_aversion)
        for i in range(n)
    )

    durations = []
    spirals = 0
    finals = []
    for trace in traces:
        report = detect_spiral(trace, scenario.spiral_threshold)
        if report.onset_round is not None:
            spirals += 1
        durations.append(
            report.onset_round if report.onset_round is not None else scenario.horizon
        )
        finals.append(report.final_cooperation_fraction)
    mutations = np.array([t.mutation_count for t in traces])

    endogenous_mean: tuple[float, ...] | None = None
    if scenario.noise is not None:
        endo = np.array([t.endogenous_utility for t in traces])
        endogenous_mean = tuple(float(v) for v in endo.mean(axis=0))

    return BatchSummary(
        replica_count=len(traces),
        mean_utility=tuple(float(v) for v in mean_utility),
        std_utility=tuple(float(v) for v in std_utility),
        risk_adjusted_utility=risk_adjusted,
        mean_cooperation_duration=float(np.mean(durations)),
        spiral_frequency=float(spirals / len(traces)),
        mean_final_cooperation_fraction=float(np.mean(finals)),
        mutation_count_mean=float(mutations.mean()),
        mutation_count_std=float(mutations.std(ddof=1)) if len(traces) > 1 else 0.0,
        mutation_count_min=int(mutations.min()),
        mutation_count_max=int(mutations.max()),
        mean_endogenous_utility=endogenous_mean,
    )


def csv_trace_writer(path, scenario, batch) -> None:
    """Reference trace writer: one ``csv.writer`` row per round.

    Fixed schema: replica,t,state,theta,actions,payoff_0..payoff_{n-1}.
    """
    profile_keys = ["".join(p) for p in itertools.product("CD", repeat=scenario.n)]
    masks = batch.profile_masks()
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ["replica", "t", "state", "theta", "actions"]
            + [f"payoff_{i}" for i in range(scenario.n)]
        )
        for r, replica_index in enumerate(batch.replicas):
            if batch.theta is None:
                thetas = [""] * scenario.horizon
            else:
                thetas = [repr(theta) for theta in batch.theta[r].tolist()]
            rows = zip(
                batch.states[r].tolist(), thetas, masks[r].tolist(), batch.payoffs[r].tolist()
            )
            for t, (state, theta, mask, payoffs) in enumerate(rows):
                writer.writerow(
                    [replica_index, t, state, theta, profile_keys[mask]]
                    + [repr(p) for p in payoffs]
                )
