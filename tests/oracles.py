"""Independent oracles shared across test modules.

The Nash oracle is deliberately written against the plain dict
representation of a game, with no reliance on the package's tensor layout,
so it stays an independent check of the enumeration code paths. The scalar
engine plays one replica round by round through the single-round functions
below (strategy resolution, the meta contest on the kernel row, protocol
step, theta, stage payoffs, block lottery, spiral detection); it is the
reference for the replica-vectorized batch engine and returns its own
record under ``BatchTrace``'s names. The
per-round sample statistics (``payoff_variance``, ``risk_adjusted_utility``)
are the reference for the risk-adjusted summary the engine reduces round by
round. Strong
connectivity plus a BFS period is the reference for the primitivity test
of ``has_unique_stationary``. The numpy ``stationary_distribution`` and
``pure_nash`` of 0.10.0 (LAPACK least squares, vectorized comparisons) are
the references for their plain-Python successors. The row-at-a-time ``csv.writer`` trace
writer is the reference for the columnar one in ``mutagame.cli``. The
numpy checks that ``TransitionKernel`` and ``NormalFormGame`` ran up to
0.7.0 are the references for their plain-Python checks. The grim-trigger
records and the cooperation verdict of 0.8.0, which stored their verdicts,
are the reference for the records that derive them.
"""

import csv
import dataclasses
import itertools
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Sequence

import numpy as np

from mutagame import (
    BatchSummary,
    ConfigurationError,
    MetaModelConfig,
    Miner,
    NormalFormGame,
    Scenario,
    StageGameSpec,
    StrategyKind,
    StrategyTag,
    ThetaProcess,
    TransitionKernel,
    discounted_utility,
    effective_coop_value,
    endogenous_discount_path,
    replica_rng,
    validate_shares,
)
from mutagame.game import _miner_bit, _profile_key
from mutagame.protocol import ROW_TOLERANCE
from mutagame.scenario import _contest_power


class Action(Enum):
    """Per-round binary move a strategy resolves to, in the scalar reference."""

    COOPERATE = "C"
    DEFECT = "D"

    @property
    def index(self) -> int:
        return 0 if self is Action.COOPERATE else 1


_ALWAYS_COOPERATE = {StrategyTag.HONEST, StrategyTag.META_INVESTOR}
_ALWAYS_DEFECT = {StrategyTag.WITHHOLD, StrategyTag.COLLUDE, StrategyTag.ALWAYS_DEFECT}


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


def stage_payoffs(
    game: StageGameSpec, state: int, profile: Sequence[Action]
) -> np.ndarray:
    """Payoff vector for a joint profile under the given protocol state."""
    if not 0 <= state < len(game):
        raise ConfigurationError(
            f"unknown protocol state {state}, have {len(game)} states"
        )
    if len(profile) != game.n:
        raise ConfigurationError(
            f"profile has {len(profile)} actions for a {game.n}-miner game"
        )
    return game[state].tensor[tuple(a.index for a in profile)].copy()


def block_lottery(shares: Sequence[float], rng: np.random.Generator) -> int:
    """Sample the block winner, miner i with probability shares[i].

    Consumes exactly one uniform draw from the stream.
    """
    validate_shares(shares)
    cuts = np.cumsum(np.asarray(shares, dtype=float))
    u = rng.random()
    winner = int(np.searchsorted(cuts, u, side="right"))
    return min(winner, len(cuts) - 1)


def sample_from_cumulative(cumulative_row: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF sample consuming exactly one uniform draw."""
    u = rng.random()
    index = int(np.searchsorted(cumulative_row, u, side="right"))
    return min(index, len(cumulative_row) - 1)


def step_protocol(kernel: TransitionKernel, current: int, rng: np.random.Generator) -> int:
    """Sample the next protocol state from the kernel row of the current one."""
    return sample_from_cumulative(np.cumsum(kernel.matrix[current]), rng)


def contest_row(scenario, row: np.ndarray) -> np.ndarray:
    """One kernel row after the MetaInvestors' Tullock contest, as README
    defines it: each MetaInvestor spends its hash share times its budget on
    its preferred state; the weights are the efforts relative to the
    largest, raised to the contest exponent and normalized; the row moves
    toward them by beta times the total effort, capped at 1. The row is
    left as it is with the meta game off, beta 0 or no effort spent. The
    power is the package's one software power, the same bits on every CPU."""
    meta = scenario.meta
    efforts, total = np.zeros(len(row)), 0.0
    for miner in scenario.miners:
        strategy = miner.strategy
        if strategy.tag is StrategyTag.META_INVESTOR:
            efforts[strategy.preferred_state] += miner.share * strategy.meta_budget
            total += miner.share * strategy.meta_budget
    if not (meta.enabled and meta.influence_strength > 0.0 and total > 0.0):
        return row
    weights = np.array([_contest_power(x, meta.contest_exponent) for x in efforts / efforts.max()])
    weight_sum = 0.0
    for weight in weights.tolist():  # left to right, as kernel_as_run sums them
        weight_sum += weight
    weights = weights / weight_sum
    lam = min(meta.influence_strength * min(total, 1.0), 1.0)
    return (1.0 - lam) * row + lam * weights


def contest_scenario(matrix, investors, **meta) -> Scenario:
    """A scenario over the kernel ``matrix`` with the meta game on, its
    other ``MetaModelConfig`` fields from ``meta``: one MetaInvestor per
    (budget, preferred state, hash share) of ``investors``, then one Honest
    miner holding the hash left over. Every payoff is 0."""
    k, shares = len(matrix), [share for _, _, share in investors]
    miners = [Miner(share, StrategyKind(StrategyTag.META_INVESTOR, budget, preferred))
              for budget, preferred, share in investors]
    miners.append(Miner(1.0 - sum(shares), StrategyKind(StrategyTag.HONEST)))
    n = len(miners)
    games = [NormalFormGame(np.zeros((2,) * n + (n,))) for _ in range(k)]
    return Scenario(
        miners=tuple(miners), game=StageGameSpec([f"s{i}" for i in range(k)], games),
        kernel=TransitionKernel(matrix), initial_state=0, horizon=1, delta=0.5,
        meta=MetaModelConfig(enabled=True, **meta),
    )


def sample_theta(process: ThetaProcess, rng: np.random.Generator) -> float:
    """One Gaussian draw, taken even at zero variance: one
    ``standard_normal()`` call."""
    z = rng.standard_normal()
    return float(process.mean + math.sqrt(process.variance) * z)


@dataclass
class PlayHistory:
    """Running view of past play: last profile plus cumulative standing flags.

    ``append`` must be called once per completed round, in order. Aggregates
    are monotone, which is what makes grim triggers absorbing.
    """

    num_miners: int
    rounds: int = 0
    last_profile: tuple[Action, ...] | None = None
    defect_counts: list[int] = field(default_factory=list)
    total_defects: int = 0
    mutation_seen: bool = False

    def __post_init__(self) -> None:
        if not self.defect_counts:
            self.defect_counts = [0] * self.num_miners

    def append(self, profile: Sequence[Action], mutated: bool = False) -> None:
        if len(profile) != self.num_miners:
            raise ConfigurationError(
                f"profile has {len(profile)} actions for {self.num_miners} miners"
            )
        for i, action in enumerate(profile):
            if action is Action.DEFECT:
                self.defect_counts[i] += 1
                self.total_defects += 1
        self.last_profile = tuple(profile)
        self.mutation_seen = self.mutation_seen or bool(mutated)
        self.rounds += 1

    def opponent_defected(self, miner: int) -> bool:
        return self.total_defects - self.defect_counts[miner] > 0

    @classmethod
    def from_rounds(
        cls,
        num_miners: int,
        profiles: Sequence[Sequence[Action]],
        mutated_flags: Sequence[bool] | None = None,
    ) -> "PlayHistory":
        history = cls(num_miners)
        flags = mutated_flags if mutated_flags is not None else [False] * len(profiles)
        for profile, mutated in zip(profiles, flags):
            history.append(profile, mutated)
        return history


def _myopic_response(
    miner: int,
    history: PlayHistory,
    game: StageGameSpec,
    state: int,
    discount: float | None,
) -> Action:
    """Best response holding opponents at their previous actions.

    Without a discount context the comparison is the one-shot stage payoff.
    With a discount it also prices the grim continuation: defecting now is
    assumed to switch the future from the all-Cooperate to the all-Defect
    payoff stream, each valued at delta/(1-delta). Either way, ties resolve
    to Cooperate.
    """
    n = game.n
    if history.last_profile is None:
        others = [Action.COOPERATE] * n
    else:
        others = list(history.last_profile)
    coop_profile = list(others)
    coop_profile[miner] = Action.COOPERATE
    defect_profile = list(others)
    defect_profile[miner] = Action.DEFECT
    table = game[state].tensor
    value_coop = float(table[tuple(a.index for a in coop_profile)][miner])
    value_defect = float(table[tuple(a.index for a in defect_profile)][miner])
    opponents_cooperating = all(
        a is Action.COOPERATE for j, a in enumerate(others) if j != miner
    )
    if discount is not None and opponents_cooperating:
        # Deviation tested against the folk-theorem threat: cooperate keeps
        # the all-C stream, defect triggers the all-D stream.
        weight = discount / (1.0 - discount)
        all_coop = float(table[(0,) * n][miner])
        all_defect = float(table[(1,) * n][miner])
        value_coop += weight * all_coop
        value_defect += weight * all_defect
    return Action.COOPERATE if value_coop >= value_defect else Action.DEFECT


def resolve_actions(
    strategies: Sequence[StrategyKind],
    history: PlayHistory,
    round_index: int,
    *,
    game: StageGameSpec | None = None,
    state: int | None = None,
    trigger_on_mutation: bool = False,
    discount: float | None = None,
) -> list[Action]:
    """Resolve every miner's strategy to this round's action.

    Rules:
      * Honest and MetaInvestor always Cooperate; Withhold, Collude and
        AlwaysDefect always Defect.
      * GrimTrigger Cooperates until any opponent Defect is on record (or a
        protocol mutation, when ``trigger_on_mutation``), then Defects forever.
      * TitForTat Cooperates at round 0, then mirrors the majority of the
        opponents' previous actions; ties Cooperate.
      * MyopicBestResponse needs ``game`` and ``state``; see _myopic_response
        for the optional discount-aware deviation test.
    """
    if history.rounds != round_index:
        raise ConfigurationError(
            f"history holds {history.rounds} rounds but round {round_index} was requested"
        )
    actions: list[Action] = []
    for i, strategy in enumerate(strategies):
        tag = strategy.tag
        if tag in _ALWAYS_COOPERATE:
            actions.append(Action.COOPERATE)
        elif tag in _ALWAYS_DEFECT:
            actions.append(Action.DEFECT)
        elif tag is StrategyTag.GRIM_TRIGGER:
            triggered = history.opponent_defected(i) or (
                trigger_on_mutation and history.mutation_seen
            )
            actions.append(Action.DEFECT if triggered else Action.COOPERATE)
        elif tag is StrategyTag.TIT_FOR_TAT:
            if history.last_profile is None:
                actions.append(Action.COOPERATE)
            else:
                opponent_actions = [
                    a for j, a in enumerate(history.last_profile) if j != i
                ]
                defects = sum(1 for a in opponent_actions if a is Action.DEFECT)
                majority_defect = defects > len(opponent_actions) / 2
                actions.append(Action.DEFECT if majority_defect else Action.COOPERATE)
        elif tag is StrategyTag.MYOPIC_BEST_RESPONSE:
            if game is None or state is None:
                raise ConfigurationError(
                    "MyopicBestResponse requires the stage game and current state"
                )
            actions.append(_myopic_response(i, history, game, state, discount))
        else:  # pragma: no cover - enum is exhaustive
            raise ConfigurationError(f"unhandled strategy tag {tag}")
    return actions


def _positive_adjacency(kernel: TransitionKernel) -> np.ndarray:
    return kernel.matrix > 0.0


def _strongly_connected(adj: np.ndarray) -> bool:
    k = adj.shape[0]
    reach = np.logical_or(adj, np.eye(k, dtype=bool))
    for _ in range(max(1, math.ceil(math.log2(k)))):
        reach = reach @ reach
    return bool(reach.all())


def _period(adj: np.ndarray) -> int:
    """Period of an irreducible chain via gcd over BFS level mismatches."""
    k = adj.shape[0]
    depth = [-1] * k
    depth[0] = 0
    queue = [0]
    g = 0
    while queue:
        u = queue.pop()
        for v in range(k):
            if not adj[u, v]:
                continue
            if depth[v] < 0:
                depth[v] = depth[u] + 1
                queue.append(v)
            else:
                g = math.gcd(g, abs(depth[u] + 1 - depth[v]))
    return g


def reference_stationary_distribution(kernel: TransitionKernel) -> np.ndarray:
    """``stationary_distribution`` as 0.10.0 computed it: the least-squares
    solution of pi @ M = pi with sum(pi) = 1 by LAPACK, clipped at 0 and
    normalized."""
    k = kernel.size
    a = kernel.matrix.T - np.eye(k)
    a[-1, :] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def reference_pure_nash(game: NormalFormGame) -> list[str]:
    """``pure_nash`` as 0.10.0 computed it: one vectorized comparison per
    player over every profile mask of the (2**n, n) payoff rows."""
    n = game.n
    rows, masks = game.tensor.reshape(-1, n), np.arange(2**n)
    stable = np.ones(2**n, dtype=bool)
    for player in range(n):
        stable &= rows[masks ^ _miner_bit(n, player), player] <= rows[:, player]
    return [_profile_key(mask, n) for mask in np.flatnonzero(stable).tolist()]


def irreducible_and_aperiodic(kernel: TransitionKernel) -> bool:
    """Reference for ``has_unique_stationary``: strong connectivity of the
    positive entries, then a period of 1."""
    adj = _positive_adjacency(kernel)
    if kernel.size == 1:
        return True
    if not _strongly_connected(adj):
        return False
    return _period(adj) == 1


@dataclass(frozen=True)
class SpiralReport:
    """Permanent-collapse onset: the first round from which the cooperating
    fraction stays below the threshold for every remaining round."""

    onset_round: int | None
    final_cooperation_fraction: float


def detect_spiral(defects, threshold: float = 0.5) -> SpiralReport:
    """Find the permanent-collapse onset of one replica, ignoring transient
    dips; ``defects`` is its (H, n) Defect flags.

    The onset is the first round t such that the cooperating fraction is
    below the threshold at every round >= t; None when the trace ends in a
    round at or above the threshold.
    """
    rounds = np.asarray(defects).tolist()
    n = len(rounds[0])
    fractions = [(n - sum(flags)) / n for flags in rounds]
    last_good = -1
    for t in range(len(fractions) - 1, -1, -1):
        if fractions[t] >= threshold:
            last_good = t
            break
    onset = None if last_good == len(fractions) - 1 else last_good + 1
    return SpiralReport(onset_round=onset, final_cooperation_fraction=fractions[-1])


def cooperation_duration(defects, threshold: float = 0.5) -> int:
    """Rounds before the spiral onset; the full horizon when no spiral occurs."""
    report = detect_spiral(defects, threshold)
    return report.onset_round if report.onset_round is not None else len(defects)


@dataclass(frozen=True)
class ScalarReplica:
    """One replica's record from the scalar engine, under ``BatchTrace``'s
    names and with a leading axis of one replica. Unlike ``BatchTrace`` it
    stores its Defect flags and payoffs as they were played and paid."""

    replicas: range
    states: np.ndarray
    profiles: np.ndarray
    defects: np.ndarray
    payoffs: np.ndarray
    theta: np.ndarray | None
    winner: np.ndarray | None
    discounted_utility: np.ndarray
    endogenous_utility: np.ndarray | None
    cooperation_duration: np.ndarray


def replica_fields(batch, r: int) -> dict:
    """Replica ``r``'s entry of every ``ScalarReplica`` field, read by name
    from a ``ScalarReplica`` or a ``BatchTrace`` (whose ``defects`` and
    ``payoffs`` are derived), as plain Python values, so that ``repr``
    compares floats bit for bit, ``-0.0`` included."""
    fields = {}
    for item in dataclasses.fields(ScalarReplica):
        value = getattr(batch, item.name)
        if isinstance(value, np.ndarray):
            value = value[r].tolist()
        elif value is not None:
            value = value[r]
        fields[item.name] = value
    return fields


def scalar_replica(scenario, replica_index) -> ScalarReplica:
    """Reference engine: the per-round scalar loop, one replica at a time.

    It resolves actions, steps the protocol, draws theta and the lottery
    winner and pays each round through the single-round functions above, in
    the documented draw order, and returns its record, payoffs included. The
    batch engine must reproduce it bit for bit.
    """
    rng = replica_rng(scenario.master_seed, replica_index)
    game = scenario.game
    n = scenario.n
    strategies = [m.strategy for m in scenario.miners]
    shares = [m.share for m in scenario.miners]
    meta_enabled = scenario.meta.enabled
    budget_keep = np.ones(n)
    if meta_enabled:
        for i, miner in enumerate(scenario.miners):
            if miner.strategy.tag is StrategyTag.META_INVESTOR:
                budget_keep[i] = 1.0 - miner.strategy.meta_budget

    history = PlayHistory(n)
    states, flags, profiles, thetas, winners = [], [], [], [], []
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
        row = contest_row(scenario, scenario.kernel.matrix[state])
        next_state = sample_from_cumulative(np.cumsum(row), rng)
        theta = sample_theta(scenario.theta, rng) if scenario.theta is not None else None

        payoffs = stage_payoffs(game, state, profile)
        if theta is not None:
            scale = max(0.0, theta) if scenario.theta.clamp else theta
            payoffs = payoffs * scale
        if meta_enabled:
            payoffs = payoffs * budget_keep
        if game.lottery_mode:
            winner = block_lottery(shares, rng)
            mask = np.zeros(n)
            mask[winner] = 1.0
            payoffs = payoffs * mask
            winners.append(winner)

        states.append(state)
        flags.append([a is Action.DEFECT for a in profile])
        profiles.append(int("".join(str(a.index) for a in profile), 2))  # miner 0 highest
        thetas.append(theta)
        payoff_matrix[t] = payoffs
        history.append(profile, mutated)
        previous_state = state
        state = next_state

    discounted = [discounted_utility(payoff_matrix[:, i], scenario.delta) for i in range(n)]
    endogenous = None
    if scenario.noise is not None:
        # Left to right, as ``discounted_utility`` sums: a BLAS product's
        # summation order depends on the kernel the CPU selects.
        path = list(endogenous_discount_path(scenario.noise, scenario.horizon - 1))
        endogenous = np.zeros((1, n))
        for i in range(n):
            for weight, payoff in zip(path, payoff_matrix[:, i].tolist()):
                endogenous[0, i] += weight * payoff
    return ScalarReplica(
        replicas=range(replica_index, replica_index + 1),
        states=np.array([states]),
        profiles=np.array([profiles]),
        defects=np.array([flags]),
        payoffs=payoff_matrix[None],
        theta=None if scenario.theta is None else np.array([thetas]),
        winner=np.array([winners]) if game.lottery_mode else None,
        discounted_utility=np.array([discounted]),
        endogenous_utility=endogenous,
        cooperation_duration=np.array(
            [cooperation_duration(flags, scenario.spiral_threshold)]
        ),
    )


@dataclass(frozen=True)
class PayoffVariance:
    """Unbiased sample variance; degenerate marks single-sample inputs."""

    sigma2: float
    sigma: float
    degenerate: bool = False


def payoff_variance(samples: Sequence[float]) -> PayoffVariance:
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ConfigurationError("variance of an empty sample set is undefined")
    if arr.size == 1:
        return PayoffVariance(sigma2=0.0, sigma=0.0, degenerate=True)
    sigma2 = float(np.var(arr, ddof=1))
    return PayoffVariance(sigma2=sigma2, sigma=math.sqrt(sigma2))


def risk_adjusted_utility(
    samples_by_round: Sequence[Sequence[float]],
    delta: float,
    eta_risk: float,
) -> float:
    """Discounted sum of per-round (mean - eta_risk * sample std) penalties.

    The volatility penalty sits inside the per-round sum so the quantity
    stays well defined at any horizon; with eta_risk = 0 or zero variance it
    reduces to the discounted utility of the round means.
    """
    if not eta_risk >= 0.0:
        raise ConfigurationError(f"risk aversion must be >= 0, got {eta_risk}")
    penalised = []
    for t, samples in enumerate(samples_by_round):
        arr = np.asarray(samples, dtype=float)
        if arr.size == 0:
            raise ConfigurationError(f"round {t} has an empty payoff sample set")
        penalised.append(float(arr.mean()) - eta_risk * payoff_variance(arr).sigma)
    return discounted_utility(penalised, delta)


def scalar_summary(scenario, traces) -> BatchSummary:
    """Reference aggregation over a list of ``scalar_replica`` records."""
    n = scenario.n
    utility = np.array([t.discounted_utility[0] for t in traces])
    mean_utility = utility.mean(axis=0)
    if len(traces) > 1:
        std_utility = utility.std(axis=0, ddof=1)
    else:
        std_utility = np.zeros(n)

    cube = np.array([trace.payoffs[0] for trace in traces])
    risk_adjusted = tuple(
        risk_adjusted_utility(cube[:, :, i].T, scenario.delta, scenario.risk_aversion)
        for i in range(n)
    )

    durations = []
    spirals = 0
    finals = []
    mutations = []
    for trace in traces:
        report = detect_spiral(trace.defects[0], scenario.spiral_threshold)
        if report.onset_round is not None:
            spirals += 1
        durations.append(
            report.onset_round if report.onset_round is not None else scenario.horizon
        )
        finals.append(report.final_cooperation_fraction)
        states = trace.states[0].tolist()
        mutations.append(sum(1 for a, b in zip(states, states[1:]) if a != b))
    mutations = np.array(mutations)

    endogenous_mean: tuple[float, ...] | None = None
    if scenario.noise is not None:
        endo = np.array([t.endogenous_utility[0] for t in traces])
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
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ["replica", "t", "state", "theta", "actions"]
            + [f"payoff_{i}" for i in range(scenario.n)]
        )
        batch_payoffs = batch.payoffs
        for r, replica_index in enumerate(batch.replicas):
            if batch.theta is None:
                thetas = [""] * scenario.horizon
            else:
                thetas = [repr(theta) for theta in batch.theta[r].tolist()]
            rows = zip(
                batch.states[r].tolist(), thetas, batch.profiles[r].tolist(),
                batch_payoffs[r].tolist(),
            )
            for t, (state, theta, mask, payoffs) in enumerate(rows):
                writer.writerow(
                    [replica_index, t, state, theta, profile_keys[mask]]
                    + [repr(p) for p in payoffs]
                )


def reference_kernel_matrix(matrix) -> np.ndarray:
    """``TransitionKernel``'s checks and array up to 0.7.0, verbatim."""
    try:
        arr = np.array(matrix, dtype=float)
    except (TypeError, ValueError, OverflowError):  # ragged rows, entries not numbers
        raise ConfigurationError(
            "transition kernel must be a square matrix of numbers"
        ) from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ConfigurationError(
            f"transition kernel must be a square matrix, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError("transition kernel has non-finite entries")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ConfigurationError("transition kernel entries must lie in [0, 1]")
    sums = arr.sum(axis=1)
    for p, total in enumerate(sums):
        if abs(total - 1.0) > ROW_TOLERANCE:
            raise ConfigurationError(
                f"kernel row {p} sums to {float(total)!r}, must equal 1 within {ROW_TOLERANCE}"
            )
    arr.setflags(write=False)
    return arr


def reference_payoff_tensor(payoff_tensor, state: str | None = None) -> np.ndarray:
    """``NormalFormGame``'s checks and tensor up to 0.7.0, verbatim; a ragged
    or non-numeric tensor leaks numpy's own ValueError or TypeError."""
    subject = "payoff tensor" if state is None else f"payoff table for state {state!r}"
    arr = np.array(payoff_tensor, dtype=float)
    n = arr.ndim - 1
    if n < 1 or arr.shape != (2,) * n + (n,):
        raise ConfigurationError(
            f"{subject} has shape {arr.shape}, not (2,)*n + (n,) for any n"
        )
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{subject} has non-finite entries")
    arr.setflags(write=False)
    return arr


# The grim-trigger records and the cooperation verdict as `mutagame.equilibrium`
# defined them up to 0.8.0, verbatim: each record stores its verdicts, and the
# verdict overrides `holds` with the margin's sign. The reference for the records
# that derive them.


@dataclass(frozen=True)
class CooperationCondition:
    """Verdict of the discounted cooperation test delta * E[coop] >= defect."""

    delta: float
    expected_coop: float
    defect_now: float
    holds: bool


@dataclass(frozen=True)
class PlayerGrimStatus:
    """Grim-trigger threshold ingredients for one player.

    temptation = best unilateral deviation payoff from the cooperative
    profile, reward = cooperative payoff, punishment = punished payoff.
    """

    player: int
    temptation: float
    reward: float
    punishment: float
    delta_star: float | None
    always_sustainable: bool = False
    never_sustainable: bool = False


@dataclass(frozen=True)
class GrimThreshold:
    """Overall grim-trigger sustainability: max per-player threshold or a flag."""

    delta_star: float | None
    always_sustainable: bool
    never_sustainable: bool
    per_player: tuple[PlayerGrimStatus, ...]


def grim_trigger_threshold(game: NormalFormGame) -> GrimThreshold:
    """Minimum discount factor at which grim punishment sustains cooperation.

    Per player: delta_star = (T - R) / (T - P) when T > R > P; the player is
    always sustainable when there is no temptation (T <= R) and never
    sustainable when punishment has no bite (R <= P, checked after the
    no-temptation case). The overall threshold is the max over players; one
    never-sustainable player makes the whole profile unsustainable.
    """
    rows = game.tensor.reshape(-1, game.n)
    statuses: list[PlayerGrimStatus] = []
    for player in range(game.n):
        reward = float(rows[0, player])  # every miner cooperates
        punishment = float(rows[-1, player])  # every miner defects
        temptation = float(rows[_miner_bit(game.n, player), player])  # the player alone defects
        if temptation <= reward:
            statuses.append(
                PlayerGrimStatus(player, temptation, reward, punishment, None,
                                 always_sustainable=True)
            )
        elif reward <= punishment:
            statuses.append(
                PlayerGrimStatus(player, temptation, reward, punishment, None,
                                 never_sustainable=True)
            )
        else:
            delta_star = (temptation - reward) / (temptation - punishment)
            statuses.append(
                PlayerGrimStatus(player, temptation, reward, punishment, delta_star)
            )
    if any(s.never_sustainable for s in statuses):
        return GrimThreshold(None, False, True, tuple(statuses))
    thresholds = [s.delta_star for s in statuses if s.delta_star is not None]
    if not thresholds:
        return GrimThreshold(None, True, False, tuple(statuses))
    return GrimThreshold(max(thresholds), False, False, tuple(statuses))


def cooperation_condition(
    delta: float, expected_coop: float, defect_now: float
) -> CooperationCondition:
    """Pure predicate: cooperation is sustained iff delta * expected_coop
    >= defect_now (ties kept cooperative)."""
    for name, value in (("delta", delta), ("expected_coop", expected_coop),
                        ("defect_now", defect_now)):
        if not math.isfinite(value):
            raise ConfigurationError(f"{name} must be finite, got {value}")
    return CooperationCondition(
        delta=delta,
        expected_coop=expected_coop,
        defect_now=defect_now,
        holds=delta * expected_coop >= defect_now,
    )



def grim_cooperation_verdict(
    game: NormalFormGame,
    delta: float,
    epsilon: float,
    post_mutation_value: float = 0.0,
) -> CooperationCondition:
    """Cooperation test for a grim population under rule mutation.

    Each player weighs the one-shot deviation gain T - R against the
    mutation-adjusted continuation value of the net cooperative stream R - P.
    The returned condition belongs to the binding player (smallest margin);
    it holds only if it holds for everyone.
    """
    threshold = grim_trigger_threshold(game)
    binding: CooperationCondition | None = None
    best_margin = math.inf
    for status in threshold.per_player:
        gain = status.temptation - status.reward
        value = effective_coop_value(
            status.reward - status.punishment, delta, epsilon, post_mutation_value
        )
        # delta * (value / delta) can round below value: holds is the margin's sign.
        condition = cooperation_condition(delta, value / delta, gain)
        margin = value - gain
        if margin < best_margin:
            binding = replace(condition, holds=margin >= 0.0)
            best_margin = margin
    assert binding is not None
    return binding
