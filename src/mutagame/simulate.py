"""Monte Carlo engine for the repeated mining game under protocol dynamics.

Each replica owns an independent random stream derived from
``SeedSequence([master_seed, replica_index])``, so a replica's rounds do not
depend on the other replicas of its batch. Per-round draw order is fixed:
action resolution (no draws), meta influence on the kernel row (no draws),
protocol step (one draw), payoff-scale perturbation (one draw, when
enabled), block lottery (one draw, when enabled).

A batch advances all its replicas together, one round at a time, with array
operations. The protocol state path, theta and the lottery winner never
depend on play, so they are computed before the actions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _ziggurat
from .discounting import (
    NoisePath,
    InvestmentPlan,
    endogenous_discount_path,
    validate_discount,
)
from .errors import ConfigurationError, ScenarioValidationError
from .game import (
    _ALWAYS_DEFECT,
    Action,
    PlayHistory,
    StageGameSpec,
    StrategyKind,
    StrategyTag,
    _myopic_response,
    validate_shares,
)
from .protocol import ThetaProcess, TransitionKernel


@dataclass(frozen=True)
class MetaModelConfig:
    """Second-tier contest over the kernel row.

    ``influence_strength`` (beta) bounds the per-round shift of the kernel
    row; it must stay within [0, 1] so blended rows remain stochastic.
    ``contest_exponent`` is the Tullock exponent applied to hash-weighted
    budgets.
    """

    enabled: bool = False
    influence_strength: float = 0.0
    contest_exponent: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.influence_strength <= 1.0:
            raise ConfigurationError(
                f"influence_strength must lie in [0, 1], got {self.influence_strength}"
            )
        if self.contest_exponent <= 0.0:
            raise ConfigurationError(
                f"contest_exponent must be positive, got {self.contest_exponent}"
            )


@dataclass(frozen=True)
class Miner:
    share: float
    strategy: StrategyKind


@dataclass(frozen=True)
class Scenario:
    """Complete experiment description; immutable and validated on construction."""

    miners: tuple[Miner, ...]
    game: StageGameSpec
    kernel: TransitionKernel
    initial_state: int
    horizon: int
    delta: float
    risk_aversion: float = 0.0
    meta: MetaModelConfig = MetaModelConfig()
    replica_count: int = 1
    master_seed: int = 0
    trigger_on_mutation: bool = False
    noise: NoisePath | None = None
    theta: ThetaProcess | None = None
    spiral_threshold: float = 0.5
    post_mutation_value: float = 0.0
    investment: InvestmentPlan | None = None
    name: str = "scenario"

    def __post_init__(self) -> None:
        errors = self.validate()
        if errors:
            raise ScenarioValidationError(errors)

    def validate(self) -> list[str]:
        errors: list[str] = []
        n = len(self.miners)
        if n < 1:
            errors.append("miners: at least one miner required")
            return errors
        try:
            validate_shares([m.share for m in self.miners])
        except ConfigurationError as exc:
            errors.append(f"miners: {exc}")
        if self.game.n != n:
            errors.append(
                f"game: payoff tables cover {self.game.n} miners but scenario has {n}"
            )
        if self.kernel.size != self.game.num_states:
            errors.append(
                f"kernel: {self.kernel.size} states but game defines "
                f"{self.game.num_states}"
            )
        if not 0 <= self.initial_state < self.kernel.size:
            errors.append(
                f"initial_state: {self.initial_state} out of range "
                f"[0, {self.kernel.size})"
            )
        if self.horizon < 1:
            errors.append(f"horizon: must be >= 1, got {self.horizon}")
        if self.replica_count < 1:
            errors.append(f"replica_count: must be >= 1, got {self.replica_count}")
        if self.master_seed < 0:
            errors.append(f"master_seed: must be >= 0, got {self.master_seed}")
        try:
            validate_discount(self.delta)
        except ConfigurationError as exc:
            errors.append(f"discount.delta: {exc}")
        if self.risk_aversion < 0.0:
            errors.append(
                f"risk_aversion.eta: must be >= 0, got {self.risk_aversion}"
            )
        if not 0.0 < self.spiral_threshold < 1.0:
            errors.append(
                f"spiral_threshold: must lie in (0, 1), got {self.spiral_threshold}"
            )
        for i, miner in enumerate(self.miners):
            preferred = miner.strategy.preferred_state
            if preferred is not None and preferred >= self.kernel.size:
                errors.append(
                    f"miners[{i}]: preferred_state {preferred} out of range "
                    f"[0, {self.kernel.size})"
                )
        return errors

    @property
    def n(self) -> int:
        return len(self.miners)

    def meta_investors(self) -> list[tuple[float, int, float]]:
        """(meta_budget, preferred_state, hash share) of every MetaInvestor."""
        return [
            (m.strategy.meta_budget, m.strategy.preferred_state, m.share)
            for m in self.miners
            if m.strategy.tag is StrategyTag.META_INVESTOR
        ]


@dataclass(frozen=True)
class RoundRecord:
    """One simulated round: state in force, actions, realized payoffs."""

    t: int
    state: int
    theta: float | None
    profile: tuple[Action, ...]
    payoffs: tuple[float, ...]
    mutated: bool
    lottery_winner: int | None = None


@dataclass
class ReplicaTrace:
    """One replica's rounds as records, with its per-miner utilities."""

    replica_index: int
    records: list[RoundRecord]
    discounted_utility: tuple[float, ...] = ()
    endogenous_utility: tuple[float, ...] | None = None
    mutation_count: int = 0

    def cooperation_fractions(self) -> list[float]:
        n = len(self.records[0].profile)
        return [
            sum(1 for a in record.profile if a is Action.COOPERATE) / n
            for record in self.records
        ]

    @property
    def final_cooperation_fraction(self) -> float:
        return self.cooperation_fractions()[-1]


@dataclass(frozen=True)
class SpiralReport:
    """Permanent-collapse onset: the first round from which the cooperating
    fraction stays below the threshold for every remaining round."""

    onset_round: int | None
    final_cooperation_fraction: float


@dataclass(frozen=True)
class BatchSummary:
    replica_count: int
    mean_utility: tuple[float, ...]
    std_utility: tuple[float, ...]
    risk_adjusted_utility: tuple[float, ...]
    mean_cooperation_duration: float
    spiral_frequency: float
    mean_final_cooperation_fraction: float
    mutation_count_mean: float
    mutation_count_std: float
    mutation_count_min: int
    mutation_count_max: int
    mean_endogenous_utility: tuple[float, ...] | None = None

    def to_dict(self) -> dict:
        out = {
            "replica_count": self.replica_count,
            "mean_utility": list(self.mean_utility),
            "std_utility": list(self.std_utility),
            "risk_adjusted_utility": list(self.risk_adjusted_utility),
            "mean_cooperation_duration": self.mean_cooperation_duration,
            "spiral_frequency": self.spiral_frequency,
            "mean_final_cooperation_fraction": self.mean_final_cooperation_fraction,
            "mutation_count_mean": self.mutation_count_mean,
            "mutation_count_std": self.mutation_count_std,
            "mutation_count_min": self.mutation_count_min,
            "mutation_count_max": self.mutation_count_max,
        }
        if self.mean_endogenous_utility is not None:
            out["mean_endogenous_utility"] = list(self.mean_endogenous_utility)
        return out


@dataclass(frozen=True, eq=False)
class BatchTrace:
    """Every round of a batch as arrays, one row per replica.

    ``states`` (R, H) holds the state in force each round, ``defects``
    (R, H, n) marks Defect actions and ``payoffs`` (R, H, n) holds the
    realized payoffs. ``theta`` and ``winner`` (R, H) exist only when the
    scenario draws them. Per replica: ``discounted_utility`` and
    ``endogenous_utility`` (R, n), and ``cooperation_duration`` (R,), the
    rounds before the spiral onset, or H when the replica does not spiral.
    Indexing or iterating yields per-replica ``ReplicaTrace`` views.
    """

    replicas: range
    states: np.ndarray
    defects: np.ndarray
    payoffs: np.ndarray
    theta: np.ndarray | None
    winner: np.ndarray | None
    discounted_utility: np.ndarray
    endogenous_utility: np.ndarray | None
    cooperation_duration: np.ndarray

    def __len__(self) -> int:
        return len(self.replicas)

    def __iter__(self):
        return (self[r] for r in range(len(self)))

    def __getitem__(self, r: int) -> ReplicaTrace:
        r = range(len(self))[r]
        horizon = self.states.shape[1]
        states = self.states[r].tolist()
        thetas = [None] * horizon if self.theta is None else self.theta[r].tolist()
        winners = [None] * horizon if self.winner is None else self.winner[r].tolist()
        actions = (Action.COOPERATE, Action.DEFECT)
        records = [
            RoundRecord(
                t=t,
                state=states[t],
                theta=thetas[t],
                profile=tuple(actions[d] for d in defects),
                payoffs=tuple(payoffs),
                mutated=t > 0 and states[t] != states[t - 1],
                lottery_winner=winners[t],
            )
            for t, (defects, payoffs) in enumerate(
                zip(self.defects[r].tolist(), self.payoffs[r].tolist())
            )
        ]
        endogenous = self.endogenous_utility
        return ReplicaTrace(
            replica_index=self.replicas[r],
            records=records,
            discounted_utility=tuple(self.discounted_utility[r].tolist()),
            endogenous_utility=None if endogenous is None else tuple(endogenous[r].tolist()),
            mutation_count=sum(record.mutated for record in records),
        )

    @property
    def mutation_counts(self) -> np.ndarray:
        """Rule changes per replica: rounds whose state differs from the round before."""
        return np.count_nonzero(self.states[:, 1:] != self.states[:, :-1], axis=1)

    def profile_masks(self) -> np.ndarray:
        """(R, H) joint profiles as bitmasks, miner 0 in the highest bit."""
        return _profile_masks(self.defects)


def replica_rng(master_seed: int, replica_index: int) -> np.random.Generator:
    """Stream splitting rule: PCG64 seeded by SeedSequence([master_seed, index])."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([master_seed, replica_index]))
    )


def apply_meta_influence(
    kernel_row,
    investors: list[tuple[float, int, float]],
    config: MetaModelConfig,
) -> np.ndarray:
    """Blend the kernel row toward the contest outcome of meta investors.

    Contest weights are hash-weighted budgets raised to the contest exponent
    and normalized over states actually receiving effort. The blend
    coefficient is beta times total invested effort (capped at 1), so the
    adjusted row stays a convex combination of two distributions.
    """
    row = np.array(kernel_row, dtype=float)
    if not config.enabled or not investors or config.influence_strength == 0.0:
        return row
    efforts = np.zeros(len(row))
    total = 0.0
    for budget, preferred, share in investors:
        if not 0.0 <= budget <= 1.0:
            raise ConfigurationError(f"meta budget must lie in [0, 1], got {budget}")
        if not 0 <= preferred < len(row):
            raise ConfigurationError(
                f"preferred state {preferred} out of range [0, {len(row)})"
            )
        effort = share * budget
        efforts[preferred] += effort
        total += effort
    if total <= 0.0:
        return row
    weights = efforts ** config.contest_exponent
    weight_sum = weights.sum()
    if weight_sum <= 0.0:  # exponent underflowed every effort
        return row
    weights /= weight_sum
    lam = min(config.influence_strength * min(total, 1.0), 1.0)
    return (1.0 - lam) * row + lam * weights


def run_batch(scenario: Scenario) -> tuple[BatchSummary, BatchTrace]:
    """Run every replica and aggregate; replica i always draws from its own
    stream, so its rounds match ``run_replica(scenario, i)``."""
    batch = _simulate(scenario, range(scenario.replica_count))
    return summarize_batch(scenario, batch), batch


def run_replica(scenario: Scenario, replica_index: int) -> ReplicaTrace:
    """Run one replica; identical (scenario, replica_index) gives an identical trace."""
    return _simulate(scenario, range(replica_index, replica_index + 1))[0]


def detect_spiral(trace: ReplicaTrace, threshold: float = 0.5) -> SpiralReport:
    """Find the permanent-collapse onset, ignoring transient dips.

    The onset is the first round t such that the cooperating fraction is
    below the threshold at every round >= t; None when the trace ends in a
    round at or above the threshold.
    """
    fractions = trace.cooperation_fractions()
    last_good = -1
    for t in range(len(fractions) - 1, -1, -1):
        if fractions[t] >= threshold:
            last_good = t
            break
    onset = None if last_good == len(fractions) - 1 else last_good + 1
    return SpiralReport(onset_round=onset, final_cooperation_fraction=fractions[-1])


def cooperation_duration(trace: ReplicaTrace, threshold: float = 0.5) -> int:
    """Rounds before the spiral onset; the full horizon when no spiral occurs."""
    report = detect_spiral(trace, threshold)
    return report.onset_round if report.onset_round is not None else len(trace.records)


def _profile_masks(defects: np.ndarray) -> np.ndarray:
    """Defect flags (..., n) as profile bitmasks (...), miner 0 highest, so a
    mask indexes a payoff table reshaped to (2**n, n) and the profiles of
    ``itertools.product("CD", repeat=n)`` in order. Built in place, one
    miner at a time, in the smallest unsigned dtype that holds 2**n - 1, so
    no wider temporary is made."""
    n = defects.shape[-1]
    masks = np.zeros(defects.shape[:-1], dtype=np.min_scalar_type(2**n - 1))
    for i in range(n):
        masks <<= 1
        masks |= defects[..., i]
    return masks


def _cooperating_fraction(defects: np.ndarray) -> np.ndarray:
    n = defects.shape[-1]
    return (n - np.count_nonzero(defects, axis=-1)) / n


# Replicas whose words are converted together; results do not depend on it.
_CHUNK = 64
# PCG64's LCG multiplier: state <- state * _PCG64_MULTIPLIER + inc (mod 2**128).
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _draws(scenario: Scenario, replicas: range) -> np.ndarray:
    """Every replica's draws, shape (R, H, d), in per-round draw order.

    Column 0 is the protocol step, then theta's standard normal when
    enabled, then the lottery uniform when enabled: the values that scalar
    ``random()`` and ``standard_normal()`` calls on
    ``replica_rng(master_seed, i)`` return in that order. They are computed
    in bulk from the stream's raw 64-bit words, chunk by chunk of replicas.
    A uniform takes one word w, ``(w >> 11) * 2**-53``. A normal takes one
    word on numpy's ziggurat fast path (``_ziggurat``). Off it (about 1.5% of
    normals) numpy's own ``standard_normal`` runs from that word, and every
    later draw of the replica moves down by the extra words it used.
    """
    horizon, normal = scenario.horizon, scenario.theta is not None
    per_round = 1 + normal + scenario.game.lottery_mode
    draws = np.empty((len(replicas), horizon, per_round))
    for start in range(0, len(replicas), _CHUNK):
        chunk = replicas[start:start + _CHUNK]
        out = draws[start:start + len(chunk)]
        streams = [replica_rng(scenario.master_seed, i).bit_generator for i in chunk]
        seeds = [stream.state for stream in streams] if normal else []
        words = np.stack([stream.random_raw(horizon * per_round) for stream in streams])
        slow = {}
        if normal:
            words, slow = _skip_slow_normals(words, seeds, streams, per_round)
        words = words.reshape(out.shape)
        np.multiply(words >> 11, 2.0**-53, out=out)
        if normal:
            out[:, :, 1] = _fast_normals(words[:, :, 1])
            for (row, t), value in slow.items():
                out[row, t, 1] = value
    return draws


def _skip_slow_normals(
    words: np.ndarray, seeds: list[dict], streams: list, per_round: int
) -> tuple[np.ndarray, dict[tuple[int, int], float]]:
    """The word each draw starts from, (C, H*d), and the normals that miss
    the ziggurat fast path, by (row, round).

    ``words`` holds the first H*d words of each of the C ``streams``, whose
    initial states are ``seeds``; normals sit in column 1 of each round. A
    row's first miss is drawn by ``_slow_normal`` and its later draws shift;
    then the row is searched again from the round after, until no row
    misses. A row that needs words past its end draws them from its stream.
    """
    count, horizon = len(streams), words.shape[1] // per_round
    positions = np.tile(np.arange(horizon * per_round), (count, 1))
    normals = positions[:, 1::per_round]  # a view: the shifts reach it
    drawn = np.full(count, words.shape[1])
    unchecked = np.zeros(count, dtype=np.int64)  # first round not yet searched
    scratch = np.random.Generator(np.random.PCG64(0))
    slow = {}
    rows = np.arange(count)
    while len(rows):
        words = _extend_words(words, drawn, positions[:, -1] + 1, streams)
        first = words[rows[:, None], normals[rows]]
        missed = ~_fast_path(first) & (np.arange(horizon) >= unchecked[rows, None])
        hit = missed.any(axis=1)
        rows = rows[hit]
        for row, t in zip(rows.tolist(), np.argmax(missed[hit], axis=1).tolist()):
            value, used = _slow_normal(scratch, seeds[row], int(normals[row, t]))
            slow[row, t] = value
            positions[row, t * per_round + 2:] += used - 1
            unchecked[row] = t + 1
    return np.take_along_axis(words, positions, axis=1), slow


def _fast_path(words: np.ndarray) -> np.ndarray:
    """Whether numpy's ziggurat fast path accepts each word as a normal."""
    return (words >> 9) & (2**52 - 1) < _ziggurat.KI[words & 0xFF]


def _fast_normals(words: np.ndarray) -> np.ndarray:
    """The normal numpy's ziggurat fast path makes of each word:
    ``+-rabs * WI[layer]``, right only where ``_fast_path`` accepts it."""
    normals = ((words >> 9) & (2**52 - 1)) * _ziggurat.WI[words & 0xFF]
    return np.negative(normals, out=normals, where=(words & 0x100).astype(bool))


def _slow_normal(scratch: np.random.Generator, seed: dict, position: int) -> tuple[float, int]:
    """``standard_normal()`` of the stream whose initial state is ``seed``,
    started at word ``position``, and the number of words it used."""
    stream = scratch.bit_generator
    stream.state = seed
    stream.advance(position)
    lcg = stream.state["state"]
    state, inc = lcg["state"], lcg["inc"]
    value = scratch.standard_normal()
    end = stream.state["state"]["state"]
    used = 0
    while state != end:
        state = (state * _PCG64_MULTIPLIER + inc) % 2**128
        used += 1
    return value, used


def _extend_words(
    words: np.ndarray, drawn: np.ndarray, needed: np.ndarray, streams: list
) -> np.ndarray:
    """``words`` with row r holding the first ``needed[r]`` words of
    ``streams[r]``: a row short of them takes its stream's next words.
    ``drawn`` counts each row's words and is updated in place."""
    width = needed.max()
    if width > words.shape[1]:
        words = np.pad(words, ((0, 0), (0, width - words.shape[1])))
    for row in np.flatnonzero(needed > drawn):
        words[row, drawn[row]:needed[row]] = streams[row].random_raw(needed[row] - drawn[row])
        drawn[row] = needed[row]
    return words


def _myopic_defects(scenario: Scenario, miners: list[int]) -> np.ndarray:
    """Defect flag of each listed MyopicBestResponse miner per state and
    last-profile bitmask, shape (len(miners), k, 2**n).

    A miner's own bit of the mask is ignored. Round 0 reads mask 0: with no
    last profile, opponents are held at Cooperate.
    """
    n, k = scenario.n, scenario.kernel.size
    table = np.empty((len(miners), k, 2**n), dtype=bool)
    profiles = itertools.product((Action.COOPERATE, Action.DEFECT), repeat=n)
    for mask, profile in enumerate(profiles):
        history = PlayHistory.from_rounds(n, [profile])
        for state in range(k):
            for j, miner in enumerate(miners):
                action = _myopic_response(miner, history, scenario.game, state, scenario.delta)
                table[j, state, mask] = action is Action.DEFECT
    return table


def _resolve_defects(scenario: Scenario, states: np.ndarray) -> np.ndarray:
    """Defect flags (R, H, n) under the rules of ``game.resolve_actions``,
    one round at a time over all replicas."""
    replicas, horizon = states.shape
    n = scenario.n
    tags = [m.strategy.tag for m in scenario.miners]

    def miners(*wanted: StrategyTag) -> list[int]:
        return [i for i, tag in enumerate(tags) if tag in wanted]

    defects = np.zeros((replicas, horizon, n), dtype=bool)
    defects[:, :, miners(*_ALWAYS_DEFECT)] = True
    grim = miners(StrategyTag.GRIM_TRIGGER)
    tit_for_tat = miners(StrategyTag.TIT_FOR_TAT)
    myopic = miners(StrategyTag.MYOPIC_BEST_RESPONSE)
    if myopic:
        myopic_table = _myopic_defects(scenario, myopic)
    # Round t's flag marks a rule change entering it; strategies see it from
    # round t + 1 on.
    mutation_seen = np.zeros((replicas, horizon), dtype=bool)
    mutation_seen[:, 1:] = np.logical_or.accumulate(states[:, 1:] != states[:, :-1], axis=1)

    ever_defected = np.zeros((replicas, n), dtype=bool)
    previous = np.zeros((replicas, n), dtype=bool)  # round 0 reads as all Cooperate
    for t in range(horizon):
        now = defects[:, t]
        if grim:
            triggered = ever_defected.sum(axis=1, keepdims=True) - ever_defected[:, grim] > 0
            if scenario.trigger_on_mutation and t > 0:
                triggered |= mutation_seen[:, t - 1, None]
            now[:, grim] = triggered
        if tit_for_tat:
            opponents = previous.sum(axis=1, keepdims=True) - previous[:, tit_for_tat]
            now[:, tit_for_tat] = 2 * opponents > n - 1
        if myopic:
            now[:, myopic] = myopic_table[:, states[:, t], _profile_masks(previous)].T
        ever_defected |= now
        previous = now
    return defects


def _simulate(scenario: Scenario, replicas: range) -> BatchTrace:
    """Advance the given replicas together, round by round.

    Per round t the state in force is P_t; the protocol step taken during
    round t yields P_{t+1}, whose change is observable to strategies from
    round t+2 on (mutation flags describe completed rounds). Payoffs are the
    table row at (P_t, profile), scaled by the clamped theta draw when a
    perturbation process is attached, reduced by each MetaInvestor's budget
    fraction while the meta game is enabled, and zeroed for lottery losers
    in lottery mode, multiplied in that order.
    """
    count, horizon, n = len(replicas), scenario.horizon, scenario.n
    game, kernel = scenario.game, scenario.kernel
    draws = _draws(scenario, replicas)

    # MetaInvestors always cooperate with fixed budgets, so the adjusted
    # kernel row depends on the state alone.
    investors = scenario.meta_investors()
    cumulative = np.cumsum(
        [apply_meta_influence(kernel.row(s), investors, scenario.meta) for s in range(kernel.size)],
        axis=1,
    )
    states = np.empty((count, horizon), dtype=np.int64)
    states[:, 0] = scenario.initial_state
    for t in range(horizon - 1):
        below = cumulative[states[:, t]] <= draws[:, t, :1]
        np.minimum(below.sum(axis=1), kernel.size - 1, out=states[:, t + 1])

    defects = _resolve_defects(scenario, states)
    tables = np.stack([game.table(s).reshape(-1, n) for s in range(kernel.size)])
    payoffs = tables[states, _profile_masks(defects)]
    theta = None
    if scenario.theta is not None:
        process = scenario.theta
        theta = process.mean + math.sqrt(process.variance) * draws[:, :, 1]
        scale = np.where(theta > 0.0, theta, 0.0) if process.clamp else theta
        payoffs = payoffs * scale[:, :, None]
    if scenario.meta.enabled and investors:
        budget_keep = np.array([
            1.0 - m.strategy.meta_budget if m.strategy.tag is StrategyTag.META_INVESTOR
            else 1.0
            for m in scenario.miners
        ])
        payoffs = payoffs * budget_keep
    winner = None
    if game.lottery_mode:
        cuts = np.cumsum([m.share for m in scenario.miners])
        winner = np.minimum(np.searchsorted(cuts, draws[:, :, -1], side="right"), n - 1)
        payoffs = payoffs * (winner[:, :, None] == np.arange(n))  # one-hot

    # Left to right over rounds, as ``discounting.discounted_utility`` sums.
    discounted = np.zeros((count, n))
    factor = 1.0
    for t in range(horizon):
        discounted += factor * payoffs[:, t]
        factor *= scenario.delta
    endogenous = None
    if scenario.noise is not None:
        path = endogenous_discount_path(scenario.noise, horizon - 1)
        # One product per replica: a batched product would reorder the sums.
        endogenous = np.array([path @ replica for replica in payoffs])

    cooperating = _cooperating_fraction(defects) >= scenario.spiral_threshold
    last_cooperating = horizon - np.argmax(cooperating[:, ::-1], axis=1)
    return BatchTrace(
        replicas=replicas,
        states=states,
        defects=defects,
        payoffs=payoffs,
        theta=theta,
        winner=winner,
        discounted_utility=discounted,
        endogenous_utility=endogenous,
        cooperation_duration=np.where(cooperating.any(axis=1), last_cooperating, 0),
    )


def summarize_batch(scenario: Scenario, batch: BatchTrace) -> BatchSummary:
    """Aggregate statistics over a batch (all recomputable from its arrays)."""
    count, n = len(batch), scenario.n
    utility = batch.discounted_utility
    if count > 1:
        std_utility = utility.std(axis=0, ddof=1)
    else:
        std_utility = np.zeros(n)
    # Cross-replica per-round samples give the volatility penalty its
    # Monte Carlo meaning; within one replica it is degenerate. The sum runs
    # left to right, as ``discounting.risk_adjusted_utility`` adds it.
    risk_adjusted = []
    for i in range(n):
        rounds = np.ascontiguousarray(batch.payoffs[:, :, i].T)  # (H, R), one miner
        means = rounds.mean(axis=1).tolist()
        sds = np.sqrt(rounds.var(axis=1, ddof=1)) if count > 1 else np.zeros(len(means))
        total, factor = 0.0, 1.0
        for mean, sd in zip(means, sds.tolist()):
            total += factor * (mean - scenario.risk_aversion * sd)
            factor *= scenario.delta
        risk_adjusted.append(total)
    durations = batch.cooperation_duration
    mutations = batch.mutation_counts
    endogenous_mean: tuple[float, ...] | None = None
    if batch.endogenous_utility is not None:
        endogenous_mean = tuple(batch.endogenous_utility.mean(axis=0).tolist())

    return BatchSummary(
        replica_count=count,
        mean_utility=tuple(utility.mean(axis=0).tolist()),
        std_utility=tuple(std_utility.tolist()),
        risk_adjusted_utility=tuple(risk_adjusted),
        mean_cooperation_duration=float(np.mean(durations)),
        spiral_frequency=int(np.count_nonzero(durations < scenario.horizon)) / count,
        mean_final_cooperation_fraction=float(
            np.mean(_cooperating_fraction(batch.defects[:, -1]))
        ),
        mutation_count_mean=float(mutations.mean()),
        mutation_count_std=float(mutations.std(ddof=1)) if count > 1 else 0.0,
        mutation_count_min=int(mutations.min()),
        mutation_count_max=int(mutations.max()),
        mean_endogenous_utility=endogenous_mean,
    )
