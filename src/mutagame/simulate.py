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
from dataclasses import asdict, dataclass

import numpy as np

from . import _ziggurat
from .discounting import (
    NoisePath,
    InvestmentPlan,
    endogenous_discount_path,
    validate_discount,
)
from .errors import CapacityError, ConfigurationError, ScenarioValidationError
from .game import (
    _ALWAYS_DEFECT,
    StageGameSpec,
    StrategyKind,
    StrategyTag,
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
        if self.kernel.size != len(self.game):
            errors.append(
                f"kernel: {self.kernel.size} states but game defines "
                f"{len(self.game)}"
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
        return {k: v for k, v in asdict(self).items() if v is not None}


@dataclass(frozen=True, eq=False)
class BatchTrace:
    """Every round of a batch as arrays, one row per replica.

    ``states`` (R, H) holds the state in force each round, ``defects``
    (R, H, n) marks Defect actions and ``payoffs`` (R, H, n) holds the
    realized payoffs. ``theta`` and ``winner`` (R, H) exist only when the
    scenario draws them. Per replica: ``discounted_utility`` and
    ``endogenous_utility`` (R, n), and ``cooperation_duration`` (R,), the
    rounds before the spiral onset, or H when the replica does not spiral.
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


def run_replica(scenario: Scenario, replica_index: int) -> BatchTrace:
    """Run one replica as a one-replica batch; identical (scenario,
    replica_index) gives an identical trace."""
    return _simulate(scenario, range(replica_index, replica_index + 1))


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
# SeedSequence's hash constants (numpy's ``bit_generator.pyx``, after
# O'Neill's ``seed_seq``).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# numpy's ziggurat tail: the base layer's right edge and its inverse.
_TAIL_R, _TAIL_INV_R = 3.6541528853610088, 0.27366123732975828
# The ziggurat tables as Python numbers, for the scalar slow path.
_WI, _KI, _FI = (table.tolist() for table in (_ziggurat.WI, _ziggurat.KI, _ziggurat.FI))


def _draws(scenario: Scenario, replicas: range) -> np.ndarray:
    """Every replica's draws, shape (R, H, d), in per-round draw order.

    Column 0 is the protocol step, then theta's standard normal when
    enabled, then the lottery uniform when enabled: the values that scalar
    ``random()`` and ``standard_normal()`` calls on
    ``replica_rng(master_seed, i)`` return in that order. They are computed
    in bulk, chunk by chunk of replicas. ``_seed_states`` seeds every stream
    of a chunk at once, and each stream's raw 64-bit words are drawn in one
    call: H*d words, plus ``_slack`` when normals are drawn. A uniform takes
    one word w, ``(w >> 11) * 2**-53``. A normal takes one word on numpy's
    ziggurat fast path (``_ziggurat``). Off it (about 1.5% of normals)
    ``_slow_normal`` runs numpy's algorithm on the words that follow, and
    every later draw of the replica moves down by the extra words it used.
    """
    horizon, normal = scenario.horizon, scenario.theta is not None
    per_round = 1 + normal + scenario.game.lottery_mode
    count = replicas.stop - replicas.start  # len() overflows past sys.maxsize
    width = horizon * per_round + (_slack(horizon) if normal else 0)
    # Past this numpy raises ValueError, not MemoryError: 8 bytes per
    # float64 draw or uint64 word.
    if count * width * 8 > np.iinfo(np.intp).max:
        raise CapacityError(
            f"{count} replicas x horizon {horizon} x {per_round} draws per round "
            "exceed the largest array numpy can index"
        )
    draws = np.empty((count, horizon, per_round))
    stream = np.random.PCG64(0)
    for start in range(0, count, _CHUNK):
        chunk = replicas[start:start + _CHUNK]
        out = draws[start:start + len(chunk)]
        seeds = _seed_states(scenario.master_seed, chunk)
        words = np.stack([_raw_words(stream, seed, width) for seed in seeds])
        slow = {}
        if normal:
            words, slow = _skip_slow_normals(words, seeds, stream, horizon, per_round)
        words = words.reshape(out.shape)
        np.multiply(words >> 11, 2.0**-53, out=out)
        if normal:
            out[:, :, 1] = _fast_normals(words[:, :, 1])
            for (row, t), value in slow.items():
                out[row, t, 1] = value
    return draws


def _slack(normals: int) -> int:
    """Words drawn past H*d for a row with this many normals. A slow normal
    takes one to a few extra words; this covers several times the mean
    extra, and a row that needs more draws them."""
    return 8 + normals // 16


def _uint32_words(value: int) -> list[int]:
    """A non-negative int as SeedSequence reads it: 32-bit words, least
    significant first; 0 is one word."""
    return [value >> shift & 0xFFFFFFFF for shift in range(0, max(value.bit_length(), 1), 32)]


def _hash_constants(init: int, multiplier: int, count: int) -> np.ndarray:
    """SeedSequence's successive hash constants: ``init`` times
    ``multiplier`` to the power 0..count, mod 2**32."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * multiplier & 0xFFFFFFFF)
    return np.array(consts, dtype=np.uint32)


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of row k of uint32 ``values`` under hash
    constant ``consts[k]``, whose successor is ``consts[k + 1]``."""
    values = (values ^ consts[:-1, None]) * consts[1:, None]  # uint32 wraps, as in C
    return values ^ values >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of uint32 words."""
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ result >> 16


def _seed_states(master_seed: int, replicas: range) -> list[tuple[int, int]]:
    """PCG64's (state, inc) once seeded from ``SeedSequence([master_seed,
    i])``, for each replica i.

    numpy's algorithm, run for every replica whose entropy has the same
    word count at once, on uint32 arrays with one column per replica. The
    4-word pool is filled, mixed, and mixed with the entropy words past 4
    (``mix_entropy``); ``generate_state(4, uint64)`` gives v0..v3; PCG64's
    ``set_seed`` takes seed ``v0 << 64 | v1`` and sequence ``v2 << 64 | v3``.
    """
    seed_words = _uint32_words(master_seed)
    entropies = (seed_words + _uint32_words(i) for i in replicas)
    states = []
    for _, group in itertools.groupby(entropies, key=len):
        entropy = np.array(list(group), dtype=np.uint32).T  # (words, replicas)
        pool = np.zeros((4, entropy.shape[1]), dtype=np.uint32)
        pool[:len(entropy)] = entropy[:4]
        consts = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * len(entropy[4:]))
        pool, k = _hashmix(pool, consts[:5]), 4
        for src in range(4):
            others = [dst for dst in range(4) if dst != src]
            pool[others] = _mix(pool[others], _hashmix(pool[src], consts[k:k + 4]))
            k += 3
        for word in entropy[4:]:
            pool = _mix(pool, _hashmix(word, consts[k:k + 5]))
            k += 4
        halves = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _hash_constants(_INIT_B, _MULT_B, 8))
        halves = halves.astype(np.uint64)
        v0, v1, v2, v3 = (halves[0::2] | halves[1::2] << 32).tolist()
        for seed_hi, seed_lo, seq_hi, seq_lo in zip(v0, v1, v2, v3):
            inc = ((seq_hi << 64 | seq_lo) << 1 | 1) % 2**128
            # Two LCG steps: from state 0, and after adding the seed.
            state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULTIPLIER + inc) % 2**128
            states.append((state, inc))
    return states


def _raw_words(stream: np.random.PCG64, seed: tuple[int, int], count: int) -> np.ndarray:
    """The first ``count`` raw words of the PCG64 stream whose (state, inc)
    is ``seed``, drawn by ``stream``."""
    state, inc = seed
    stream.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return stream.random_raw(count)


def _skip_slow_normals(
    words: np.ndarray, seeds: list[tuple[int, int]], stream: np.random.PCG64,
    horizon: int, per_round: int,
) -> tuple[np.ndarray, dict[tuple[int, int], float]]:
    """The word each draw starts from, (C, H*d), and the normals that miss
    the ziggurat fast path, by (row, round).

    ``words`` holds the first words of each of the C streams seeded by
    ``seeds``; normals sit in column 1 of each round. The fast path is
    tested on every word once, and each row's misses are walked in order
    by ``_row_slow_normals``. A row that runs out of words is drawn again
    from its seed, twice as long. A row keeps its first H*d + shift words
    but the extra words of its slow normals, shift being their count.
    """
    count, width = words.shape
    rows, columns = np.divmod(np.flatnonzero(~_fast_path(words)), width)
    bounds = np.searchsorted(rows, np.arange(count + 1)).tolist()
    columns = columns.tolist()
    walked, grown = {}, {}
    for row in range(count):
        row_words, misses = words[row], columns[bounds[row]:bounds[row + 1]]
        while (found := _row_slow_normals(row_words, misses, horizon, per_round)) is None:
            row_words = _raw_words(stream, seeds[row], 2 * len(row_words))
            misses = np.flatnonzero(~_fast_path(row_words)).tolist()
            grown[row] = row_words
        walked[row] = found
    if grown:
        words = np.pad(words, ((0, 0), (0, max(map(len, grown.values())) - width)))
        for row, row_words in grown.items():
            words[row, :len(row_words)] = row_words
    keep = np.zeros(words.shape, dtype=bool)
    keep[:, :horizon * per_round] = True
    slow = {}
    for row, found in walked.items():
        keep[row, :horizon * per_round + sum(used - 1 for *_, used in found)] = True
        for miss, t, value, used in found:
            slow[row, t] = value
            keep[row, miss + 1:miss + used] = False
    return words[keep].reshape(count, horizon * per_round), slow


def _row_slow_normals(
    words: np.ndarray, misses: list[int], horizon: int, per_round: int
) -> list[tuple[int, int, float, int]] | None:
    """(first word, round, value, words used) of each normal of one row
    that misses the fast path, in order; None when the row needs more than
    its ``words``.

    ``misses`` are the indices of the words that miss, ascending. One
    counts when it lies where the row's next normal starts, ``t*d + 1 +
    shift`` for a round t not yet walked, shift being the extra words of
    the slow normals before it.
    """
    found, shift, next_normal = [], 0, 1
    for miss in misses:
        if miss < next_normal or (miss - next_normal) % per_round:
            continue
        t = (miss - 1 - shift) // per_round
        if t >= horizon:
            break
        try:
            value, used = _slow_normal(words[miss:])
        except IndexError:
            return None
        found.append((miss, t, value, used))
        shift += used - 1
        next_normal = miss + per_round + used - 1
    if horizon * per_round + shift > len(words):
        return None
    return found


def _fast_path(words: np.ndarray) -> np.ndarray:
    """Whether numpy's ziggurat fast path accepts each word as a normal."""
    rabs = words >> 9
    rabs &= 2**52 - 1
    return rabs < _ziggurat.KI[(words & 0xFF).astype(np.uint8)]


def _fast_normals(words: np.ndarray) -> np.ndarray:
    """The normal numpy's ziggurat fast path makes of each word:
    ``+-rabs * WI[layer]``, right only where ``_fast_path`` accepts it."""
    normals = ((words >> 9) & (2**52 - 1)) * _ziggurat.WI[words & 0xFF]
    return np.negative(normals, out=normals, where=(words & 0x100).astype(bool))


def _slow_normal(words: np.ndarray) -> tuple[float, int]:
    """numpy's ``random_standard_normal`` run on ``words``, the stream's
    words from the normal's first: the value and the number of words used.
    Raises IndexError when it needs more words than there are.

    A word off the fast path in layer 0 goes to the tail, two uniforms a
    try. In any other layer one uniform u decides the wedge: x is accepted
    when ``(FI[i-1] - FI[i]) * u + FI[i] < exp(-x*x/2)``, and otherwise the
    next word starts over. ``math.exp`` and ``math.log1p`` call the same
    libm functions as numpy, whose ``random_standard_normal`` fuses no
    multiply-add, so every decision is numpy's.
    """
    used = 0
    while True:
        word = int(words[used])
        used += 1
        layer, rabs = word & 0xFF, (word >> 9) & (2**52 - 1)
        x = rabs * _WI[layer]
        if word & 0x100:
            x = -x
        if rabs < _KI[layer]:
            return x, used
        if layer == 0:
            while True:
                xx = -_TAIL_INV_R * math.log1p(-((int(words[used]) >> 11) * 2.0**-53))
                yy = -math.log1p(-((int(words[used + 1]) >> 11) * 2.0**-53))
                used += 2
                if yy + yy > xx * xx:  # the tail's sign is bit 8 of rabs
                    return (-(_TAIL_R + xx) if rabs & 0x100 else _TAIL_R + xx), used
        u = (int(words[used]) >> 11) * 2.0**-53
        used += 1
        if (_FI[layer - 1] - _FI[layer]) * u + _FI[layer] < math.exp(-0.5 * x * x):
            return x, used


def _myopic_defects(tables: np.ndarray, delta: float, miners: list[int]) -> np.ndarray:
    """Defect flag of each listed MyopicBestResponse miner per state and
    last-profile bitmask, shape (len(miners), k, 2**n), from the (k, 2**n, n)
    payoff tables.

    A miner compares its payoff with its own bit of the mask cleared
    (Cooperate) and set (Defect), opponents held at the mask. When every
    opponent cooperated it also prices the grim continuation: delta/(1-delta)
    times the all-Cooperate payoff for Cooperate, times the all-Defect payoff
    for Defect. Ties Cooperate. Round 0 reads mask 0: with no last profile,
    opponents are held at Cooperate.
    """
    n = tables.shape[-1]
    masks = np.arange(2**n)
    weight = delta / (1.0 - delta)
    flags = []
    for miner in miners:
        bit = 1 << (n - 1 - miner)
        cooperate = tables[:, masks & ~bit, miner]
        defect = tables[:, masks | bit, miner]
        threatened = (masks & ~bit) == 0
        cooperate[:, threatened] += weight * tables[:, :1, miner]
        defect[:, threatened] += weight * tables[:, -1:, miner]
        flags.append(cooperate < defect)
    return np.stack(flags)


def _resolve_defects(
    scenario: Scenario, states: np.ndarray, tables: np.ndarray
) -> np.ndarray:
    """Defect flags (R, H, n) under the strategy rules, one round at a time
    over all replicas; ``tables`` are the (k, 2**n, n) payoff tables. The
    scalar reference is ``resolve_actions`` in ``tests/oracles.py``."""
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
        myopic_table = _myopic_defects(tables, scenario.delta, myopic)
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
    draws = _draws(scenario, replicas)  # first: it refuses what len() cannot count
    count, horizon, n = len(replicas), scenario.horizon, scenario.n
    game, kernel = scenario.game, scenario.kernel

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

    tables = np.stack([stage.tensor.reshape(-1, n) for stage in game])
    defects = _resolve_defects(scenario, states, tables)
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
