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
from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from . import _ziggurat
from .discounting import (
    NoisePath,
    InvestmentPlan,
    discounted_utility,
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
        if not self.contest_exponent > 0.0:
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
        if not 0.0 <= self.risk_aversion < math.inf:
            errors.append(f"risk_aversion.eta: must be finite and >= 0, got {self.risk_aversion}")
        if not math.isfinite(self.post_mutation_value):
            errors.append(f"post_mutation_value: must be finite, got {self.post_mutation_value}")
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
        if self.investment is not None and not self.investment.expected_returns[0] > 0.0:
            errors.append(
                "investment.expected_returns[0]: per-period return must be positive, "
                f"got {self.investment.expected_returns[0]}"
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

    ``states`` (R, H) holds the state in force each round, ``profiles``
    (R, H) each round's joint profile as a bitmask (``_defect_flags``), and
    ``payoffs`` (R, H, n) the realized payoffs. ``theta`` and ``winner``
    (R, H) exist only when the scenario draws them. Per replica:
    ``discounted_utility`` and ``endogenous_utility`` (R, n), and
    ``cooperation_duration`` (R,), the rounds before the spiral onset (H with none).
    """

    replicas: range
    states: np.ndarray
    profiles: np.ndarray
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

    @property
    def defects(self) -> np.ndarray:
        """(R, H, n) Defect flags of ``profiles``, derived on each access."""
        return _defect_flags(self.profiles, self.payoffs.shape[-1])


def replica_rng(master_seed: int, replica_index: int) -> np.random.Generator:
    """Stream splitting rule, PCG64(SeedSequence([master_seed, index])): what _draws computes."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([master_seed, replica_index]))
    )


def apply_meta_influence(
    kernel_rows,
    investors: list[tuple[float, int, float]],
    config: MetaModelConfig,
) -> np.ndarray:
    """Blend a kernel row, or every row of a (k, k) matrix, toward the
    contest outcome of meta investors.

    Contest weights are hash-weighted budgets raised to the contest exponent
    and normalized over states actually receiving effort. The blend
    coefficient is beta times total invested effort (capped at 1), so the
    adjusted row stays a convex combination of two distributions. Neither
    depends on the row, so each row of a matrix is blended as it would be
    alone.
    """
    rows = np.array(kernel_rows, dtype=float)
    if not config.enabled or not investors or config.influence_strength == 0.0:
        return rows
    k = rows.shape[-1]
    efforts = np.zeros(k)
    total = 0.0
    for budget, preferred, share in investors:
        if not 0.0 <= budget <= 1.0:
            raise ConfigurationError(f"meta budget must lie in [0, 1], got {budget}")
        if not 0 <= preferred < k:
            raise ConfigurationError(f"preferred state {preferred} out of range [0, {k})")
        effort = share * budget
        efforts[preferred] += effort
        total += effort
    if total <= 0.0:
        return rows
    weights = efforts ** config.contest_exponent
    weight_sum = weights.sum()
    if weight_sum <= 0.0:  # exponent underflowed every effort
        return rows
    weights /= weight_sum
    lam = min(config.influence_strength * min(total, 1.0), 1.0)
    return (1.0 - lam) * rows + lam * weights


def run_batch(scenario: Scenario) -> tuple[BatchSummary, BatchTrace]:
    """Run every replica and aggregate; replica i always draws from its own
    stream, so its rounds match ``run_replica(scenario, i)``."""
    batch = _simulate(scenario, range(scenario.replica_count))
    return summarize_batch(scenario, batch), batch


def run_replica(scenario: Scenario, replica_index: int) -> BatchTrace:
    """Run one replica as a one-replica batch; identical (scenario,
    replica_index) gives an identical trace."""
    if replica_index < 0:  # SeedSequence takes no negative entropy
        raise ConfigurationError(f"replica_index must be >= 0, got {replica_index}")
    return _simulate(scenario, range(replica_index, replica_index + 1))


def _defect_flags(masks: np.ndarray, n: int) -> np.ndarray:
    """Profile bitmasks (...) as Defect flags (..., n). Miner 0 is the highest
    bit, so a mask indexes a payoff table reshaped to (2**n, n) and the
    profiles of ``itertools.product("CD", repeat=n)`` in order. Masks are
    kept in the smallest unsigned dtype that holds 2**n - 1."""
    return (masks[..., None] >> np.arange(n - 1, -1, -1, dtype=masks.dtype) & 1).astype(bool)


def _cooperation_table(n: int) -> np.ndarray:
    """The fraction of miners that Cooperate, per profile mask (2**n,)."""
    return (n - np.count_nonzero(_defect_flags(np.arange(2**n), n), axis=1)) / n


# Replicas seeded together; results do not depend on it.
_CHUNK = 1024
# PCG64's LCG multiplier: state <- state * _PCG64_MULTIPLIER + inc (mod 2**128).
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
# SeedSequence's hash constants (numpy's ``bit_generator.pyx``, after
# O'Neill's ``seed_seq``).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# uint64 operands, as 0-d arrays: numpy 1.x's value-based casting can turn
# uint64 into float64, and numpy converts a scalar operand on every call
# (``_draws`` at R=750 ran 12% slower with np.uint64 scalars, numpy 2.4 on
# 2 vCPUs). Then the multiplier's 64-bit halves, and the 32-bit halves of
# its low half.
_U1, _U11, _U32, _U58, _U63, _U64, _LOW32, _M_HI, _M_LO, _M1, _M0 = (
    np.array(value, dtype=np.uint64) for value in (
        1, 11, 32, 58, 63, 64, 2**32 - 1, _PCG64_MULTIPLIER >> 64,
        _PCG64_MULTIPLIER & 2**64 - 1, _PCG64_MULTIPLIER >> 32 & 2**32 - 1,
        _PCG64_MULTIPLIER & 2**32 - 1,
    )
)
# numpy's ziggurat tail: the base layer's right edge and its inverse.
_TAIL_R, _TAIL_INV_R = 3.6541528853610088, 0.27366123732975828
# The ziggurat tables as Python numbers, for the scalar slow path.
_WI, _KI, _FI = (table.tolist() for table in (_ziggurat.WI, _ziggurat.KI, _ziggurat.FI))


def _draws(scenario: Scenario, replicas: range) -> np.ndarray:
    """Every replica's draws, shape (R, H, d), in per-round draw order.

    Column 0 is the protocol step, then theta's standard normal when
    enabled, then the lottery uniform when enabled: the values that scalar
    ``random()`` and ``standard_normal()`` calls on
    ``replica_rng(master_seed, i)`` return in that order. Every replica's
    PCG64 is one lane of the (4, R) array of ``_seed_states``, and
    ``_step`` gives all lanes their next word at once, draw column by draw
    column, round by round. A uniform takes one word w, ``(w >> 11) *
    2**-53``. A normal takes one word on numpy's ziggurat fast path
    (``_ziggurat``). Off it (about 1.5% of normals) ``_lane_normals`` runs
    numpy's algorithm on that lane's further words, so the lane alone moves
    on by the extra words it used.
    """
    horizon, normal = scenario.horizon, scenario.theta is not None
    per_round = 1 + normal + scenario.game.lottery_mode
    count = replicas.stop - replicas.start  # len() overflows past sys.maxsize
    # Past this numpy raises ValueError, not MemoryError: 8 bytes per draw.
    if count * horizon * per_round * 8 > np.iinfo(np.intp).max:
        raise CapacityError(
            f"{count} replicas x horizon {horizon} x {per_round} draws per round "
            "exceed the largest array numpy can index"
        )
    draws = np.empty((count, horizon, per_round))
    lanes = np.empty((4, count), dtype=np.uint64)
    for start in range(0, count, _CHUNK):
        chunk = replicas[start:start + _CHUNK]
        lanes[:, start:start + len(chunk)] = _seed_states(scenario.master_seed, chunk)
    for t in range(horizon):
        for column in range(per_round):
            words = _step(lanes)
            if normal and column == 1:
                draws[:, t, 1] = _fast_normals(words)
                misses = np.flatnonzero(~_fast_path(words))
                draws[misses, t, 1] = _lane_normals(lanes, misses, words[misses])
            else:
                np.multiply(words >> _U11, 2.0**-53, out=draws[:, t, column])
    return draws


def _step(lanes: np.ndarray) -> np.ndarray:
    """One PCG64 step of every lane of ``lanes``, a (4, R) uint64 array of
    the high and low halves of each stream's LCG state, then of its inc.

    The state becomes M*state + inc (mod 2**128) in place, and the words
    PCG64 outputs for the new states, ``rotr64(hi ^ lo, hi >> 58)``, are
    returned. M's low half times the state's low half is taken from 32-bit
    halves with inc's low half folded in, so that no partial sum wraps: t =
    m0*s0 + c0, mid = m1*s0 + (t >> 32) + c1, cross = m0*s1 + (mid &
    LOW32). The new low half is cross << 32 | t & LOW32; the high half is
    m1*s1 + (mid >> 32) + (cross >> 32) + M_hi*lo + M_lo*hi + inc_hi.
    """
    high, low, inc_high, inc_low = lanes
    s0, s1 = low & _LOW32, low >> _U32
    t = s0 * _M0 + (inc_low & _LOW32)
    mid = s0 * _M1 + (t >> _U32) + (inc_low >> _U32)
    cross = s1 * _M0 + (mid & _LOW32)
    high *= _M_LO
    high += low * _M_HI
    high += s1 * _M1 + (mid >> _U32) + (cross >> _U32) + inc_high
    np.bitwise_or(cross << _U32, t & _LOW32, out=low)
    words = high ^ low
    rotation = high >> _U58
    return words >> rotation | words << ((_U64 - rotation) & _U63)


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


def _seed_states(master_seed: int, replicas: range) -> np.ndarray:
    """PCG64's (state, inc) once seeded from ``SeedSequence([master_seed,
    i])``, for each replica i, as ``_step``'s (4, C) uint64 lanes: the high
    and low halves of state, then of inc.

    numpy's algorithm, run for every replica whose entropy has the same
    word count at once, on uint32 arrays with one column per replica. The
    4-word pool is filled, mixed, and mixed with the entropy words past 4
    (``mix_entropy``); ``generate_state(4, uint64)`` gives v0..v3. PCG64's
    ``set_seed`` (seed v0:v1, sequence v2:v3) sets inc to 2*sequence + 1
    and the state to seed + inc (its first step, from state 0, gives inc),
    then takes one ``_step``.
    """
    seed_words = _uint32_words(master_seed)
    entropies = (seed_words + _uint32_words(i) for i in replicas)
    generated = []
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
        generated.append(halves.astype(np.uint64))
    halves = np.concatenate(generated, axis=1)
    (seed_high, seed_low), (seq_high, seq_low) = np.split(halves[0::2] | halves[1::2] << _U32, 2)
    inc_high, inc_low = seq_high << _U1 | seq_low >> _U63, seq_low << _U1 | _U1
    low = inc_low + seed_low
    lanes = np.stack([inc_high + seed_high + (low < seed_low), low, inc_high, inc_low])
    _step(lanes)
    return lanes


def _lane_normals(lanes: np.ndarray, misses: np.ndarray, words: np.ndarray) -> list[float]:
    """numpy's normals from ``words``, which missed the ziggurat fast path,
    on lanes ``misses`` of ``_step``'s lanes. Each normal's further words
    come from its lane's own LCG state as a Python int, which is then
    written back."""
    values, states = [], []
    state = inc = 0

    def next_word() -> int:
        nonlocal state
        state = (state * _PCG64_MULTIPLIER + inc) % 2**128
        rotation, folded = state >> 122, (state >> 64 ^ state) & 2**64 - 1
        return (folded >> rotation | folded << (64 - rotation)) & 2**64 - 1

    for word, (high, low, inc_high, inc_low) in zip(words.tolist(), lanes[:, misses].T.tolist()):
        state, inc = high << 64 | low, inc_high << 64 | inc_low
        values.append(_slow_normal(word, next_word))
        states += state >> 64, state & 2**64 - 1
    lanes[:2, misses] = np.array(states, dtype=np.uint64).reshape(-1, 2).T
    return values


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


def _slow_normal(word: int, next_word: Callable[[], int]) -> float:
    """numpy's ``random_standard_normal`` from its first word ``word``,
    taking each further word of the stream from ``next_word()``.

    A word off the fast path in layer 0 goes to the tail, two uniforms a
    try. In any other layer one uniform u decides the wedge: x is accepted
    when ``(FI[i-1] - FI[i]) * u + FI[i] < exp(-x*x/2)``, and otherwise the
    next word starts over. ``math.exp`` and ``math.log1p`` call the same
    libm functions as numpy, whose ``random_standard_normal`` fuses no
    multiply-add, so every decision is numpy's.
    """
    while True:
        layer, rabs = word & 0xFF, (word >> 9) & (2**52 - 1)
        x = rabs * _WI[layer]
        if word & 0x100:
            x = -x
        if rabs < _KI[layer]:
            return x
        if layer == 0:
            while True:
                xx = -_TAIL_INV_R * math.log1p(-((next_word() >> 11) * 2.0**-53))
                yy = -math.log1p(-((next_word() >> 11) * 2.0**-53))
                if yy + yy > xx * xx:  # the tail's sign is bit 8 of rabs
                    return -(_TAIL_R + xx) if rabs & 0x100 else _TAIL_R + xx
        u = (next_word() >> 11) * 2.0**-53
        if (_FI[layer - 1] - _FI[layer]) * u + _FI[layer] < math.exp(-0.5 * x * x):
            return x
        word = next_word()


def _myopic_defects(tables: np.ndarray, delta: float, miner: int) -> np.ndarray:
    """Defect flag of a MyopicBestResponse miner per state and last-profile
    bitmask, shape (k, 2**n), from the (k, 2**n, n) payoff tables.

    The miner compares its payoff with its own bit of the mask cleared
    (Cooperate) and set (Defect), opponents held at the mask. When every
    opponent cooperated it also prices the grim continuation: delta/(1-delta)
    times the all-Cooperate payoff for Cooperate, times the all-Defect payoff
    for Defect. Ties Cooperate. Round 0 reads mask 0: with no last profile,
    opponents are held at Cooperate.
    """
    n = tables.shape[-1]
    masks = np.arange(2**n)
    bit = 1 << (n - 1 - miner)
    weight = delta / (1.0 - delta)
    cooperate = tables[:, masks & ~bit, miner]
    defect = tables[:, masks | bit, miner]
    threatened = (masks & ~bit) == 0
    cooperate[:, threatened] += weight * tables[:, :1, miner]
    defect[:, threatened] += weight * tables[:, -1:, miner]
    return cooperate < defect


def _strategy_tables(scenario: Scenario, tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The strategy rules as two profile-mask tables, from the (k, 2**n, n)
    payoff tables. ``respond`` (k, 2**n) holds the Defect bits of the
    always-Defect tags, TitForTat and MyopicBestResponse, by state in force
    and last profile (mask 0 in round 0). ``grim`` (2, 2**n) holds the
    GrimTrigger bits, by whether a rule change is on record and the mask of
    miners that ever Defected. A round's profile is ``respond[state, last]
    | grim[seen, ever]``; the scalar reference is ``tests/oracles.py``'s
    ``resolve_actions``.
    """
    n = scenario.n
    dtype = np.min_scalar_type(2**n - 1)
    flags = _defect_flags(np.arange(2**n), n)
    opponents = np.count_nonzero(flags, axis=1)[:, None] - flags  # (2**n, n)
    respond = np.zeros(tables.shape[:2], dtype=dtype)
    grim = np.zeros((2, 2**n), dtype=dtype)
    for i, miner in enumerate(scenario.miners):
        tag, bit = miner.strategy.tag, 1 << (n - 1 - i)
        if tag in _ALWAYS_DEFECT:
            respond |= bit
        elif tag is StrategyTag.TIT_FOR_TAT:  # the opponents' majority; ties Cooperate
            respond[:, 2 * opponents[:, i] > n - 1] |= bit
        elif tag is StrategyTag.MYOPIC_BEST_RESPONSE:
            respond[_myopic_defects(tables, scenario.delta, i)] |= bit
        elif tag is StrategyTag.GRIM_TRIGGER:
            grim[:, opponents[:, i] > 0] |= bit
            if scenario.trigger_on_mutation:
                grim[1] |= bit
    return respond, grim


def _resolve_profiles(scenario: Scenario, states: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """Joint profiles (R, H) as bitmasks under the strategy rules, one round
    at a time over all replicas, by the tables of ``_strategy_tables``."""
    respond, grim = _strategy_tables(scenario, tables)
    replicas, horizon = states.shape
    # Round t sees the rule changes entering rounds 1..t-1. uint8, not bool:
    # an index, not a mask.
    seen = np.zeros((replicas, horizon), dtype=np.uint8)
    seen[:, 2:] = np.logical_or.accumulate(states[:, 1:-1] != states[:, :-2], axis=1)
    profiles = np.empty((replicas, horizon), dtype=respond.dtype)
    last = np.zeros(replicas, dtype=respond.dtype)  # round 0 reads as all Cooperate
    ever = np.zeros(replicas, dtype=respond.dtype)
    for t in range(horizon):
        last = respond[states[:, t], last] | grim[seen[:, t], ever]
        ever |= last
        profiles[:, t] = last
    return profiles


def _simulate(scenario: Scenario, replicas: range) -> BatchTrace:
    """Advance the given replicas together, round by round.

    Per round t the state in force is P_t; the protocol step taken during
    round t yields P_{t+1}, whose change is observable to strategies from
    round t+2 on (mutation flags describe completed rounds). A round's joint
    profile is kept only as its bitmask, from ``_resolve_profiles``; the
    payoff row and the cooperating fraction are looked up by it. Payoffs are
    the table row at (P_t, profile), scaled by the clamped theta draw when a
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
    cumulative = np.cumsum(apply_meta_influence(kernel.matrix, investors, scenario.meta), axis=1)
    states = np.empty((count, horizon), dtype=np.int64)
    states[:, 0] = scenario.initial_state
    for t in range(horizon - 1):
        below = cumulative[states[:, t]] <= draws[:, t, :1]
        np.minimum(below.sum(axis=1), kernel.size - 1, out=states[:, t + 1])

    tables = np.stack([stage.tensor.reshape(-1, n) for stage in game])
    profiles = _resolve_profiles(scenario, states, tables)
    payoffs = tables[states, profiles]
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

    discounted = discounted_utility(payoffs.swapaxes(0, 1), scenario.delta)
    endogenous = None
    if scenario.noise is not None:
        path = endogenous_discount_path(scenario.noise, horizon - 1)
        # One product per replica: a batched product would reorder the sums.
        endogenous = np.array([path @ replica for replica in payoffs])

    cooperating = (_cooperation_table(n) >= scenario.spiral_threshold)[profiles]
    last_cooperating = horizon - np.argmax(cooperating[:, ::-1], axis=1)
    return BatchTrace(
        replicas=replicas,
        states=states,
        profiles=profiles,
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
    # Monte Carlo meaning; within one replica it is degenerate.
    risk_adjusted = []
    for i in range(n):
        rounds = np.ascontiguousarray(batch.payoffs[:, :, i].T)  # (H, R), one miner
        means = rounds.mean(axis=1)
        sds = np.sqrt(rounds.var(axis=1, ddof=1)) if count > 1 else np.zeros(len(means))
        risk_adjusted.append(
            discounted_utility(means - scenario.risk_aversion * sds, scenario.delta))
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
            np.mean(_cooperation_table(n)[batch.profiles[:, -1]])),
        mutation_count_mean=float(mutations.mean()),
        mutation_count_std=float(mutations.std(ddof=1)) if count > 1 else 0.0,
        mutation_count_min=int(mutations.min()),
        mutation_count_max=int(mutations.max()),
        mean_endogenous_utility=endogenous_mean,
    )
