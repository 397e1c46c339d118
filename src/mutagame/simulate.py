"""Monte Carlo engine for the repeated mining game under protocol dynamics.

The engine reads a ``Scenario`` and trusts it: the ``scenario`` module
defines the model and runs every scenario check when one is built.

Each replica owns an independent random stream derived from
``SeedSequence([master_seed, replica_index])``, so a replica's rounds do not
depend on the other replicas of its batch. Per-round draw order is fixed:
action resolution (no draws), protocol step (one draw, on the kernel that
``kernel_as_run`` blends with the meta contest once per batch, not each
round), payoff-scale perturbation (one draw, when enabled), block lottery
(one draw, when enabled).

A batch advances all its replicas together with array operations, in one
loop over rounds that takes each round in the order above. Each replica's
record (the state in force, the last profile, the miners that ever
defected, whether a rule change is on record) is a vector with one entry
per replica. Theta and the lottery winner are made each round from that
round's draws. Each round's payoffs are reduced into the summary within the
loop and then dropped; the trace keeps the record they derive from.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import asdict, dataclass, field

import numpy as np

from . import _ziggurat
from .discounting import endogenous_discount_path
from .errors import CapacityError
from .game import _ALWAYS_DEFECT, StrategyTag, _miner_bit
from .protocol import _INDEX, _instance
from .scenario import Scenario, kernel_as_run


def _defect_flags(masks: np.ndarray, n: int) -> np.ndarray:
    """Profile masks (...) as Defect flags (..., n), in miner order."""
    return (masks[..., None] >> np.arange(n - 1, -1, -1, dtype=masks.dtype) & 1).astype(bool)


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
    """The record of every round of a batch as arrays, one row per replica.

    ``states`` (R, H) holds the state in force each round, in the smallest
    unsigned dtype that holds k - 1, and ``profiles`` (R, H) each round's
    joint profile as a mask (the ``game`` module's encoding), in the smallest
    unsigned dtype that holds 2**n - 1. ``theta`` (R, H) and
    ``winner`` (R, H), the latter in the smallest unsigned dtype that holds
    n - 1, exist only when the scenario draws them. Per replica:
    ``discounted_utility`` and ``endogenous_utility`` (R, n), and
    ``cooperation_duration`` (R,), the rounds before the spiral onset (H with
    none). Payoffs are not stored: ``payoffs`` and ``replica_payoffs`` derive
    them from the record by ``payoff_rule``, on each access.
    """

    replicas: range
    states: np.ndarray
    profiles: np.ndarray
    theta: np.ndarray | None
    winner: np.ndarray | None
    payoff_rule: Callable[..., np.ndarray] = field(repr=False)
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
        return _defect_flags(self.profiles, self.discounted_utility.shape[-1])

    @property
    def payoffs(self) -> np.ndarray:
        """(R, H, n) realized payoffs, derived on each access."""
        return self.payoff_rule(self.states, self.profiles, self.theta, self.winner)

    def replica_payoffs(self, r: int) -> np.ndarray:
        """(H, n) realized payoffs of the replica at position ``r``, derived on each access."""
        theta, winner = (None if a is None else a[r] for a in (self.theta, self.winner))
        return self.payoff_rule(self.states[r], self.profiles[r], theta, winner)


def replica_rng(master_seed: int, replica_index: int) -> np.random.Generator:
    """Stream splitting rule, PCG64(SeedSequence([master_seed, index])): what _draws computes."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        [_INDEX(master_seed, "master_seed"), _INDEX(replica_index, "replica_index")])))


def run_batch(scenario: Scenario) -> tuple[BatchSummary, BatchTrace]:
    """Run every replica and aggregate; replica i always draws from its own
    stream, so its rounds match ``run_replica(scenario, i)``."""
    return _simulate(scenario)


def run_replica(scenario: Scenario, replica_index: int) -> BatchTrace:
    """Run one replica as a one-replica batch; identical (scenario,
    replica_index) gives an identical trace."""
    _INDEX(replica_index, "replica_index")  # SeedSequence takes no negative entropy
    return _simulate(scenario, range(replica_index, replica_index + 1))[1]


def _cooperation_table(n: int) -> np.ndarray:
    """The fraction of miners that Cooperate, per profile mask (2**n,)."""
    return (n - np.count_nonzero(_defect_flags(np.arange(2**n), n), axis=1)) / n


# Replicas seeded together; results do not depend on it. It bounds the
# per-replica Python lists of entropy words that ``_seed_states`` builds: on
# mutable_core at R=10**5, seeding in one call peaked at 64 MB RSS by the
# first round's draws, against 42 MB in chunks of 1,024 (2 vCPU, numpy 2.4).
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
_TAIL_R, _TAIL_INV_R = _ziggurat.TAIL_R, 1.0 / _ziggurat.TAIL_R
# The ziggurat tables as Python numbers, for the scalar slow path.
_WI, _KI, _FI = (table.tolist() for table in (_ziggurat.WI, _ziggurat.KI, _ziggurat.FI))


def _draws(scenario: Scenario, replicas: range) -> Iterator[np.ndarray]:
    """Every replica's draws, yielded round by round as a fresh (d, R) array.

    Row 0 is the protocol step, then theta's standard normal when enabled,
    then the lottery uniform when enabled: the values that scalar
    ``random()`` and ``standard_normal()`` calls on ``replica_rng(master_seed,
    i)`` return in that order. Every replica's PCG64 is one lane of the (4,
    R) array of ``_seed_states``, seeded before the first round, and
    ``_step`` gives all lanes their next word at once, draw by draw. A
    uniform takes one word w, ``(w >> 11) * 2**-53``. A normal takes one
    word on numpy's ziggurat fast path (``_fast_normals``). Off it (about
    1.5% of normals) ``_lane_normals`` runs numpy's algorithm on that lane's
    further words, so the lane alone moves on by the extra words it used.
    """
    count, normal = replicas.stop - replicas.start, scenario.theta is not None
    per_round = 1 + normal + scenario.game.lottery_mode
    lanes = np.empty((4, count), dtype=np.uint64)
    for start in range(0, count, _CHUNK):
        chunk = replicas[start:start + _CHUNK]
        lanes[:, start:start + len(chunk)] = _seed_states(scenario.master_seed, chunk)
    for _ in range(scenario.horizon):
        draws = np.empty((per_round, count))
        for row in range(per_round):
            words = _step(lanes)
            if normal and row == 1:
                draws[1], accepted = _fast_normals(words)
                misses = np.flatnonzero(~accepted)
                draws[1, misses] = _lane_normals(lanes, misses, words[misses])
            else:
                np.multiply(words >> _U11, 2.0**-53, out=draws[row])
        yield draws


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


def _fast_normals(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's ziggurat fast path on each word: the normal it makes,
    ``+-rabs * WI[layer]``, and whether it accepts the word. The normal is
    numpy's only where it is accepted."""
    rabs, layer = words >> 9, words & 0xFF
    rabs &= 2**52 - 1
    normals = rabs * _ziggurat.WI[layer]
    np.negative(normals, out=normals, where=(words & 0x100).astype(bool))
    return normals, rabs < _ziggurat.KI[layer]


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
    bit = _miner_bit(n, miner)
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
        tag, bit = miner.strategy.tag, _miner_bit(n, i)
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


def _payoff_rule(scenario: Scenario, tables: np.ndarray) -> Callable[..., np.ndarray]:
    """Payoffs (..., n) as a function of ``(states, profiles, theta, winner)``
    of any one shape (...), theta and winner None where not drawn: the row
    of the (k, 2**n, n) tables at (state, mask), scaled by the clamped theta,
    by each MetaInvestor's kept budget while the meta game is enabled, and
    zeroed for lottery losers, multiplied in that order."""
    clamp = scenario.theta is not None and scenario.theta.clamp
    keep = np.array([  # all ones with the meta game off: x * 1.0 is x, bit for bit
        1.0 - m.strategy.meta_budget
        if scenario.meta.enabled and m.strategy.tag is StrategyTag.META_INVESTOR else 1.0
        for m in scenario.miners
    ])
    miners = np.arange(scenario.n)

    def payoffs(states, profiles, theta, winner) -> np.ndarray:
        values = tables[states, profiles]
        if theta is not None:
            values = values * (np.where(theta > 0.0, theta, 0.0) if clamp else theta)[..., None]
        values = values * keep
        if winner is not None:
            values = values * (winner[..., None] == miners)  # one-hot
        return values

    return payoffs


def _mean_and_spread(row: np.ndarray, ddof: int) -> tuple[np.ndarray, np.ndarray]:
    """Each miner's mean and std over the replicas of one (R, n) round: numpy's
    ``mean`` and ``var`` op for op, so bit-equal, but summing the mean once."""
    rounds = row.T.copy()  # (n, R), C order: numpy sums a contiguous row pairwise
    mean = rounds.sum(axis=1) / len(row)
    rounds -= mean[:, None]
    rounds *= rounds
    return mean, np.sqrt(rounds.sum(axis=1) / (len(row) - ddof))


@np.errstate(over="ignore", invalid="ignore")  # refused below, with one error
def _simulate(
    scenario: Scenario, replicas: range | None = None
) -> tuple[BatchSummary, BatchTrace]:
    """Advance the given replicas (default: every replica of the scenario)
    together, round by round, reducing the summary.

    Per round t the state in force is P_t; the protocol step taken during
    round t yields P_{t+1}, whose change is observable to strategies from
    round t+2 on (mutation flags describe completed rounds). A round's joint
    profile is ``respond[P_t, last] | grim[seen, ever]`` by the tables of
    ``_strategy_tables``, kept only as its bitmask. The round's (R, n)
    payoffs are reduced into the discounted, endogenous and risk-adjusted
    utilities and the last cooperating round, then dropped.
    """
    _instance(Scenario)(scenario, "scenario")
    replicas = range(scenario.replica_count) if replicas is None else replicas
    count, horizon, n = replicas.stop - replicas.start, scenario.horizon, scenario.n
    # len() overflows past sys.maxsize. The (R, H, n) float64 payoffs that
    # ``BatchTrace.payoffs`` derives are the largest array; past numpy's
    # index type it is ValueError, not MemoryError.
    if count * horizon * n * 8 > np.iinfo(np.intp).max:
        raise CapacityError(
            f"{count} replicas x horizon {horizon} x {n} miners "
            "exceed the largest array numpy can index"
        )
    game, process, delta = scenario.game, scenario.theta, scenario.delta
    cumulative = np.cumsum(kernel_as_run(scenario).matrix, axis=1)
    tables = np.stack([stage.tensor.reshape(-1, n) for stage in game])
    respond, grim = _strategy_tables(scenario, tables)
    rule = _payoff_rule(scenario, tables)
    cuts = np.cumsum([m.share for m in scenario.miners])
    cooperation = _cooperation_table(n)
    cooperates = cooperation >= scenario.spiral_threshold
    ddof = min(count - 1, 1)  # one replica has no spread: its std is 0
    states = np.empty((count, horizon), dtype=np.min_scalar_type(len(game) - 1))
    profiles = np.empty((count, horizon), dtype=respond.dtype)
    theta = None if process is None else np.empty((count, horizon))
    winner = np.empty((count, horizon), np.min_scalar_type(n - 1)) if game.lottery_mode else None
    discounted, risk_adjusted = np.zeros((count, n)), np.zeros(n)
    path = None if scenario.noise is None else endogenous_discount_path(scenario.noise, horizon - 1)
    endogenous = None if path is None else np.zeros((count, n))
    duration = np.zeros(count, dtype=np.intp)  # the last cooperating round + 1; 0 with none
    factor = 1.0
    state = previous = np.full(count, scenario.initial_state, dtype=np.intp)
    last, ever = np.zeros((2, count), dtype=respond.dtype)  # round 0 reads as all Cooperate
    seen = np.zeros(count, dtype=np.uint8)  # uint8, not bool: an index, not a mask
    for t, draws in enumerate(_draws(scenario, replicas)):
        last = respond[state, last] | grim[seen, ever]
        ever |= last
        seen |= state != previous  # the change entering round t, seen from t + 1
        states[:, t], profiles[:, t], previous = state, last, state
        theta_t = winner_t = None
        if process is not None:
            theta[:, t] = theta_t = process.mean + math.sqrt(process.variance) * draws[1]
        if game.lottery_mode:
            winner_t = np.minimum(np.searchsorted(cuts, draws[-1], side="right"), n - 1)
            winner[:, t] = winner_t
        row = rule(state, last, theta_t, winner_t)
        discounted += factor * row
        if path is not None:
            endogenous += path[t] * row
        # Cross-replica per-round samples give the volatility penalty its
        # Monte Carlo meaning; within one replica it is degenerate.
        mean, spread = _mean_and_spread(row, ddof)
        risk_adjusted += factor * (mean - scenario.risk_aversion * spread)
        factor *= delta
        duration[cooperates[last]] = t + 1
        state = np.minimum((cumulative[state] <= draws[0][:, None]).sum(axis=1), len(game) - 1)

    trace = BatchTrace(
        replicas=replicas, states=states, profiles=profiles, theta=theta, winner=winner,
        payoff_rule=rule, discounted_utility=discounted, endogenous_utility=endogenous,
        cooperation_duration=duration,
    )
    mutations = trace.mutation_counts
    summary = BatchSummary(
        replica_count=count,
        mean_utility=tuple(discounted.mean(axis=0).tolist()),
        std_utility=tuple(discounted.std(axis=0, ddof=ddof).tolist()),
        risk_adjusted_utility=tuple(risk_adjusted.tolist()),
        mean_cooperation_duration=float(np.mean(duration)),
        spiral_frequency=int(np.count_nonzero(duration < horizon)) / count,
        mean_final_cooperation_fraction=float(np.mean(cooperation[last])),
        mutation_count_mean=float(mutations.mean()),
        mutation_count_std=float(mutations.std(ddof=ddof)),
        mutation_count_min=int(mutations.min()),
        mutation_count_max=int(mutations.max()),
        mean_endogenous_utility=None if trace.endogenous_utility is None
        else tuple(trace.endogenous_utility.mean(axis=0).tolist()),
    )
    _require_finite(itertools.chain(
        summary.mean_utility, summary.std_utility, summary.risk_adjusted_utility,
        summary.mean_endogenous_utility or ()))
    return summary, trace


def _require_finite(values: Iterable[float]) -> None:
    """Refuse a batch whose utilities overflowed: a value reduced from them is not finite."""
    if not all(map(math.isfinite, values)):
        raise CapacityError("the utilities overflow float64: a summary value is not finite")
