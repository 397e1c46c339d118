"""Analytic game-theory toolkit for the one-round stage game.

Pure-strategy Nash enumeration over the binary action space, grim-trigger
sustainability thresholds, the discounted cooperation/defection predicate,
and the mutation-adjusted continuation value of cooperating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .discounting import validate_discount
from .errors import CapacityError, ConfigurationError
from .game import NormalFormGame, _miner_bit, _profile_key

MAX_NASH_PLAYERS = 20


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


def pure_nash(game: NormalFormGame) -> list[str]:
    """The C/D keys of all pure-strategy Nash profiles, in lexicographic
    order (C before D).

    A profile is Nash when no player strictly gains by unilaterally flipping
    their action: one comparison per player over every profile mask.
    """
    if game.n > MAX_NASH_PLAYERS:
        raise CapacityError(
            f"pure_nash supports at most {MAX_NASH_PLAYERS} players, got {game.n}"
        )
    n = game.n
    rows, masks = game.tensor.reshape(-1, n), np.arange(2**n)
    stable = np.ones(2**n, dtype=bool)
    for player in range(n):
        stable &= rows[masks ^ _miner_bit(n, player), player] <= rows[:, player]
    return [_profile_key(mask, n) for mask in np.flatnonzero(stable).tolist()]


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


def effective_coop_value(
    stage_coop_payoff: float,
    delta: float,
    epsilon: float,
    post_mutation_value: float = 0.0,
) -> float:
    """Continuation value of cooperating when the rules may mutate.

    Cooperation pays ``stage_coop_payoff`` each future round while the rules
    survive (per-round survival probability 1 - epsilon); the first mutation
    absorbs the stream into ``post_mutation_value``. Closed geometric forms:

        sum_{t>=1} (delta * (1-eps))**t * coop
          + post * sum_{t>=1} delta**t * (1-eps)**(t-1) * eps

    With epsilon = 0 this is the familiar delta * coop / (1 - delta).
    """
    validate_discount(delta)
    if not 0.0 <= epsilon <= 1.0:
        raise ConfigurationError(f"epsilon must lie in [0, 1], got {epsilon}")
    x = delta * (1.0 - epsilon)
    survive = stage_coop_payoff * x / (1.0 - x)
    absorbed = post_mutation_value * epsilon * delta / (1.0 - x)
    return survive + absorbed


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


def mixed_nash_2x2(game: NormalFormGame) -> list[tuple[float, float]]:
    """Fully mixed equilibrium of a two-player game, if one exists.

    Returns at most one (p, q) pair: the cooperation probabilities of player
    0 and player 1 that leave the opponent indifferent. Diagnostic only;
    games with more players are out of scope.
    """
    if game.n != 2:
        raise ConfigurationError("mixed-equilibrium support enumeration needs n = 2")
    t = game.tensor
    denom_q = t[0, 0, 0] - t[1, 0, 0] + t[1, 1, 0] - t[0, 1, 0]
    denom_p = t[0, 0, 1] - t[0, 1, 1] + t[1, 1, 1] - t[1, 0, 1]
    if denom_q == 0.0 or denom_p == 0.0:
        return []
    q = (t[1, 1, 0] - t[0, 1, 0]) / denom_q
    p = (t[1, 1, 1] - t[1, 0, 1]) / denom_p
    if 0.0 <= p <= 1.0 and 0.0 <= q <= 1.0:
        return [(float(p), float(q))]
    return []
