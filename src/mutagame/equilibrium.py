"""Analytic game-theory toolkit for the one-round stage game.

Pure-strategy Nash enumeration over the binary action space, grim-trigger
sustainability thresholds, the discounted cooperation/defection predicate,
and the mutation-adjusted continuation value of cooperating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CapacityError, ConfigurationError
from .game import NormalFormGame, _miner_bit, _profile_key
from .protocol import _NUMBER, _OPEN_UNIT, _REAL, _UNIT, _instance

MAX_NASH_PLAYERS = 20


@dataclass(frozen=True)
class CooperationCondition:
    """The discounted cooperation test: the continuation value of cooperating,
    delta * E[coop], against the gain from defecting now. Ties hold; holds
    reads the continuation, which delta * expected_coop can round below."""

    delta: float
    continuation: float
    defect_now: float

    @property
    def holds(self) -> bool:
        return self.continuation >= self.defect_now

    @property
    def expected_coop(self) -> float:
        return self.continuation / self.delta


@dataclass(frozen=True)
class PlayerGrimStatus:
    """Grim-trigger ingredients for one player: T (temptation, the best
    unilateral deviation from cooperation), R (reward) and P (punishment).
    delta_star = (T - R) / (T - P); always sustainable when T <= R, never
    when R <= P (checked after T <= R), and delta_star is then None."""

    player: int
    temptation: float
    reward: float
    punishment: float

    @property
    def always_sustainable(self) -> bool:
        return self.temptation <= self.reward

    @property
    def never_sustainable(self) -> bool:
        return not self.always_sustainable and self.reward <= self.punishment

    @property
    def delta_star(self) -> float | None:
        if self.always_sustainable or self.never_sustainable:
            return None
        return (self.temptation - self.reward) / (self.temptation - self.punishment)


@dataclass(frozen=True)
class GrimThreshold:
    """Overall grim-trigger sustainability: one never-sustainable player makes
    the profile unsustainable; otherwise the max per-player threshold, none
    when every player is always sustainable."""

    per_player: tuple[PlayerGrimStatus, ...]

    @property
    def never_sustainable(self) -> bool:
        return any(s.never_sustainable for s in self.per_player)

    @property
    def always_sustainable(self) -> bool:
        return all(s.always_sustainable for s in self.per_player)

    @property
    def delta_star(self) -> float | None:
        if self.never_sustainable or self.always_sustainable:
            return None
        return max(s.delta_star for s in self.per_player if s.delta_star is not None)


def pure_nash(game: NormalFormGame) -> list[str]:
    """The C/D keys of all pure-strategy Nash profiles, in lexicographic
    order (C before D).

    A profile is Nash when no player strictly gains by unilaterally flipping
    their action: one comparison per player over every profile mask.
    """
    _instance(NormalFormGame)(game, "game")
    if game.n > MAX_NASH_PLAYERS:
        raise CapacityError(
            f"pure_nash supports at most {MAX_NASH_PLAYERS} players, got {game.n}"
        )
    n = game.n
    stable = range(2**n)
    for player in range(n):  # the player's payoff at each mask, mask order
        payoff, bit = game._entries[player::n], _miner_bit(n, player)
        stable = [mask for mask in stable if payoff[mask ^ bit] <= payoff[mask]]
    return [_profile_key(mask, n) for mask in stable]


def grim_trigger_threshold(game: NormalFormGame) -> GrimThreshold:
    """Grim sustainability from each player's T (the player alone defects),
    R (every miner cooperates) and P (every miner defects). Raises
    CapacityError when T - R, R - P or T - P overflows float64."""
    _instance(NormalFormGame)(game, "game")
    n, payoff = game.n, game._entries  # payoff[mask * n + p] is player p's at a profile mask
    threshold = GrimThreshold(tuple(
        PlayerGrimStatus(p, payoff[_miner_bit(n, p) * n + p], payoff[p], payoff[p - n])
        for p in range(n)))
    for s in threshold.per_player:
        if not all(map(math.isfinite, (s.temptation - s.reward, s.reward - s.punishment,
                                       s.temptation - s.punishment))):
            raise CapacityError(f"the grim-trigger payoff differences overflow float64: {s}")
    return threshold


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
    _OPEN_UNIT(delta, "discount factor")
    _NUMBER(stage_coop_payoff, "stage_coop_payoff")
    _REAL(post_mutation_value, "post_mutation_value")
    _UNIT(epsilon, "epsilon")
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
    The returned condition belongs to the binding player (the first with the
    smallest margin, continuation - gain); it holds only if it holds for
    everyone. Raises CapacityError when a continuation overflows float64.
    """
    conditions = [
        CooperationCondition(
            delta,
            effective_coop_value(s.reward - s.punishment, delta, epsilon, post_mutation_value),
            s.temptation - s.reward,
        )
        for s in grim_trigger_threshold(game).per_player
    ]
    if not all(math.isfinite(c.continuation) for c in conditions):
        raise CapacityError(f"the grim continuation values overflow float64 at delta={delta!r}")
    return min(conditions, key=lambda c: c.continuation - c.defect_now)


def mixed_nash_2x2(game: NormalFormGame) -> list[tuple[float, float]]:
    """Fully mixed equilibrium of a two-player game, if one exists.

    Returns at most one (p, q) pair: the cooperation probabilities of player
    0 and player 1 that leave the opponent indifferent. Diagnostic only;
    games with more players are out of scope.
    """
    _instance(NormalFormGame)(game, "game")
    if game.n != 2:
        raise ConfigurationError("mixed-equilibrium support enumeration needs n = 2")
    cc0, cc1, cd0, cd1, dc0, dc1, dd0, dd1 = game._entries
    denom_q = cc0 - dc0 + dd0 - cd0
    denom_p = cc1 - cd1 + dd1 - dc1
    if denom_q == 0.0 or denom_p == 0.0:
        return []
    q = (dd0 - cd0) / denom_q
    p = (dd1 - dc1) / denom_p
    if 0.0 <= p <= 1.0 and 0.0 <= q <= 1.0:
        return [(p, q)]
    return []
