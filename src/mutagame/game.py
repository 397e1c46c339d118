"""Stage game: strategies, hash shares, state-indexed payoff tables, and the
joint-profile encoding.

Each round every miner resolves to Cooperate or Defect; payoffs come from
the normal-form game of the protocol state in force, over joint action
profiles. A joint profile of n miners is an n-bit mask, miner 0 the highest
bit and Defect a set bit, so masks 0..2**n - 1 run through the C/D keys in
lexicographic order and index a payoff tensor reshaped to (2**n, n). This
module alone writes that encoding. All objects are immutable after
construction.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

from .errors import ConfigurationError
from .protocol import (_BOOL, _INDEX, _NONEMPTY, _TEXT, _UNIT, _float_array, _instance,
                       _items, _kind, _range, _read_only_array, _sum)

if TYPE_CHECKING:
    import numpy as np

SHARE_TOLERANCE = 1e-12


def _miner_bit(n: int, miner: int) -> int:
    """Miner ``miner``'s Defect bit in an n-miner profile mask."""
    return 1 << (n - 1 - miner)


def _profile_key(mask: int, n: int) -> str:
    """The C/D key of an n-miner profile mask, miner 0's letter first."""
    return format(mask, f"0{n}b").replace("0", "C").replace("1", "D")


class StrategyTag(Enum):
    """Named miner behaviours.

    Honest, GrimTrigger (until provoked), TitForTat (after cooperation) and
    MetaInvestor resolve to Cooperate; Withhold, Collude and AlwaysDefect
    resolve to Defect; MyopicBestResponse picks whichever action scores
    better against opponents' previous moves.
    """

    HONEST = "Honest"
    WITHHOLD = "Withhold"
    COLLUDE = "Collude"
    GRIM_TRIGGER = "GrimTrigger"
    TIT_FOR_TAT = "TitForTat"
    ALWAYS_DEFECT = "AlwaysDefect"
    MYOPIC_BEST_RESPONSE = "MyopicBestResponse"
    META_INVESTOR = "MetaInvestor"


_ALWAYS_DEFECT = {StrategyTag.WITHHOLD, StrategyTag.COLLUDE, StrategyTag.ALWAYS_DEFECT}


@dataclass(frozen=True)
class StrategyKind:
    """A strategy tag plus the MetaInvestor payload (budget, preferred state)."""

    tag: StrategyTag
    meta_budget: float | None = None
    preferred_state: int | None = None

    def __post_init__(self) -> None:
        _kind(f"a StrategyTag, one of {sorted(tag.name for tag in StrategyTag)}",
              lambda v: isinstance(v, StrategyTag))(self.tag, "strategy tag")
        if self.tag is StrategyTag.META_INVESTOR:
            if self.meta_budget is None or self.preferred_state is None:
                raise ConfigurationError(
                    "MetaInvestor requires meta_budget and preferred_state"
                )
            _UNIT(self.meta_budget, "meta_budget")
            _INDEX(self.preferred_state, "preferred_state")
        elif self.meta_budget is not None or self.preferred_state is not None:
            raise ConfigurationError(
                "meta_budget and preferred_state are only valid for MetaInvestor, "
                f"not {self.tag.value}"
            )


def validate_shares(shares: Sequence[float]) -> None:
    """Reject hash-share vectors that are out of range or not normalized."""
    shares = _NONEMPTY(shares, "hash shares")
    for i, share in enumerate(shares):
        _UNIT(share, f"hash share {i}")
    total = float(_sum(shares))
    if abs(total - 1.0) > SHARE_TOLERANCE:
        raise ConfigurationError(
            f"hash shares sum to {total!r}, must equal 1 within {SHARE_TOLERANCE}"
        )


class NormalFormGame:
    """n-player binary-action game as a payoff tensor of shape (2,)*n + (n,).

    Axis ``i`` is miner ``i``'s action (0=Cooperate, 1=Defect) and the
    trailing axis is the payee. ``state`` is the label of the protocol state
    the game belongs to, if any; error messages name it.
    """

    def __init__(self, payoff_tensor, state: str | None = None) -> None:
        self._read(payoff_tensor, state)

    def _read(self, value, state: str | None, rows_of: int | None = None) -> None:
        """Check and store a payoff tensor, or with ``rows_of`` n its (2**n, n) rows."""
        subject = ("payoff tensor" if state is None
                   else f"payoff table for state {_TEXT(state, 'state')!r}")
        try:
            shape, entries = _float_array(value)
        except (TypeError, ValueError, OverflowError):  # ragged nesting, entries not numbers
            raise ConfigurationError(f"{subject} must be an array of numbers") from None
        shape = shape if rows_of is None else (2,) * rows_of + shape[1:]
        n = len(shape) - 1
        if n < 1 or shape != (2,) * n + (n,):
            raise ConfigurationError(
                f"{subject} has shape {shape}, not (2,)*n + (n,) for any n"
            )
        if not all(map(math.isfinite, entries)):
            raise ConfigurationError(f"{subject} has non-finite entries")
        self.n, self._shape, self._entries = n, shape, entries

    @cached_property
    def tensor(self) -> np.ndarray:
        """The payoffs as a read-only float64 array, built on first access."""
        return _read_only_array(self._entries, self._shape)

    @classmethod
    def from_profile_map(
        cls, profiles: Mapping[str, Sequence[float]], state: str | None = None
    ) -> "NormalFormGame":
        """Build from a mapping of C/D profile strings to payoff vectors."""

        def at_state(text: str, separator: str = ": ") -> str:
            return text if state is None else f"state {state!r}{separator}{text}"

        profiles = _range(_instance(Mapping), "non-empty", bool)(profiles, at_state("profiles"))
        first = next(iter(profiles))
        n = len(first) if isinstance(first, str) else 0  # the loop refuses a non-string first
        payoffs = _range(_items, f"of length {n}", lambda v: len(v) == n)
        for key, values in profiles.items():
            if not isinstance(key, str):
                raise ConfigurationError(at_state(f"bad profile key {key!r}, not a string"))
            if len(key) != n or key.strip("CD"):
                raise ConfigurationError(at_state(f"bad profile key {key!r} for {n} miners"))
            payoffs(values, at_state(f"profile {key!r}", ", "))
        if len(profiles) != 2**n:  # distinct valid keys are distinct masks
            raise ConfigurationError(at_state(f"{len(profiles)} of {2 ** n} profiles defined"))
        game = cls.__new__(cls)  # sorted, the keys run through the masks in order
        game._read([profiles[key] for key in sorted(profiles)], state, rows_of=n)
        return game


class StageGameSpec(tuple):
    """The stage game of every protocol state: a tuple of ``NormalFormGame``
    indexed by state, all over the same miners, plus the state labels and
    whether a block lottery pays each round."""

    state_labels: tuple[str, ...]
    lottery_mode: bool

    def __new__(
        cls,
        state_labels: Sequence[str],
        games: Sequence[NormalFormGame],
        lottery_mode: bool = False,
    ) -> "StageGameSpec":
        state_labels = _NONEMPTY(state_labels, "state labels")
        games = _items(games, "payoff tables")
        if len(state_labels) != len(games):
            raise ConfigurationError(
                f"{len(state_labels)} state labels but {len(games)} payoff tables"
            )
        for label, game in zip(state_labels, games):
            _TEXT(label, "state label")
            _instance(NormalFormGame)(game, f"payoff table for state {label!r}")
            if game.n != games[0].n:
                raise ConfigurationError(
                    f"payoff table for state {label!r} has shape {game._shape}, "
                    f"expected {games[0]._shape}"
                )
        if len(set(state_labels)) != len(state_labels):
            raise ConfigurationError("protocol state labels must be unique")
        self = super().__new__(cls, games)
        self.state_labels = tuple(state_labels)
        self.lottery_mode = _BOOL(lottery_mode, "lottery_mode")
        return self

    def __getnewargs__(self):  # pickle and copy rebuild through __new__
        return self.state_labels, tuple(self), self.lottery_mode

    @classmethod
    def from_profile_maps(
        cls,
        state_labels: Sequence[str],
        payoffs_by_state: Mapping[str, Mapping[str, Sequence[float]]],
        lottery_mode: bool = False,
    ) -> "StageGameSpec":
        """Build from nested mappings ``state label -> C/D profile key -> payoffs``."""
        _instance(Mapping)(payoffs_by_state, "payoffs by state")
        state_labels = [_TEXT(label, "state label")  # text, before any is hashed
                        for label in _items(state_labels, "state labels")]
        missing = [label for label in state_labels if label not in payoffs_by_state]
        if missing:
            raise ConfigurationError(f"payoff tables missing for states: {missing}")
        extra = [label for label in payoffs_by_state if label not in state_labels]
        if extra:
            raise ConfigurationError(f"payoff tables for unknown states: {extra}")
        games = [
            NormalFormGame.from_profile_map(payoffs_by_state[label], state=label)
            for label in state_labels
        ]
        return cls(state_labels, games, lottery_mode)

    @property
    def n(self) -> int:
        return self[0].n
