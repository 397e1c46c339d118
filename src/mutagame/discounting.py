"""Intertemporal valuation: discounted utility, endogenous discount paths,
NPV and breakeven horizons.

Two discount conventions coexist on purpose and are never unified:
game utilities use multiplicative factors (delta ** t, or the exponential
path exp(-integral of rho + eta)), while investment NPV uses the compound
per-period rate (1 + rho + eta(t)) ** -t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import ConfigurationError
from .protocol import (_INDEX, _INT, _NONEMPTY, _NONNEGATIVE, _NUMBER, _OPEN_UNIT, _POSITIVE,
                       _REAL, _instance, _items, _sum)


@dataclass(frozen=True)
class NoisePath:
    """Baseline discount rate plus a piecewise-constant institutional noise path.

    ``segments`` is a tuple of (start_round, value) pairs with strictly
    increasing starts beginning at 0; each value is the nonnegative noise
    rate eta(t) in force from its start until the next segment begins.
    """

    baseline_rate: float
    segments: tuple[tuple[int, float], ...] = ((0, 0.0),)

    def __post_init__(self) -> None:
        _NONNEGATIVE(self.baseline_rate, "baseline rate")
        try:
            segments = [(start, value) for start, value in self.segments]
        except (TypeError, ValueError):  # not iterable, or an entry not a pair
            raise ConfigurationError(f"noise segments must be (start, value) pairs, "
                                     f"got {self.segments!r}") from None
        if _INT(_NONEMPTY(segments, "noise segments")[0][0], "noise segment start") != 0:
            raise ConfigurationError("first noise segment must start at round 0")
        previous = -1
        for start, value in segments:
            if _INT(start, "noise segment start") <= previous:
                raise ConfigurationError(
                    "noise segment starts must be strictly increasing"
                )
            _NONNEGATIVE(value, "noise value")
            previous = start
        object.__setattr__(self, "segments", tuple((s, float(v)) for s, v in segments))

    @classmethod
    def constant(cls, baseline_rate: float, eta: float = 0.0) -> "NoisePath":
        return cls(baseline_rate=baseline_rate, segments=((0, eta),))

    def compound(self, t: int) -> float:
        """(1 + (rho + eta(t))) ** t, eta(t) the value of the last segment to
        start at or before round t; inf past float range (a period's term is then 0.0)."""
        eta = next(value for start, value in reversed(self.segments) if start <= max(t, 0))
        try:
            return (1.0 + (self.baseline_rate + eta)) ** t
        except OverflowError:
            return math.inf

    def cumulative_rate(self, t: float) -> float:
        """Exact integral of (baseline + eta(s)) over [0, t), summed segment by segment."""
        ends = [start for start, _ in self.segments[1:]] + [t]
        return _sum((self.baseline_rate + value) * (min(end, t) - start)
                    for (start, value), end in zip(self.segments, ends) if start < t)


ZERO_NOISE = NoisePath(0.0)


@dataclass(frozen=True)
class InvestmentPlan:
    """Upfront outlay followed by expected per-period returns for t = 1..T."""

    upfront_cost: float
    expected_returns: tuple[float, ...]

    def __post_init__(self) -> None:
        _NONNEGATIVE(self.upfront_cost, "upfront cost")
        returns = _NONEMPTY(self.expected_returns, "expected returns")
        object.__setattr__(self, "expected_returns",
                           tuple(_REAL(r, "expected return") for r in returns))

    @property
    def horizon(self) -> int:
        return len(self.expected_returns)


def discounted_utility(payoffs: Iterable[float], delta: float) -> float:
    """Sum of delta**t * payoffs[t] over a 1-D sequence, t from 0, left to right."""
    _OPEN_UNIT(delta, "discount factor")
    total, factor = 0.0, 1.0
    for payoff in _items(payoffs, "payoffs"):
        total += factor * float(_NUMBER(payoff, "payoff"))
        factor *= delta
    return total


def endogenous_discount_path(noise: NoisePath, horizon: int) -> tuple[float, ...]:
    """Discount weights exp(-integral_0^t of (rho + eta(s)) ds) for t = 0..horizon.

    Exact for piecewise-constant noise; the path starts at 1 and never
    increases.
    """
    _instance(NoisePath)(noise, "noise")
    _INDEX(horizon, "horizon")
    return tuple(math.exp(-noise.cumulative_rate(t)) for t in range(horizon + 1))


def npv(plan: InvestmentPlan, noise: NoisePath = ZERO_NOISE) -> float:
    """Compound-rate net present value:
    sum over t = 1..T of E[R_t] / (1 + rho + eta(t))**t, minus the upfront cost.
    """
    _instance(InvestmentPlan, "an")(plan, "plan")
    _instance(NoisePath)(noise, "noise")
    terms = (value / noise.compound(t) for t, value in enumerate(plan.expected_returns, start=1))
    return float(_sum(terms, -plan.upfront_cost))


def breakeven_horizon(
    per_period_return: float,
    upfront_cost: float,
    noise: NoisePath = ZERO_NOISE,
    max_horizon: int = 1000,
) -> int | None:
    """Smallest horizon T <= max_horizon with nonnegative NPV, or None."""
    _POSITIVE(per_period_return, "per-period return")
    _NONNEGATIVE(upfront_cost, "upfront cost")
    _instance(NoisePath)(noise, "noise")
    running = -float(upfront_cost)
    for t in range(1, _INT(max_horizon, "max_horizon") + 1):
        running += per_period_return / noise.compound(t)
        if running >= 0.0:
            return t
    return None
