"""Protocol-state dynamics: Markov evolution of the rule-set and volatility metrics.

The protocol state follows a finite Markov chain given by a row-stochastic
transition kernel. Derived quantities: per-state mutation rate (off-diagonal
mass), average row entropy, a [0, 1] integrity score (worst-case stay
probability), and an i.i.d. Gaussian payoff-scale perturbation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import add, or_
from typing import TYPE_CHECKING, Any, Callable, Iterable

from .errors import ConfigurationError

if TYPE_CHECKING:
    import numpy as np

ROW_TOLERANCE = 1e-12
MAX_NESTING = 64  # numpy 2's limit on an array's dimensions


def _float_array(value: Any) -> tuple[tuple[int, ...], list[float]]:
    """The shape of ``np.array(value, dtype=float)`` and its entries as Python
    floats, flat in C order, read one nesting level at a time without numpy.
    Lists, tuples and numpy arrays nest; ragged nesting or more than
    ``MAX_NESTING`` levels raises ValueError, and an entry that ``float()``
    refuses raises its TypeError, ValueError or OverflowError, as numpy would."""
    shape, level = [], [value]
    while True:
        if any(hasattr(kind, "tolist") for kind in set(map(type, level))):  # numpy arrays, scalars
            level = [item.tolist() if hasattr(item, "tolist") else item for item in level]
        nested = {issubclass(kind, (list, tuple)) for kind in set(map(type, level))}
        if True not in nested:  # all numbers, or no items at all
            return tuple(shape), list(map(float, level))
        if False in nested or len(set(map(len, level))) > 1 or len(shape) == MAX_NESTING:
            raise ValueError("ragged nesting, or more levels than numpy allows")
        shape.append(len(level[0]))
        level = [x for item in level for x in item]


def _is_number(value: Any) -> bool:
    """A YAML int or float that a float can hold: not a bool, not an int past 1.8e308."""
    return isinstance(value, float) or (type(value) is int and abs(value) <= sys.float_info.max)


def _kind(expected: str, test: Callable[[Any], bool], convert: Callable = lambda v: v):
    """The check ``kind(value, name)``: ``convert(value)`` when ``test(value)``,
    else ConfigurationError ``"<name>: expected <expected>, got <value>"``."""
    def kind(value: Any, name: str) -> Any:
        if test(value):
            return convert(value)
        raise ConfigurationError(f"{name}: expected {expected}, got {value!r}")
    return kind


def _instance(cls: type, article: str = "a"):
    return _kind(f"{article} {cls.__name__}", lambda v: isinstance(v, cls))


def _items(value: Any, name: str) -> list:
    """``list(value)``, or ConfigurationError ``"<name>: expected a sequence, got <value>"``."""
    try:
        return list(value)
    except TypeError:  # not iterable
        raise ConfigurationError(f"{name}: expected a sequence, got {value!r}") from None


def _range(kind: Callable, words: str, test: Callable[[Any], bool]):
    """The check ``ranged(value, name)``: ``kind(value, name)`` when ``test``
    holds of it, else ConfigurationError ``"<name>: must be <words>, got <value>"``."""
    def ranged(value: Any, name: str) -> Any:
        value = kind(value, name)
        if test(value):
            return value
        raise ConfigurationError(f"{name}: must be {words}, got {value!r}")
    return ranged


# The model's one rule for an argument, which the YAML schema and every
# constructor and function apply: a number is a float (numpy's float64 is
# one) or an int that a float can hold, never a bool; an integer is an int.
# A range kind states the type and the range of a value together, and a
# sequence's length is its range.
_INT = _kind("an integer", lambda v: type(v) is int)
_BOOL = _kind("a boolean", lambda v: isinstance(v, bool))
_TEXT = _kind("a non-empty string", lambda v: isinstance(v, str) and v != "")
_NUMBER = _kind("a number", _is_number)
_REAL = _kind("a finite number", lambda v: _is_number(v) and math.isfinite(v), float)
_UNIT = _range(_REAL, "in [0, 1]", lambda v: 0.0 <= v <= 1.0)
_OPEN_UNIT = _range(_REAL, "strictly inside (0, 1)", lambda v: 0.0 < v < 1.0)
_NONNEGATIVE = _range(_REAL, ">= 0", lambda v: v >= 0.0)
_POSITIVE = _range(_REAL, "positive", lambda v: v > 0.0)
_COUNT = _range(_INT, ">= 1", lambda v: v >= 1)
_INDEX = _range(_INT, ">= 0", lambda v: v >= 0)
_NONEMPTY = _range(_items, "non-empty", bool)


def _sum(values: Iterable[float], start: float = 0.0) -> float:
    """``start`` plus each of ``values`` in turn, left to right: the model's one
    summation order. It is numpy's below 8 items, and unlike builtin ``sum()``,
    compensated from Python 3.12 on, it gives the same bits on every Python."""
    return reduce(add, values, start)


def _read_only_array(entries: list[float], shape: tuple[int, ...]) -> np.ndarray:
    """``entries`` as a read-only float64 array of ``shape``."""
    import numpy as np

    array = np.array(entries, dtype=float).reshape(shape)
    array.setflags(write=False)
    return array


class TransitionKernel:
    """Row-stochastic k x k matrix of per-round state transition probabilities."""

    def __init__(self, matrix) -> None:
        try:
            shape, entries = _float_array(matrix)
        except (TypeError, ValueError, OverflowError):  # ragged rows, entries not numbers
            raise ConfigurationError(
                "transition kernel must be a square matrix of numbers"
            ) from None
        if len(shape) != 2 or shape[0] != shape[1] or shape[0] < 1:
            raise ConfigurationError(
                f"transition kernel must be a square matrix, got shape {shape}"
            )
        if not all(map(math.isfinite, entries)):
            raise ConfigurationError("transition kernel has non-finite entries")
        if not all(0.0 <= entry <= 1.0 for entry in entries):
            raise ConfigurationError("transition kernel entries must lie in [0, 1]")
        k = shape[0]
        for p in range(k):
            total = _sum(entries[p * k:(p + 1) * k])
            if abs(total - 1.0) > ROW_TOLERANCE:
                raise ConfigurationError(
                    f"kernel row {p} sums to {total!r}, must equal 1 within {ROW_TOLERANCE}"
                )
        self.size, self._entries = k, entries

    @cached_property
    def matrix(self) -> np.ndarray:
        """The kernel as a read-only float64 array, built on first access."""
        return _read_only_array(self._entries, (self.size, self.size))


@dataclass(frozen=True)
class MutationRate:
    """Per-state probability of leaving the state, 1 - kernel diagonal."""

    per_state: tuple[float, ...]
    maximum: float


@dataclass(frozen=True)
class KernelEntropy:
    """Weighted average row entropy in nats; 0 iff every row is a point mass."""

    value: float
    weighting: str
    fell_back_to_uniform: bool = False


@dataclass(frozen=True)
class ThetaProcess:
    """I.i.d. Gaussian payoff-scale perturbation applied each round.

    When attached to a scenario, every stage payoff at round t is multiplied
    by the draw (clamped at 0 unless ``clamp`` is disabled).
    """

    mean: float
    variance: float
    clamp: bool = True

    def __post_init__(self) -> None:
        _REAL(self.mean, "theta mean")
        _NONNEGATIVE(self.variance, "theta variance")
        _BOOL(self.clamp, "theta clamp")


def mutation_rate(kernel: TransitionKernel) -> MutationRate:
    _instance(TransitionKernel)(kernel, "kernel")
    per_state = tuple(1.0 - stay for stay in kernel._entries[::kernel.size + 1])
    return MutationRate(per_state=per_state, maximum=max(per_state))


def row_entropies(kernel: TransitionKernel) -> tuple[float, ...]:
    """Shannon entropy of each row in nats, with 0*ln(0) = 0, summed left to right."""
    _instance(TransitionKernel)(kernel, "kernel")
    k = kernel.size
    return tuple(_sum(-m * math.log(m) for m in kernel._entries[p * k:(p + 1) * k] if m > 0.0)
                 for p in range(k))


def has_unique_stationary(kernel: TransitionKernel) -> bool:
    """True when the chain is irreducible and aperiodic, that is when its
    adjacency matrix is primitive: some power of it is positive. By
    Wielandt's bound a primitive k x k matrix has a positive power at every
    exponent from (k-1)**2 + 1 on, so the matrix is squared until its
    exponent reaches that. Each row of a power is a bitset of the states it
    reaches, and a row of the square is the union of the rows it reaches."""
    _instance(TransitionKernel)(kernel, "kernel")
    k = kernel.size
    power = [reduce(or_, (1 << q for q in range(k) if kernel._entries[p * k + q] > 0.0), 0)
             for p in range(k)]
    exponent = 1
    while exponent < (k - 1) ** 2 + 1:
        power = [reduce(or_, (power[q] for q in range(k) if row >> q & 1), 0)
                 for row in power]
        exponent *= 2
    return all(row == (1 << k) - 1 for row in power)


def stationary_distribution(kernel: TransitionKernel) -> tuple[float, ...]:
    """Solve pi @ M = pi with sum(pi) = 1 by Gaussian elimination with partial
    pivoting (Golub & Van Loan 2013, 3.4), then clip at 0 and normalize.

    Caller is responsible for checking uniqueness (``has_unique_stationary``);
    on a singular system a zero pivot's unknown is taken as 0, which gives
    one solution of the linear system.
    """
    _instance(TransitionKernel)(kernel, "kernel")
    k, m = kernel.size, kernel._entries
    # Rows of M^T - I, the last replaced by sum(pi) = 1, each followed by its right side.
    rows = [[m[q * k + p] - float(p == q) for q in range(k)] + [0.0] for p in range(k - 1)]
    rows.append([1.0] * (k + 1))
    for col in range(k):
        pivot = max(range(col, k), key=lambda r: abs(rows[r][col]))
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col]
        if head[col] == 0.0:  # singular: every entry below is 0 too
            continue
        for row in rows[col + 1:]:
            factor = row[col] / head[col]
            row[col:] = [x - factor * y for x, y in zip(row[col:], head[col:])]
    pi = [0.0] * k
    for p, row in reversed(list(enumerate(rows))):
        if row[p] != 0.0:
            pi[p] = (row[k] - math.fsum(row[q] * pi[q] for q in range(p + 1, k))) / row[p]
    pi = [max(x, 0.0) for x in pi]
    total = math.fsum(pi)
    return tuple(x / total for x in pi)


def kernel_entropy(kernel: TransitionKernel, weighting: str = "uniform") -> KernelEntropy:
    """Average row entropy under uniform or stationary state weights, summed
    left to right.

    ``stationary`` weighting requires a unique stationary distribution
    (irreducible + aperiodic kernel); otherwise it falls back to uniform
    weights and flags the result.
    """
    _instance(TransitionKernel)(kernel, "kernel")
    _range(_TEXT, "'uniform' or 'stationary'", lambda v: v in ("uniform", "stationary"))(
        weighting, "weighting")  # text first, so no array meets `in`
    unique = weighting == "stationary" and has_unique_stationary(kernel)
    weights = stationary_distribution(kernel) if unique else (1.0 / kernel.size,) * kernel.size
    fell_back = weighting == "stationary" and not unique
    value = _sum(w * h for w, h in zip(weights, row_entropies(kernel)))
    return KernelEntropy(value=value, weighting=weighting, fell_back_to_uniform=fell_back)


def integrity(kernel: TransitionKernel) -> float:
    """Worst-case per-step stay probability: min over states of the diagonal.

    1 exactly for an immutable (identity) kernel, and it can only fall when
    diagonal mass moves off-diagonal.
    """
    _instance(TransitionKernel)(kernel, "kernel")
    return min(kernel._entries[::kernel.size + 1])
