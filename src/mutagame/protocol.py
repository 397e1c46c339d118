"""Protocol-state dynamics: Markov evolution of the rule-set and volatility metrics.

The protocol state follows a finite Markov chain given by a row-stochastic
transition kernel. Derived quantities: per-state mutation rate (off-diagonal
mass), average row entropy, a [0, 1] integrity score (worst-case stay
probability), and an i.i.d. Gaussian payoff-scale perturbation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

ROW_TOLERANCE = 1e-12


class TransitionKernel:
    """Row-stochastic k x k matrix of per-round state transition probabilities."""

    def __init__(self, matrix) -> None:
        arr = np.array(matrix, dtype=float)
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
                    f"kernel row {p} sums to {total!r}, must equal 1 within {ROW_TOLERANCE}"
                )
        arr.setflags(write=False)
        self._matrix = arr
        cum = np.cumsum(arr, axis=1)
        cum.setflags(write=False)
        self._cumulative = cum

    @property
    def size(self) -> int:
        return self._matrix.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    def row(self, state: int) -> np.ndarray:
        self._check_state(state)
        return self._matrix[state]

    def is_identity(self) -> bool:
        return bool(np.array_equal(self._matrix, np.eye(self.size)))

    def _check_state(self, state: int) -> None:
        if not 0 <= state < self.size:
            raise IndexError(f"protocol state {state} out of range [0, {self.size})")

    @classmethod
    def identity(cls, size: int) -> "TransitionKernel":
        return cls(np.eye(size))


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
        if self.variance < 0.0:
            raise ConfigurationError(f"theta variance must be >= 0, got {self.variance}")


def sample_from_cumulative(cumulative_row: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF sample consuming exactly one uniform draw."""
    u = rng.random()
    index = int(np.searchsorted(cumulative_row, u, side="right"))
    return min(index, len(cumulative_row) - 1)


def step_protocol(kernel: TransitionKernel, current: int, rng: np.random.Generator) -> int:
    """Sample the next protocol state from the kernel row of the current one."""
    kernel._check_state(current)
    return sample_from_cumulative(kernel._cumulative[current], rng)


def mutation_rate(kernel: TransitionKernel) -> MutationRate:
    per_state = tuple(float(1.0 - kernel.matrix[p, p]) for p in range(kernel.size))
    return MutationRate(per_state=per_state, maximum=max(per_state))


def row_entropies(kernel: TransitionKernel) -> np.ndarray:
    """Shannon entropy of each row in nats, with 0*ln(0) = 0."""
    m = kernel.matrix
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(m > 0.0, -m * np.log(m), 0.0)
    return terms.sum(axis=1)


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


def has_unique_stationary(kernel: TransitionKernel) -> bool:
    """True when the chain is irreducible and aperiodic."""
    adj = _positive_adjacency(kernel)
    if kernel.size == 1:
        return True
    if not _strongly_connected(adj):
        return False
    return _period(adj) == 1


def stationary_distribution(kernel: TransitionKernel) -> np.ndarray:
    """Solve pi @ M = pi with sum(pi) = 1.

    Caller is responsible for checking uniqueness (``has_unique_stationary``);
    on reducible kernels this returns one solution of the linear system.
    """
    k = kernel.size
    a = kernel.matrix.T - np.eye(k)
    a[-1, :] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def kernel_entropy(kernel: TransitionKernel, weighting: str = "uniform") -> KernelEntropy:
    """Average row entropy under uniform or stationary state weights.

    ``stationary`` weighting requires a unique stationary distribution
    (irreducible + aperiodic kernel); otherwise it falls back to uniform
    weights and flags the result.
    """
    if weighting not in ("uniform", "stationary"):
        raise ConfigurationError(
            f"weighting must be 'uniform' or 'stationary', got {weighting!r}"
        )
    entropies = row_entropies(kernel)
    fell_back = False
    if weighting == "stationary":
        if has_unique_stationary(kernel):
            weights = stationary_distribution(kernel)
        else:
            weights = np.full(kernel.size, 1.0 / kernel.size)
            fell_back = True
    else:
        weights = np.full(kernel.size, 1.0 / kernel.size)
    value = float(weights @ entropies)
    return KernelEntropy(value=value, weighting=weighting, fell_back_to_uniform=fell_back)


def integrity(kernel: TransitionKernel) -> float:
    """Worst-case per-step stay probability: min over states of the diagonal.

    1 exactly for an immutable (identity) kernel, and it can only fall when
    diagonal mass moves off-diagonal.
    """
    return float(np.min(np.diag(kernel.matrix)))


def sample_theta(process: ThetaProcess, rng: np.random.Generator) -> float:
    """One Gaussian draw, taken even at zero variance. It is one
    ``standard_normal()`` call: one 64-bit word of the stream on numpy's
    ziggurat fast path, more words off it."""
    z = rng.standard_normal()
    return float(process.mean + math.sqrt(process.variance) * z)
