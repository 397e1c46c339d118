"""Protocol dynamics: kernel validation, entropy, integrity, theta, and the
scalar reference's protocol step and theta draw (``tests/oracles.py``)."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    irreducible_and_aperiodic,
    reference_stationary_distribution,
    sample_theta,
    step_protocol,
)

from mutagame import (
    ConfigurationError,
    ThetaProcess,
    TransitionKernel,
    integrity,
    kernel_entropy,
    mutation_rate,
    stationary_distribution,
)
from mutagame.protocol import has_unique_stationary

TWO_STATE = [[0.9, 0.1], [0.5, 0.5]]


# Independent stationary-distribution oracle: power iteration.
def stationary_by_power_iteration(matrix, iterations=20_000):
    pi = np.full(len(matrix), 1.0 / len(matrix))
    m = np.asarray(matrix, dtype=float)
    for _ in range(iterations):
        pi = pi @ m
    return pi / pi.sum()


def test_kernel_validation():
    TransitionKernel([[1.0]])
    TransitionKernel(TWO_STATE)
    with pytest.raises(ConfigurationError, match="row 1"):
        TransitionKernel([[1.0, 0.0], [0.5, 0.4]])
    with pytest.raises(ConfigurationError):
        TransitionKernel([[0.5, 0.5, 0.0]])
    with pytest.raises(ConfigurationError):
        TransitionKernel([[1.5, -0.5], [0.5, 0.5]])


def test_step_identity_kernel_is_constant():
    kernel = TransitionKernel(np.eye(3))
    rng = np.random.default_rng(0)
    for state in range(3):
        assert all(step_protocol(kernel, state, rng) == state for _ in range(50))


def test_step_deterministic_switch():
    kernel = TransitionKernel([[0.0, 1.0], [0.0, 1.0]])
    rng = np.random.default_rng(0)
    assert all(step_protocol(kernel, 0, rng) == 1 for _ in range(50))


def test_step_transition_frequency_matches_row():
    kernel = TransitionKernel(TWO_STATE)
    rng = np.random.default_rng(5)
    draws = 100_000
    hits = sum(step_protocol(kernel, 0, rng) == 1 for _ in range(draws))
    sigma = math.sqrt(0.1 * 0.9 / draws)
    assert abs(hits / draws - 0.1) <= 3 * sigma  # ~0.0028


def test_step_consumes_one_draw():
    kernel = TransitionKernel(TWO_STATE)
    rng1 = np.random.default_rng(9)
    rng2 = np.random.default_rng(9)
    step_protocol(kernel, 0, rng1)
    rng2.random()
    assert rng1.random() == rng2.random()


def test_step_rejects_bad_state():
    kernel = TransitionKernel(TWO_STATE)
    with pytest.raises(IndexError):
        step_protocol(kernel, 2, np.random.default_rng(0))


def test_mutation_rate():
    assert mutation_rate(TransitionKernel(np.eye(3))).per_state == (0.0, 0.0, 0.0)
    rates = mutation_rate(TransitionKernel(TWO_STATE))
    assert rates.per_state == pytest.approx((0.1, 0.5))
    assert rates.maximum == pytest.approx(0.5)
    uniform = TransitionKernel(np.full((4, 4), 0.25))
    assert mutation_rate(uniform).per_state == pytest.approx((0.75,) * 4)


def test_entropy_identity_is_exactly_zero():
    assert kernel_entropy(TransitionKernel(np.eye(4))).value == 0.0


def test_entropy_uniform_is_log_k():
    uniform = TransitionKernel(np.full((4, 4), 0.25))
    assert abs(kernel_entropy(uniform).value - math.log(4)) <= 1e-12


def test_entropy_uniform_weighting_hand_value():
    # 0.5 * 0.325083 + 0.5 * 0.693147 evaluated by hand
    result = kernel_entropy(TransitionKernel(TWO_STATE), "uniform")
    assert result.value == pytest.approx(0.509115, abs=1e-6)
    assert not result.fell_back_to_uniform


def test_entropy_stationary_weighting_matches_oracle():
    kernel = TransitionKernel(TWO_STATE)
    pi = stationary_by_power_iteration(TWO_STATE)
    row0 = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
    row1 = math.log(2)
    expected = pi[0] * row0 + pi[1] * row1
    result = kernel_entropy(kernel, "stationary")
    assert result.value == pytest.approx(expected, rel=1e-9)
    assert not result.fell_back_to_uniform


def test_entropy_stationary_falls_back_on_reducible_kernel():
    result = kernel_entropy(TransitionKernel(np.eye(2)), "stationary")
    assert result.fell_back_to_uniform
    assert result.value == 0.0


def test_entropy_rejects_unknown_weighting():
    with pytest.raises(ConfigurationError):
        kernel_entropy(TransitionKernel(np.eye(2)), "harmonic")


def test_unique_stationary_detection():
    assert has_unique_stationary(TransitionKernel([[1.0]]))
    assert has_unique_stationary(TransitionKernel(TWO_STATE))
    assert not has_unique_stationary(TransitionKernel(np.eye(2)))  # reducible
    assert not has_unique_stationary(TransitionKernel([[0.0, 1.0], [1.0, 0.0]]))  # periodic


@pytest.mark.parametrize("k", [1, 2, 3])
def test_primitivity_matches_connectivity_and_period(k):
    # Every zero pattern of a k-state kernel: each row needs a positive entry.
    checked = 0
    for pattern in itertools.product([0.0, 1.0], repeat=k * k):
        adjacency = np.array(pattern).reshape(k, k)
        if not adjacency.any(axis=1).all():
            continue
        kernel = TransitionKernel(adjacency / adjacency.sum(axis=1, keepdims=True))
        assert has_unique_stationary(kernel) == irreducible_and_aperiodic(kernel), pattern
        checked += 1
    assert checked == (2**k - 1) ** k


@st.composite
def kernels(draw, max_states, weights):
    """A k x k kernel, k <= max_states, each row a draw of ``weights``
    normalized; a row of zeros is refused."""
    k = draw(st.integers(1, max_states))
    rows = draw(st.lists(st.lists(weights, min_size=k, max_size=k).filter(any),
                         min_size=k, max_size=k))
    return TransitionKernel([[w / sum(row) for w in row] for row in rows])


@settings(max_examples=200, deadline=None, database=None)
@given(kernels(12, st.one_of(st.just(0), st.integers(1, 9))))
def test_stationary_distribution_matches_the_lstsq_reference(kernel):
    # Gaussian elimination against 0.10.0's LAPACK least squares, on primitive kernels.
    assume(irreducible_and_aperiodic(kernel))
    pi = stationary_distribution(kernel)
    assert type(pi) is tuple and len(pi) == kernel.size
    reference = reference_stationary_distribution(kernel).tolist()
    assert max(abs(a - b) for a, b in zip(pi, reference)) <= 1e-12


@settings(max_examples=300, deadline=None, database=None)
@given(kernels(12, st.sampled_from([0, 0, 0, 1])))
def test_primitivity_matches_connectivity_and_period_on_sparse_kernels(kernel):
    # The bitset squaring against the oracle, on zero patterns past the exhaustive k <= 3.
    assert has_unique_stationary(kernel) == irreducible_and_aperiodic(kernel)


def test_stationary_distribution_with_an_absorbing_state():
    # Reducible with one closed class, so the law is unique: state 0 takes
    # all the mass. The first column's only nonzero entry is in the sum row,
    # so without pivoting the solve would leave pi_0 at 0.
    kernel = TransitionKernel([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.25, 0.25, 0.5]])
    pi = stationary_distribution(kernel)
    assert pi == (1.0, 0.0, 0.0)
    assert reference_stationary_distribution(kernel).tolist() == pytest.approx(pi, abs=1e-12)


def test_stationary_distribution_value():
    pi = stationary_distribution(TransitionKernel(TWO_STATE))
    assert pi == pytest.approx([5 / 6, 1 / 6], rel=1e-9)
    assert pi == pytest.approx(stationary_by_power_iteration(TWO_STATE), rel=1e-9)


def test_long_run_frequencies_match_stationary():
    kernel = TransitionKernel(TWO_STATE)
    pi = stationary_distribution(kernel)
    rng = np.random.default_rng(123)
    steps = 100_000
    state = 0
    counts = np.zeros(2)
    for _ in range(steps):
        state = step_protocol(kernel, state, rng)
        counts[state] += 1
    freqs = counts / steps
    for p, freq in zip(pi, freqs):
        sigma = math.sqrt(p * (1 - p) / steps)
        assert abs(freq - p) <= 3 * sigma


def test_integrity_values():
    assert integrity(TransitionKernel(np.eye(3))) == 1.0
    assert integrity(TransitionKernel(TWO_STATE)) == 0.5
    assert integrity(TransitionKernel(np.full((4, 4), 0.25))) == 0.25


def test_integrity_antitone_under_diagonal_mass_removal():
    rng = np.random.default_rng(77)
    for _ in range(100):
        k = int(rng.integers(2, 5))
        raw = rng.random((k, k)) + 0.05
        matrix = raw / raw.sum(axis=1, keepdims=True)
        kernel = TransitionKernel(matrix)
        perturbed = matrix.copy()
        p = int(rng.integers(k))
        q = int(rng.integers(k - 1))
        q = q if q < p else q + 1
        shift = perturbed[p, p] * rng.random()
        perturbed[p, p] -= shift
        perturbed[p, q] += shift
        assert integrity(TransitionKernel(perturbed)) <= integrity(kernel) + 1e-15


def test_theta_zero_variance_is_exact_mean():
    process = ThetaProcess(mean=1.0, variance=0.0)
    rng = np.random.default_rng(0)
    assert all(sample_theta(process, rng) == 1.0 for _ in range(100))


def test_theta_moments():
    process = ThetaProcess(mean=1.0, variance=0.04)
    rng = np.random.default_rng(21)
    draws = np.array([sample_theta(process, rng) for _ in range(100_000)])
    assert abs(draws.mean() - 1.0) <= 0.002  # 3 sigma of the sample mean
    assert abs(draws.var(ddof=1) - 0.04) <= 0.04 * 0.05


def test_theta_tail_matches_normal_cdf():
    # P(X < -1) for a standard normal is 15.87%.
    process = ThetaProcess(mean=0.0, variance=1.0)
    rng = np.random.default_rng(4)
    draws = 100_000
    below = sum(sample_theta(process, rng) < -1.0 for _ in range(draws))
    p = 0.15865525393145707
    sigma = math.sqrt(p * (1 - p) / draws)
    assert abs(below / draws - p) <= 3 * sigma


def test_theta_rejects_negative_variance():
    with pytest.raises(ConfigurationError):
        ThetaProcess(mean=0.0, variance=-1.0)


@pytest.mark.parametrize("mean, variance, message", [
    ("1", 0.1, "theta mean: expected a finite number, got '1'"),
    (1.0, "0.1", "theta variance: expected a finite number, got '0.1'"),
    # A bool was read as 1.0 or 0.0.
    (True, False, "theta mean: expected a finite number, got True"),
    (1.0, True, "theta variance: expected a finite number, got True"),
])
def test_theta_refuses_non_numbers(mean, variance, message):
    # Through the Python API these raised TypeError from math.isfinite or `<=`.
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        ThetaProcess(mean, variance)
    # The schema's rule: np.float64 is a float, np.float32 and np.int64 are
    # not numbers (both were read as floats up to 0.17.0).
    assert ThetaProcess(np.float64(1.0), 0).variance == 0
    for mean, variance in ((np.float32(1.0), 0), (1.0, np.int64(0))):
        with pytest.raises(ConfigurationError):
            ThetaProcess(mean, variance)


@pytest.mark.parametrize("arguments, message", [
    ((1.0, 0.04, "no"), "theta clamp: expected a boolean, got 'no'"),
    ((1.0, 0.04, 0), "theta clamp: expected a boolean, got 0"),
])
def test_theta_refuses_a_clamp_that_is_not_a_bool(arguments, message):
    # Accepted before, and read as a truth value: clamp="no" clamped.
    with pytest.raises(ConfigurationError) as excinfo:
        ThetaProcess(*arguments)
    assert str(excinfo.value) == message
