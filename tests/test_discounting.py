"""Intertemporal valuation: utilities, discount paths, variance, NPV.

The risk-adjusted utility and payoff variance are the scalar reference in
``tests/oracles.py`` for the engine's in-loop risk-adjusted summary; their
properties are pinned here beside the discounting they build on."""

import math

import numpy as np
import pytest
from oracles import payoff_variance, risk_adjusted_utility

from mutagame import (
    ConfigurationError,
    InvestmentPlan,
    NoisePath,
    ZERO_NOISE,
    breakeven_horizon,
    discounted_utility,
    endogenous_discount_path,
    npv,
)


def test_geometric_series_value():
    assert discounted_utility([1.0] * 501, 0.9) == pytest.approx(10.0, abs=1e-9)


def test_single_payoff_undiscounted():
    assert discounted_utility([5.0], 0.5) == 5.0
    assert type(discounted_utility([1.0], 0.9)) is float


def test_hand_evaluated_sum():
    # 1 + 0.5*2 + 0.25*3
    assert discounted_utility([1.0, 2.0, 3.0], 0.5) == pytest.approx(2.75)


def test_empty_payoffs():
    assert discounted_utility([], 0.9) == 0.0


def test_discount_bounds_rejected():
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ConfigurationError):
            discounted_utility([1.0], bad)


@pytest.mark.parametrize("call, message", [
    # Each of the first five raised TypeError up to 0.17.0.
    (lambda: discounted_utility([1.0], "0.9"),
     "discount factor: expected a finite number, got '0.9'"),
    (lambda: breakeven_horizon("1", 1.0), "per-period return: expected a finite number, got '1'"),
    (lambda: breakeven_horizon(1.0, "1"), "upfront cost: expected a finite number, got '1'"),
    (lambda: breakeven_horizon(1.0, 1.0, ZERO_NOISE, 2.0),
     "max_horizon: expected an integer, got 2.0"),
    (lambda: endogenous_discount_path(NoisePath(0.1), 2.0),
     "horizon: expected an integer, got 2.0"),
    # These raised AttributeError or a bare ValueError up to 0.18.0.
    (lambda: npv(InvestmentPlan(1.0, (1.0,)), 0.1), "noise: expected a NoisePath, got 0.1"),
    (lambda: npv((1.0,), ZERO_NOISE), "plan: expected an InvestmentPlan, got (1.0,)"),
    (lambda: breakeven_horizon(1.0, 1.0, 0.1), "noise: expected a NoisePath, got 0.1"),
    (lambda: discounted_utility(["x"], 0.9), "payoff: expected a number, got 'x'"),
    # This raised TypeError up to 0.19.0.
    (lambda: discounted_utility(1.0, 0.9), "payoffs: expected a sequence, got 1.0"),
    (lambda: endogenous_discount_path(0.1, 2), "noise: expected a NoisePath, got 0.1"),
    # A range kind refuses inf and nan as not finite, and a finite number
    # out of range by its range, after the converted value.
    (lambda: discounted_utility([1.0], math.inf),
     "discount factor: expected a finite number, got inf"),
    (lambda: breakeven_horizon(math.nan, 1.0),
     "per-period return: expected a finite number, got nan"),
    (lambda: breakeven_horizon(1.0, -1), "upfront cost: must be >= 0, got -1.0"),
    (lambda: endogenous_discount_path(NoisePath(0.1), -1), "horizon: must be >= 0, got -1"),
])
def test_library_functions_refuse_a_non_number(call, message):
    with pytest.raises(ConfigurationError) as excinfo:
        call()
    assert str(excinfo.value) == message


@pytest.mark.parametrize("delta", [0.5, 0.9, 0.99])
@pytest.mark.parametrize("payoff", [1.0, 7.0])
@pytest.mark.parametrize("horizon", [5, 20, 60])
def test_truncation_bound(delta, payoff, horizon):
    total = discounted_utility([payoff] * (horizon + 1), delta)
    closed = payoff / (1.0 - delta)
    bound = delta ** (horizon + 1) * abs(payoff) / (1.0 - delta)
    # small absolute slack for accumulated rounding when the bound is tiny
    assert abs(total - closed) <= bound + 64 * np.finfo(float).eps * abs(closed)


def test_risk_adjustment_zero_variance_reduces_to_plain():
    samples = [[2.0, 2.0, 2.0], [1.0, 1.0], [5.0]]
    adjusted = risk_adjusted_utility(samples, 0.9, eta_risk=3.0)
    plain = discounted_utility([2.0, 1.0, 5.0], 0.9)
    assert adjusted == plain


def test_risk_adjustment_single_round_hand_value():
    # mean 1, unbiased sample std sqrt(2), undiscounted at t=0
    value = risk_adjusted_utility([[0.0, 2.0]], 0.5, eta_risk=1.0)
    assert value == pytest.approx(1.0 - math.sqrt(2.0), rel=1e-12)


def test_risk_adjustment_eta_zero_is_exactly_plain():
    rng = np.random.default_rng(13)
    for _ in range(100):
        rounds = int(rng.integers(1, 8))
        samples = [list(rng.normal(size=rng.integers(1, 6))) for _ in range(rounds)]
        means = [float(np.asarray(s, dtype=float).mean()) for s in samples]
        delta = float(rng.uniform(0.1, 0.99))
        assert risk_adjusted_utility(samples, delta, 0.0) == discounted_utility(means, delta)


def test_risk_adjustment_penalty_is_nonpositive():
    rng = np.random.default_rng(29)
    for _ in range(50):
        samples = [list(rng.normal(size=5)) for _ in range(4)]
        means = [float(np.mean(s)) for s in samples]
        delta = float(rng.uniform(0.2, 0.95))
        eta = float(rng.uniform(0.0, 3.0))
        assert risk_adjusted_utility(samples, delta, eta) <= discounted_utility(means, delta) + 1e-12


def test_risk_adjustment_rejects_empty_round():
    with pytest.raises(ConfigurationError):
        risk_adjusted_utility([[1.0], []], 0.9, 1.0)


def test_endogenous_path_constant_rate():
    path = endogenous_discount_path(NoisePath.constant(0.05), 10)
    assert path[0] == 1.0
    assert path[10] == pytest.approx(0.606531, abs=1e-6)
    assert np.allclose(path, np.exp(-0.05 * np.arange(11)))


def test_endogenous_path_no_discounting():
    path = endogenous_discount_path(NoisePath.constant(0.0), 7)
    assert np.array_equal(path, np.ones(8))


def test_endogenous_path_piecewise_integral():
    noise = NoisePath(baseline_rate=0.05, segments=((0, 0.0), (5, 0.10)))
    path = endogenous_discount_path(noise, 10)
    assert abs(path[10] - math.exp(-1.0)) <= 1e-12


def test_endogenous_path_monotonicity():
    rng = np.random.default_rng(3)
    for _ in range(25):
        starts = np.unique(rng.integers(1, 30, size=3))
        segments = ((0, float(rng.uniform(0, 0.2))),) + tuple(
            (int(s), float(rng.uniform(0, 0.2))) for s in starts
        )
        noise = NoisePath(baseline_rate=float(rng.uniform(0, 0.1)), segments=segments)
        path = np.asarray(endogenous_discount_path(noise, 40))
        assert np.all(np.diff(path) <= 1e-15)
        assert np.all(path > 0.0)


def test_endogenous_path_pointwise_monotone_in_noise():
    base = NoisePath(baseline_rate=0.02, segments=((0, 0.0), (4, 0.05)))
    raised = NoisePath(baseline_rate=0.02, segments=((0, 0.0), (4, 0.15)))
    low = np.asarray(endogenous_discount_path(base, 20))
    high = np.asarray(endogenous_discount_path(raised, 20))
    assert np.all(high <= low + 1e-15)


def test_noise_path_validation():
    with pytest.raises(ConfigurationError):
        NoisePath(baseline_rate=-0.1)
    with pytest.raises(ConfigurationError):
        NoisePath(baseline_rate=0.1, segments=((1, 0.0),))
    with pytest.raises(ConfigurationError):
        NoisePath(baseline_rate=0.1, segments=((0, 0.0), (0, 0.1)))
    with pytest.raises(ConfigurationError):
        NoisePath(baseline_rate=0.1, segments=((0, -0.5),))


def test_noise_path_refuses_a_non_integral_start():
    # 2.5 and 2.9 would both be stored as round 2, and cumulative_rate(3)
    # would read 0.8 where the given starts integrate to 0.66.
    with pytest.raises(ConfigurationError,
                       match="^noise segment start: expected an integer, got 2.5$"):
        NoisePath(0.1, ((0, 0.1), (2.5, 0.2), (2.9, 0.3)))
    # A start is an int, as the schema and Scenario(horizon=...) take one:
    # 2.0 and np.int64(3), read as rounds 2 and 3 up to 0.17.0, are refused.
    for start in (math.nan, math.inf, 2.0, np.int64(3)):
        with pytest.raises(ConfigurationError) as excinfo:
            NoisePath(0.1, ((0, 0.1), (start, 0.2)))
        assert str(excinfo.value) == f"noise segment start: expected an integer, got {start!r}"
    noise = NoisePath(0.1, ((0, 0.1), (2, 0.2), (3, 0.3)))
    assert noise.segments == ((0, 0.1), (2, 0.2), (3, 0.3))
    assert noise.cumulative_rate(3) == pytest.approx(0.2 + 0.2 + 0.3)


@pytest.mark.parametrize("make, message", [
    (lambda: NoisePath(math.inf), "baseline rate: expected a finite number, got inf"),
    (lambda: NoisePath(-math.inf), "baseline rate: expected a finite number, got -inf"),
    (lambda: NoisePath(0.0, ((0, math.inf),)), "noise value: expected a finite number, got inf"),
    (lambda: NoisePath(0.0, ((0, 0.0), (4, math.inf))),
     "noise value: expected a finite number, got inf"),
    (lambda: InvestmentPlan(math.inf, (1.0,)), "upfront cost: expected a finite number, got inf"),
])
def test_infinite_rates_and_costs_are_refused(make, message):
    # The scenario schema refuses these as not finite; the Python API now
    # does too, where npv of an infinite upfront cost read -inf.
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: NoisePath("0.1"), "baseline rate: expected a finite number, got '0.1'"),
    (lambda: NoisePath(0.1, ((0, "0.1"),)), "noise value: expected a finite number, got '0.1'"),
    (lambda: NoisePath(0.1, ((0, 0.1), ("5", 0.2))),
     "noise segment start: expected an integer, got '5'"),
    # A bool, which the schema refuses, was read as 1.0, 0.0 or round 1.
    (lambda: NoisePath(True), "baseline rate: expected a finite number, got True"),
    (lambda: NoisePath(0.1, ((0, True),)), "noise value: expected a finite number, got True"),
    (lambda: NoisePath(0.1, ((True, 0.2),)), "noise segment start: expected an integer, got True"),
    (lambda: NoisePath(0.1, ((0, 0.1), (True, 0.2))),
     "noise segment start: expected an integer, got True"),
])
def test_noise_path_refuses_non_numbers(make, message):
    # The scenario schema refuses these first; through the Python API each
    # raised TypeError from math.isfinite or from the start's `% 1`.
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: InvestmentPlan("1", (1.0,)), "upfront cost: expected a finite number, got '1'"),
    (lambda: InvestmentPlan(1.0, ("1",)), "expected return: expected a finite number, got '1'"),
    (lambda: InvestmentPlan(True, (1.0,)), "upfront cost: expected a finite number, got True"),
    (lambda: InvestmentPlan(1.0, (True,)), "expected return: expected a finite number, got True"),
    (lambda: InvestmentPlan(0.0, (1.0, False)),
     "expected return: expected a finite number, got False"),
])
def test_investment_plan_refuses_non_numbers(make, message):
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        make()
    # The schema's rule: np.float64 is a float, np.float32 and np.int64 are
    # not numbers (both were read as floats up to 0.17.0).
    plan = InvestmentPlan(np.float64(1.0), (2, np.float64(1.0)))
    assert plan.upfront_cost == 1.0 and plan.expected_returns == (2.0, 1.0)
    for upfront, returns in ((np.float32(1.0), (1.0,)), (1.0, (np.int64(2), 1))):
        with pytest.raises(ConfigurationError):
            InvestmentPlan(upfront, returns)


@pytest.mark.parametrize("make, message", [
    (lambda: InvestmentPlan(1.0, 5), "expected returns: expected a sequence, got 5"),
    (lambda: NoisePath(0.1, 5), r"noise segments must be \(start, value\) pairs, got 5"),
    (lambda: NoisePath(0.1, ((0,),)),
     r"noise segments must be \(start, value\) pairs, got \(\(0,\),\)"),
])
def test_malformed_shapes_are_refused(make, message):
    # The scenario schema refuses these first; through the Python API each
    # raised TypeError or ValueError from a len(), an index or an unpacking.
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        make()


def test_payoff_variance():
    assert payoff_variance([4.0, 4.0, 4.0]).sigma2 == 0.0
    two_point = payoff_variance([0.0, 2.0])
    assert two_point.sigma2 == pytest.approx(2.0)
    assert two_point.sigma == pytest.approx(math.sqrt(2.0))
    single = payoff_variance([3.0])
    assert single.sigma2 == 0.0 and single.degenerate
    with pytest.raises(ConfigurationError):
        payoff_variance([])


def test_payoff_variance_sampling_bound():
    rng = np.random.default_rng(8)
    samples = rng.normal(0.0, 2.0, size=100_000)
    assert payoff_variance(samples).sigma2 == pytest.approx(4.0, rel=0.05)


def test_npv_spreadsheet_oracle():
    plan = InvestmentPlan(250.0, (100.0, 100.0, 100.0))
    assert npv(plan, NoisePath.constant(0.05)) == pytest.approx(22.3248, abs=1e-4)


def test_npv_zero_plan():
    assert npv(InvestmentPlan(0.0, (0.0,)), ZERO_NOISE) == 0.0


def test_npv_decreases_with_noise():
    plan = InvestmentPlan(250.0, (100.0, 100.0, 100.0))
    base = npv(plan, NoisePath.constant(0.05))
    noisy = npv(plan, NoisePath.constant(0.05, eta=0.05))
    assert noisy < base


def test_npv_strictly_decreasing_in_cost():
    plan_a = InvestmentPlan(250.0, (100.0, 100.0))
    plan_b = InvestmentPlan(251.0, (100.0, 100.0))
    assert npv(plan_b, ZERO_NOISE) < npv(plan_a, ZERO_NOISE)


def test_breakeven_oracle():
    noise = NoisePath.constant(0.05)
    # NPV at T=2 is -64.06, at T=3 is +22.32
    assert npv(InvestmentPlan(250.0, (100.0, 100.0)), noise) < 0
    assert breakeven_horizon(100.0, 250.0, noise, 100) == 3


def test_breakeven_trivial_cases():
    assert breakeven_horizon(100.0, 0.0, ZERO_NOISE, 10) == 1
    assert breakeven_horizon(1.0, 1e6, ZERO_NOISE, 100) is None
    with pytest.raises(ConfigurationError):
        breakeven_horizon(0.0, 10.0, ZERO_NOISE, 10)


def test_breakeven_nondecreasing_in_noise():
    # None means the plan never breaks even, i.e. an infinite horizon.
    previous = 0.0
    for eta in (0.0, 0.05, 0.1, 0.2, 0.4):
        horizon = breakeven_horizon(100.0, 250.0, NoisePath.constant(0.05, eta=eta), 1000)
        value = math.inf if horizon is None else horizon
        assert value >= previous
        previous = value


def test_compound_factor_past_float_range_discounts_to_zero():
    # 3.0 ** 647 passes float range: those periods' terms are 0.0, where the
    # loops raised OverflowError. Earlier periods keep their terms.
    noise = NoisePath.constant(2.0)
    assert noise.compound(646) == 3.0 ** 646 and noise.compound(647) == math.inf
    assert breakeven_horizon(1.0, 100.0, noise, 1000) is None
    value = npv(InvestmentPlan(0.0, (1.0,) * 1000), noise)
    assert value == npv(InvestmentPlan(0.0, (1.0,) * 646), noise)
    assert math.isfinite(value) and value == pytest.approx(0.5)


def test_discount_conventions_agree_to_first_order():
    for rate in (0.01, 0.02, 0.05, 0.08, 0.1):
        for t in range(1, 31):
            exponential = math.exp(-rate * t)
            compound = (1.0 + rate) ** -t
            assert abs(exponential - compound) <= rate ** 2 * t * compound
