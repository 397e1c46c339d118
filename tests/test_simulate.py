"""Monte Carlo engine: determinism, trace consistency, meta contest, spirals."""

import numpy as np
import pytest

from mutagame import (
    Action,
    MetaModelConfig,
    Miner,
    NoisePath,
    ReplicaTrace,
    Scenario,
    ScenarioValidationError,
    StageGameSpec,
    StrategyKind,
    ThetaProcess,
    TransitionKernel,
    apply_meta_influence,
    cooperation_duration,
    detect_spiral,
    discounted_utility,
    run_batch,
    run_replica,
    stage_payoffs,
)
from mutagame.simulate import RoundRecord

C = Action.COOPERATE
D = Action.DEFECT

PD_TABLE = {"CC": [3.0, 3.0], "CD": [0.0, 5.0], "DC": [5.0, 0.0], "DD": [1.0, 1.0]}


def pd_game(num_states=1, lottery_mode=False):
    labels = [f"s{i}" for i in range(num_states)]
    return StageGameSpec.from_profile_maps(
        labels, {label: PD_TABLE for label in labels}, lottery_mode=lottery_mode
    )


def two_state_kernel(epsilon):
    return TransitionKernel([[1 - epsilon, epsilon], [epsilon, 1 - epsilon]])


def pd_scenario(strategies, *, kernel=None, num_states=1, delta=0.9, horizon=50,
                replicas=1, seed=0, trigger_on_mutation=False, theta=None,
                noise=None, meta=MetaModelConfig(), lottery_mode=False):
    n = len(strategies)
    miners = tuple(Miner(1.0 / n, s) for s in strategies)
    return Scenario(
        miners=miners,
        game=pd_game(num_states, lottery_mode),
        kernel=kernel if kernel is not None else TransitionKernel.identity(num_states),
        initial_state=0,
        horizon=horizon,
        delta=delta,
        replica_count=replicas,
        master_seed=seed,
        trigger_on_mutation=trigger_on_mutation,
        theta=theta,
        noise=noise,
        meta=meta,
    )


def synthetic_trace(fraction_pattern, n=4):
    """Build a trace whose per-round cooperation fractions follow the pattern."""
    records = []
    for t, fraction in enumerate(fraction_pattern):
        coop = round(fraction * n)
        profile = tuple([C] * coop + [D] * (n - coop))
        records.append(
            RoundRecord(t=t, state=0, theta=None, profile=profile,
                        payoffs=(0.0,) * n, mutated=False)
        )
    return ReplicaTrace(replica_index=0, records=records)


def test_all_honest_composition():
    scenario = pd_scenario([StrategyKind.honest()] * 2, horizon=10)
    trace = run_replica(scenario, 0)
    assert all(r.profile == (C, C) for r in trace.records)
    assert all(r.state == 0 for r in trace.records)
    expected = discounted_utility([3.0] * 10, 0.9)
    assert trace.discounted_utility == (pytest.approx(expected), pytest.approx(expected))


def test_hand_traced_mutation_spiral():
    scenario = pd_scenario(
        [StrategyKind.grim_trigger()] * 2,
        kernel=TransitionKernel([[0.0, 1.0], [0.0, 1.0]]),
        num_states=2,
        horizon=5,
        trigger_on_mutation=True,
    )
    trace = run_replica(scenario, 0)
    profiles = [r.profile for r in trace.records]
    assert profiles == [(C, C), (C, C), (D, D), (D, D), (D, D)]
    assert [r.state for r in trace.records] == [0, 1, 1, 1, 1]
    assert [r.mutated for r in trace.records] == [False, True, False, False, False]
    report = detect_spiral(trace)
    assert report.onset_round == 2
    assert report.final_cooperation_fraction == 0.0
    # 3 + 0.9*3 + (0.81 + 0.729 + 0.6561)*1
    assert trace.discounted_utility[0] == pytest.approx(7.8951, rel=1e-12)
    assert trace.mutation_count == 1


def test_replica_determinism():
    scenario = pd_scenario(
        [StrategyKind.grim_trigger()] * 2,
        kernel=two_state_kernel(0.2),
        num_states=2,
        horizon=40,
        seed=11,
        trigger_on_mutation=True,
        theta=ThetaProcess(mean=1.0, variance=0.09),
    )
    first = run_replica(scenario, 3)
    second = run_replica(scenario, 3)
    assert first == second


def test_replica_streams_differ():
    scenario = pd_scenario(
        [StrategyKind.grim_trigger()] * 2,
        kernel=two_state_kernel(0.3),
        num_states=2,
        horizon=40,
        seed=11,
    )
    states_a = [r.state for r in run_replica(scenario, 0).records]
    states_b = [r.state for r in run_replica(scenario, 1).records]
    assert states_a != states_b


def test_trace_payoff_consistency_with_all_scalings():
    scenario = pd_scenario(
        [StrategyKind.grim_trigger(), StrategyKind.meta_investor(0.3, 0)],
        kernel=two_state_kernel(0.15),
        num_states=2,
        horizon=60,
        seed=9,
        theta=ThetaProcess(mean=1.0, variance=0.25),
        meta=MetaModelConfig(enabled=True, influence_strength=0.5),
        lottery_mode=True,
    )
    trace = run_replica(scenario, 2)
    budgets = [0.0, 0.3]
    for record in trace.records:
        base = stage_payoffs(scenario.game, record.state, record.profile)
        scale = max(0.0, record.theta)
        expected = [
            base[i] * scale * (1.0 - budgets[i])
            * (1.0 if record.lottery_winner == i else 0.0)
            for i in range(2)
        ]
        assert list(record.payoffs) == expected


def test_state_constant_when_kernel_is_identity():
    scenario = pd_scenario(
        [StrategyKind.honest()] * 2, num_states=3, horizon=50, replicas=5,
        kernel=TransitionKernel.identity(3),
    )
    _, traces = run_batch(scenario)
    for trace in traces:
        assert all(r.state == 0 for r in trace.records)
        assert trace.mutation_count == 0


def test_grim_folk_regime_zero_defections():
    # epsilon = 0, delta above the PD threshold 0.5: nobody ever defects.
    scenario = pd_scenario(
        [StrategyKind.grim_trigger()] * 2, delta=0.9, horizon=300,
        trigger_on_mutation=True,
    )
    trace = run_replica(scenario, 0)
    assert all(a is C for r in trace.records for a in r.profile)


@pytest.mark.parametrize("delta,expected_first_action", [(0.45, D), (0.55, C)])
def test_myopic_deviator_brackets_threshold(delta, expected_first_action):
    scenario = pd_scenario(
        [StrategyKind.grim_trigger(), StrategyKind.myopic_best_response()],
        delta=delta, horizon=100,
    )
    trace = run_replica(scenario, 0)
    assert trace.records[0].profile[1] is expected_first_action
    if expected_first_action is C:
        assert all(a is C for r in trace.records for a in r.profile)


def test_meta_budget_reduces_investor_payoff():
    plain = pd_scenario([StrategyKind.honest(), StrategyKind.meta_investor(0.4, 0)],
                        horizon=5)
    charged = pd_scenario([StrategyKind.honest(), StrategyKind.meta_investor(0.4, 0)],
                          horizon=5,
                          meta=MetaModelConfig(enabled=True, influence_strength=0.2))
    free_trace = run_replica(plain, 0)
    paid_trace = run_replica(charged, 0)
    assert all(r.payoffs == (3.0, 3.0) for r in free_trace.records)
    assert all(r.payoffs == (3.0, pytest.approx(3.0 * 0.6)) for r in paid_trace.records)


def test_theta_clamping_floor_and_optout():
    process = ThetaProcess(mean=-5.0, variance=0.0)
    clamped = pd_scenario([StrategyKind.honest()] * 2, horizon=3, theta=process)
    trace = run_replica(clamped, 0)
    assert all(r.payoffs == (0.0, 0.0) for r in trace.records)
    unclamped = pd_scenario(
        [StrategyKind.honest()] * 2, horizon=3,
        theta=ThetaProcess(mean=-5.0, variance=0.0, clamp=False),
    )
    trace = run_replica(unclamped, 0)
    assert all(r.payoffs == (-15.0, -15.0) for r in trace.records)


def test_apply_meta_influence_unchanged_cases():
    row = np.array([0.2, 0.5, 0.3])
    disabled = apply_meta_influence(row, [(0.5, 0, 0.5)], MetaModelConfig())
    no_investors = apply_meta_influence(
        row, [], MetaModelConfig(enabled=True, influence_strength=0.7)
    )
    zero_beta = apply_meta_influence(
        row, [(0.5, 0, 0.5)], MetaModelConfig(enabled=True, influence_strength=0.0)
    )
    for adjusted in (disabled, no_investors, zero_beta):
        assert np.array_equal(adjusted, row)


def test_apply_meta_influence_point_mass():
    config = MetaModelConfig(enabled=True, influence_strength=1.0, contest_exponent=1.0)
    adjusted = apply_meta_influence([0.4, 0.3, 0.3], [(1.0, 2, 1.0)], config)
    assert adjusted == pytest.approx([0.0, 0.0, 1.0])


def test_apply_meta_influence_symmetric_contest_fixed_point():
    config = MetaModelConfig(enabled=True, influence_strength=0.5, contest_exponent=1.0)
    investors = [(0.5, 0, 0.3), (0.5, 1, 0.3)]
    adjusted = apply_meta_influence([0.5, 0.5], investors, config)
    assert np.all(np.abs(adjusted - np.array([0.5, 0.5])) <= 1e-12)


def test_apply_meta_influence_row_sums_over_grid():
    rng = np.random.default_rng(17)
    betas = [0.0, 0.25, 0.5, 0.75, 1.0]
    exponents = [0.5, 1.0, 2.0, 3.0]
    budgets = np.linspace(0.0, 1.0, 26)
    count = 0
    for beta in betas:
        for r in exponents:
            config = MetaModelConfig(enabled=True, influence_strength=beta,
                                     contest_exponent=r)
            for budget in budgets:
                raw = rng.random(4) + 1e-3
                row = raw / raw.sum()
                investors = [(float(budget), 1, 0.6), (float(1.0 - budget), 3, 0.4)]
                adjusted = apply_meta_influence(row, investors, config)
                count += 1
                assert abs(adjusted.sum() - 1.0) <= 1e-12
                assert np.all(adjusted >= -1e-15)
    assert count >= 500


def test_apply_meta_influence_underflowed_weights_leave_row():
    config = MetaModelConfig(enabled=True, influence_strength=1.0, contest_exponent=3.0)
    row = np.array([0.5, 0.5])
    adjusted = apply_meta_influence(row, [(1e-150, 1, 1e-160)], config)
    assert np.array_equal(adjusted, row)


def test_grim_absorbing_across_random_replicas():
    scenario = pd_scenario(
        [StrategyKind.grim_trigger(), StrategyKind.grim_trigger()],
        kernel=two_state_kernel(0.25),
        num_states=2,
        horizon=60,
        seed=31,
        trigger_on_mutation=True,
    )
    for replica in range(20):
        trace = run_replica(scenario, replica)
        for miner in range(2):
            actions = [r.profile[miner] for r in trace.records]
            if D in actions:
                first = actions.index(D)
                assert all(a is D for a in actions[first:])


def test_trace_utilities_match_discounting_module():
    scenario = pd_scenario(
        [StrategyKind.grim_trigger()] * 2,
        kernel=two_state_kernel(0.2),
        num_states=2,
        horizon=80,
        seed=6,
        trigger_on_mutation=True,
        theta=ThetaProcess(mean=1.0, variance=0.04),
    )
    trace = run_replica(scenario, 1)
    for miner in range(2):
        stream = [r.payoffs[miner] for r in trace.records]
        assert trace.discounted_utility[miner] == discounted_utility(stream, scenario.delta)


def test_myopic_keeps_defecting_during_punishment():
    # Opponent defected last round: the continuation no longer rewards
    # cooperation, so even a patient deviator plays the stage best response.
    from mutagame import PlayHistory, resolve_actions

    strategies = [StrategyKind.myopic_best_response(), StrategyKind.always_defect()]
    history = PlayHistory.from_rounds(2, [[C, D]])
    actions = resolve_actions(
        strategies, history, 1, game=pd_game(), state=0, discount=0.95
    )
    assert actions[0] is D


def test_detect_spiral_all_cooperate():
    report = detect_spiral(synthetic_trace([1.0] * 6))
    assert report.onset_round is None
    assert report.final_cooperation_fraction == 1.0


def test_detect_spiral_simple_collapse():
    report = detect_spiral(synthetic_trace([1.0] * 5 + [0.0] * 5))
    assert report.onset_round == 5


def test_detect_spiral_ignores_transient_dip():
    pattern = [1.0, 1.0, 1.0, 0.25, 1.0, 1.0, 1.0, 0.75, 0.25, 0.0, 0.25]
    report = detect_spiral(synthetic_trace(pattern))
    assert report.onset_round == 8
    assert report.final_cooperation_fraction == 0.25


def test_detect_spiral_threshold_is_configurable():
    pattern = [1.0, 0.75, 0.75]
    assert detect_spiral(synthetic_trace(pattern), threshold=0.5).onset_round is None
    assert detect_spiral(synthetic_trace(pattern), threshold=0.8).onset_round == 1


def test_cooperation_duration():
    assert cooperation_duration(synthetic_trace([1.0] * 6)) == 6
    assert cooperation_duration(synthetic_trace([1.0, 1.0, 0.0, 0.0])) == 2


def test_single_replica_summary():
    scenario = pd_scenario([StrategyKind.honest()] * 2, horizon=20, replicas=1)
    summary, traces = run_batch(scenario)
    assert summary.replica_count == 1
    assert summary.mean_utility == traces[0].discounted_utility
    assert summary.std_utility == (0.0, 0.0)
    assert summary.spiral_frequency == 0.0
    assert summary.mean_final_cooperation_fraction == 1.0
    assert summary.mutation_count_std == 0.0


def test_epsilon_sweep_duration_monotone():
    durations = {}
    spiral_freqs = {}
    for eps in (0.0, 0.05, 0.2):
        scenario = pd_scenario(
            [StrategyKind.grim_trigger()] * 2,
            kernel=two_state_kernel(eps),
            num_states=2,
            delta=0.9,
            horizon=100,
            replicas=60,
            seed=2024,
            trigger_on_mutation=True,
        )
        _, traces = run_batch(scenario)
        values = [cooperation_duration(t) for t in traces]
        durations[eps] = np.mean(values)
        spiral_freqs[eps] = np.mean(
            [detect_spiral(t).onset_round is not None for t in traces]
        )
    assert durations[0.0] >= durations[0.05] >= durations[0.2]
    assert durations[0.0] > durations[0.2]
    assert spiral_freqs[0.0] == 0.0
    assert spiral_freqs[0.2] > 0.9


@pytest.mark.parametrize("epsilon", [0.02, 0.1])
def test_grim_mutation_spirals_match_closed_form(epsilon):
    # A GrimTrigger pair defects from the round after the first rule change.
    # That change enters round M ~ Geometric(epsilon) on {1, 2, ...}, so the
    # cooperation duration is D = min(M + 1, H) and a spiral means D < H.
    horizon, replicas = 60, 4000
    scenario = pd_scenario(
        [StrategyKind.grim_trigger()] * 2,
        kernel=two_state_kernel(epsilon),
        num_states=2,
        horizon=horizon,
        replicas=replicas,
        seed=2025,
        trigger_on_mutation=True,
    )
    summary, _ = run_batch(scenario)
    support = np.arange(2, horizon + 1)
    probability = epsilon * (1 - epsilon) ** (support - 2.0)
    probability[-1] = (1 - epsilon) ** (horizon - 2)
    mean = support @ probability
    se = np.sqrt((support**2 @ probability - mean**2) / replicas)
    assert abs(summary.mean_cooperation_duration - mean) <= 4 * se
    spiral = 1 - (1 - epsilon) ** (horizon - 2)
    assert spiral == pytest.approx(probability[:-1].sum(), rel=1e-12)
    spiral_se = np.sqrt(spiral * (1 - spiral) / replicas)
    assert abs(summary.spiral_frequency - spiral) <= 4 * spiral_se


def test_noise_adds_endogenous_utilities():
    noise = NoisePath(baseline_rate=0.05, segments=((0, 0.0), (5, 0.1)))
    scenario = pd_scenario([StrategyKind.honest()] * 2, horizon=10, noise=noise)
    trace = run_replica(scenario, 0)
    assert trace.endogenous_utility is not None
    weights = np.exp(-np.array([noise.cumulative_rate(t) for t in range(10)]))
    expected = float(weights.sum() * 3.0)
    assert trace.endogenous_utility[0] == pytest.approx(expected, rel=1e-12)
    summary, _ = run_batch(scenario)
    assert summary.mean_endogenous_utility is not None


def test_scenario_validation_collects_errors():
    with pytest.raises(ScenarioValidationError) as excinfo:
        Scenario(
            miners=(Miner(0.7, StrategyKind.honest()), Miner(0.7, StrategyKind.honest())),
            game=pd_game(),
            kernel=TransitionKernel.identity(2),
            initial_state=5,
            horizon=0,
            delta=1.5,
            replica_count=0,
        )
    text = "\n".join(excinfo.value.errors)
    assert "hash shares" in text
    assert "initial_state" in text
    assert "horizon" in text
    assert "delta" in text
    assert "replica_count" in text
    assert "kernel" in text  # 2 kernel states vs 1 game state


def test_scenario_rejects_bad_preferred_state():
    with pytest.raises(ScenarioValidationError, match="preferred_state"):
        pd_scenario([StrategyKind.honest(), StrategyKind.meta_investor(0.5, 3)])
