"""Monte Carlo engine: determinism, trace consistency, meta contest, spirals."""

import dataclasses
import itertools

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    Action,
    PlayHistory,
    contest_row,
    contest_scenario,
    cooperation_duration,
    detect_spiral,
    replica_fields,
    resolve_actions,
    risk_adjusted_utility,
)

from mutagame import (
    ConfigurationError,
    InvestmentPlan,
    MetaModelConfig,
    Miner,
    NoisePath,
    NormalFormGame,
    Scenario,
    ScenarioValidationError,
    StageGameSpec,
    StrategyKind,
    StrategyTag,
    ThetaProcess,
    TransitionKernel,
    breakeven_horizon,
    discounted_utility,
    kernel_as_run,
    parse_document,
    run_batch,
    run_replica,
)
from mutagame.presets import MUTABLE_CORE
from mutagame.simulate import _mean_and_spread, _strategy_tables

C = Action.COOPERATE
D = Action.DEFECT
HONEST = StrategyKind(StrategyTag.HONEST)
GRIM = StrategyKind(StrategyTag.GRIM_TRIGGER)
MYOPIC = StrategyKind(StrategyTag.MYOPIC_BEST_RESPONSE)
ALWAYS_DEFECT = StrategyKind(StrategyTag.ALWAYS_DEFECT)

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
        kernel=kernel if kernel is not None else TransitionKernel(np.eye(num_states)),
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
    """Defect flags (H, n) whose per-round cooperation fractions follow the pattern."""
    return np.array(
        [[i >= round(fraction * n) for i in range(n)] for fraction in fraction_pattern]
    )


@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(1, 6), st.integers(1, 600), st.integers(-5, 4), st.booleans(),
       st.integers(0, 2**32 - 1))
@example(2, 1, 0, False, 0)  # one replica: ddof 0, the spread is 0
@example(4, 2, 0, True, 1)
def test_mean_and_spread_bit_equal_to_numpy(n, count, exponent, whole, seed):
    # The engine's per-round risk reduction must match numpy's mean and
    # var bit for bit, or every risk-adjusted utility would move.
    row = np.random.default_rng(seed).normal(size=(count, n)) * 10.0**exponent
    if whole:  # payoff tables of small whole numbers: exact ties and zeros
        row = np.round(row)
    ddof = min(count - 1, 1)
    before = row.copy()
    mean, spread = _mean_and_spread(row, ddof)
    rounds = np.ascontiguousarray(row.T)
    assert mean.view(np.uint64).tolist() == rounds.mean(axis=1).view(np.uint64).tolist()
    expected = np.sqrt(rounds.var(axis=1, ddof=ddof))
    assert spread.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
    assert row.view(np.uint64).tolist() == before.view(np.uint64).tolist()


def test_all_honest_composition():
    scenario = pd_scenario([HONEST] * 2, horizon=10)
    trace = run_replica(scenario, 0)
    assert trace.defects.shape == (1, 10, 2) and not trace.defects.any()
    assert trace.states.tolist() == [[0] * 10]
    expected = discounted_utility([3.0] * 10, 0.9)
    assert tuple(trace.discounted_utility[0].tolist()) == (
        pytest.approx(expected), pytest.approx(expected)
    )


@pytest.mark.parametrize("horizon", [1, 2, 3, 5])
def test_hand_traced_mutation_spiral(horizon):
    # Every horizon plays a prefix of the same 5 rounds: round 0 steps the
    # state to 1, the change entering round 1 is seen from round 2 on, and
    # the last round's state step is drawn but recorded nowhere.
    scenario = pd_scenario(
        [GRIM] * 2,
        kernel=TransitionKernel([[0.0, 1.0], [0.0, 1.0]]),
        num_states=2,
        horizon=horizon,
        trigger_on_mutation=True,
    )
    trace = run_replica(scenario, 0)
    assert trace.defects[0].tolist() == ([[False] * 2] * 2 + [[True] * 2] * 3)[:horizon]
    assert trace.states[0].tolist() == [0, 1, 1, 1, 1][:horizon]
    changed = trace.states[0, 1:] != trace.states[0, :-1]
    assert changed.tolist() == [True, False, False, False][:horizon - 1]  # round 1 mutated
    assert trace.cooperation_duration.tolist() == [min(horizon, 2)]
    report = detect_spiral(trace.defects[0])
    assert report.onset_round == (2 if horizon > 2 else None)
    assert report.final_cooperation_fraction == (0.0 if horizon > 2 else 1.0)
    # 3 + 0.9*3 + (0.81 + 0.729 + 0.6561)*1, to the horizon
    expected = sum([3.0, 2.7, 0.81, 0.729, 0.6561][:horizon])
    assert trace.discounted_utility[0, 0] == pytest.approx(expected, rel=1e-12)
    assert trace.mutation_counts.tolist() == [min(horizon - 1, 1)]


def test_replica_determinism():
    scenario = pd_scenario(
        [GRIM] * 2,
        kernel=two_state_kernel(0.2),
        num_states=2,
        horizon=40,
        seed=11,
        trigger_on_mutation=True,
        theta=ThetaProcess(mean=1.0, variance=0.09),
    )
    first = run_replica(scenario, 3)
    second = run_replica(scenario, 3)
    assert repr(replica_fields(first, 0)) == repr(replica_fields(second, 0))


def test_replica_streams_differ():
    scenario = pd_scenario(
        [GRIM] * 2,
        kernel=two_state_kernel(0.3),
        num_states=2,
        horizon=40,
        seed=11,
    )
    states_a = run_replica(scenario, 0).states.tolist()
    states_b = run_replica(scenario, 1).states.tolist()
    assert states_a != states_b


def test_trace_payoff_consistency_with_all_scalings():
    scenario = pd_scenario(
        [GRIM, StrategyKind(StrategyTag.META_INVESTOR, 0.3, 0)],
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
    rounds = zip(trace.states[0].tolist(), trace.defects[0].tolist(),
                 trace.theta[0].tolist(), trace.winner[0].tolist(),
                 trace.payoffs[0].tolist())
    for state, defects, theta, winner, payoffs in rounds:
        base = scenario.game[state].tensor[tuple(map(int, defects))]
        scale = max(0.0, theta)
        expected = [
            base[i] * scale * (1.0 - budgets[i]) * (1.0 if winner == i else 0.0)
            for i in range(2)
        ]
        assert payoffs == expected


def test_state_constant_when_kernel_is_identity():
    scenario = pd_scenario(
        [HONEST] * 2, num_states=3, horizon=50, replicas=5,
        kernel=TransitionKernel(np.eye(3)),
    )
    _, batch = run_batch(scenario)
    assert batch.states.tolist() == [[0] * 50] * 5
    assert batch.mutation_counts.tolist() == [0] * 5


def test_grim_folk_regime_zero_defections():
    # epsilon = 0, delta above the PD threshold 0.5: nobody ever defects.
    scenario = pd_scenario(
        [GRIM] * 2, delta=0.9, horizon=300,
        trigger_on_mutation=True,
    )
    trace = run_replica(scenario, 0)
    assert trace.defects.shape == (1, 300, 2) and not trace.defects.any()


@pytest.mark.parametrize("delta,expected_first_action", [(0.45, D), (0.55, C)])
def test_myopic_deviator_brackets_threshold(delta, expected_first_action):
    scenario = pd_scenario(
        [GRIM, MYOPIC],
        delta=delta, horizon=100,
    )
    trace = run_replica(scenario, 0)
    assert trace.defects[0, 0, 1] == (expected_first_action is D)
    if expected_first_action is C:
        assert not trace.defects.any()


def test_meta_budget_reduces_investor_payoff():
    plain = pd_scenario([HONEST, StrategyKind(StrategyTag.META_INVESTOR, 0.4, 0)], horizon=5)
    charged = pd_scenario([HONEST, StrategyKind(StrategyTag.META_INVESTOR, 0.4, 0)], horizon=5,
                          meta=MetaModelConfig(enabled=True, influence_strength=0.2))
    free_trace = run_replica(plain, 0)
    paid_trace = run_replica(charged, 0)
    assert free_trace.payoffs[0].tolist() == [[3.0, 3.0]] * 5
    assert paid_trace.payoffs[0].tolist() == [[3.0, pytest.approx(3.0 * 0.6)]] * 5


def test_theta_clamping_floor_and_optout():
    process = ThetaProcess(mean=-5.0, variance=0.0)
    clamped = pd_scenario([HONEST] * 2, horizon=3, theta=process)
    trace = run_replica(clamped, 0)
    assert trace.payoffs[0].tolist() == [[0.0, 0.0]] * 3
    unclamped = pd_scenario(
        [HONEST] * 2, horizon=3,
        theta=ThetaProcess(mean=-5.0, variance=0.0, clamp=False),
    )
    trace = run_replica(unclamped, 0)
    assert trace.payoffs[0].tolist() == [[-15.0, -15.0]] * 3


def rolled(row):
    """The (k, k) kernel whose row i is ``row`` rotated right by i."""
    return np.stack([np.roll(row, shift) for shift in range(len(row))])


def test_kernel_as_run_unchanged_cases():
    matrix = rolled([0.2, 0.5, 0.3])
    off = dataclasses.replace(contest_scenario(matrix, [(0.5, 0, 0.5)]), meta=MetaModelConfig())
    no_investors = contest_scenario(matrix, [], influence_strength=0.7)
    zero_beta = contest_scenario(matrix, [(0.5, 0, 0.5)], influence_strength=0.0)
    no_effort = contest_scenario(matrix, [(0.0, 1, 0.5)], influence_strength=0.7)
    for scenario in (off, no_investors, zero_beta, no_effort):
        assert kernel_as_run(scenario) is scenario.kernel
        assert kernel_as_run(scenario).matrix.tobytes() == matrix.tobytes()


def test_kernel_as_run_point_mass():
    scenario = contest_scenario(rolled([0.4, 0.3, 0.3]), [(1.0, 2, 1.0)],
                                influence_strength=1.0, contest_exponent=1.0)
    assert kernel_as_run(scenario).matrix.tolist() == [[0.0, 0.0, 1.0]] * 3


def test_kernel_as_run_symmetric_contest_fixed_point():
    scenario = contest_scenario([[0.5, 0.5], [0.5, 0.5]], [(0.5, 0, 0.3), (0.5, 1, 0.3)],
                                influence_strength=0.5, contest_exponent=1.0)
    assert np.all(np.abs(kernel_as_run(scenario).matrix - 0.5) <= 1e-12)


def test_kernel_as_run_row_sums_over_grid():
    rng = np.random.default_rng(17)
    betas = [0.0, 0.25, 0.5, 0.75, 1.0]
    exponents = [0.5, 1.0, 2.0, 3.0]
    budgets = np.linspace(0.0, 1.0, 26)
    count = 0
    for beta in betas:
        for r in exponents:
            for budget in budgets:
                raw = rng.random(4) + 1e-3
                matrix = rolled(raw / raw.sum())
                investors = [(float(budget), 1, 0.6), (float(1.0 - budget), 3, 0.4)]
                scenario = contest_scenario(matrix, investors, influence_strength=beta,
                                            contest_exponent=r)
                adjusted = kernel_as_run(scenario).matrix
                count += 1
                assert np.all(np.abs(adjusted.sum(axis=1) - 1.0) <= 1e-12)
                assert np.all(adjusted >= -1e-15)
                for row, blended in zip(matrix, adjusted):
                    assert contest_row(scenario, row).tobytes() == blended.tobytes()
    assert count >= 500


def test_kernel_as_run_underflowed_effort_leaves_row():
    # The effort 1e-310 is subnormal; beta times it rounds away against 0.5.
    matrix = [[0.5, 0.5], [0.5, 0.5]]
    scenario = contest_scenario(matrix, [(1e-150, 1, 1e-160)],
                                influence_strength=1.0, contest_exponent=3.0)
    assert kernel_as_run(scenario).matrix.tobytes() == np.array(matrix).tobytes()


@pytest.mark.parametrize("exponent", ["250.0", "1.0e+300"])
def test_kernel_as_run_lone_contestant_wins_at_every_exponent(exponent):
    # Powers of the raw effort 0.05 underflowed to 0 past an exponent of
    # about 249, and the contest then left the kernel as it was.
    doc = yaml.safe_load(MUTABLE_CORE)
    steep = parse_document(doc, {"meta.contest_exponent": exponent})
    assert steep.meta.contest_exponent == float(exponent)
    linear = kernel_as_run(parse_document(doc)).matrix
    assert kernel_as_run(steep).matrix.tobytes() == linear.tobytes()
    assert linear.tobytes() != parse_document(doc).kernel.matrix.tobytes()


def test_kernel_as_run_steep_contest_gives_the_larger_effort_every_weight():
    scenario = contest_scenario(np.eye(3), [(0.5, 0, 0.5), (0.2, 2, 0.5)],
                                influence_strength=1.0, contest_exponent=1.0e300)
    lam = 0.5 * 0.5 + 0.5 * 0.2
    expected = (1.0 - lam) * np.eye(3) + lam * np.array([1.0, 0.0, 0.0])
    assert kernel_as_run(scenario).matrix.tobytes() == expected.tobytes()


def test_grim_absorbing_across_random_replicas():
    scenario = pd_scenario(
        [GRIM, GRIM],
        kernel=two_state_kernel(0.25),
        num_states=2,
        horizon=60,
        seed=31,
        trigger_on_mutation=True,
    )
    for replica in range(20):
        trace = run_replica(scenario, replica)
        for miner in range(2):
            actions = trace.defects[0, :, miner].tolist()
            if True in actions:
                first = actions.index(True)
                assert all(actions[first:])


def test_trace_utilities_match_discounting_module():
    scenario = pd_scenario(
        [GRIM] * 2,
        kernel=two_state_kernel(0.2),
        num_states=2,
        horizon=80,
        seed=6,
        trigger_on_mutation=True,
        theta=ThetaProcess(mean=1.0, variance=0.04),
    )
    trace = run_replica(scenario, 1)
    for miner in range(2):
        stream = trace.payoffs[0, :, miner].tolist()
        assert trace.discounted_utility[0, miner] == discounted_utility(stream, scenario.delta)


def test_myopic_keeps_defecting_during_punishment():
    # Opponent defected last round: the continuation no longer rewards
    # cooperation, so even a patient deviator plays the stage best response.
    strategies = [MYOPIC, ALWAYS_DEFECT]
    history = PlayHistory.from_rounds(2, [[C, D]])
    actions = resolve_actions(
        strategies, history, 1, game=pd_game(), state=0, discount=0.95
    )
    assert actions[0] is D


def strategy_kind(tag):
    return StrategyKind(tag, 0.5, 0) if tag is StrategyTag.META_INVESTOR else StrategyKind(tag)


@pytest.mark.parametrize("delta", [0.1, 0.5, 0.9])
def test_myopic_table_matches_scalar_response(delta):
    # Every tag through the strategy tables that the engine reads, with a
    # random nonempty set of MyopicBestResponse miners and random tags for
    # the rest. Small integer payoffs, so the two sides of the Myopic
    # comparison often tie.
    rng = np.random.default_rng(int(delta * 10))
    for _ in range(60):
        n, k = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        game = StageGameSpec(
            [f"s{state}" for state in range(k)],
            [NormalFormGame(rng.integers(-2, 3, size=(2,) * n + (n,))) for _ in range(k)],
        )
        tags = rng.choice(list(StrategyTag), n)
        tags[rng.permutation(n)[: rng.integers(1, n + 1)]] = StrategyTag.MYOPIC_BEST_RESPONSE
        strategies = [strategy_kind(tag) for tag in tags]
        tables = np.stack([stage.tensor.reshape(-1, n) for stage in game])
        profiles = list(itertools.product((C, D), repeat=n))

        def mask(actions):
            return profiles.index(tuple(actions))

        for trigger in (False, True):
            scenario = Scenario(
                miners=tuple(Miner(1.0 / n, strategy) for strategy in strategies),
                game=game, kernel=TransitionKernel(np.eye(k)), initial_state=0,
                horizon=1, delta=delta, trigger_on_mutation=trigger,
            )
            respond, grim = _strategy_tables(scenario, tables)
            assert respond.shape == (k, 2**n) and grim.shape == (2, 2**n)
            for last, ever, seen in itertools.product(range(2**n), range(2**n), (0, 1)):
                history = PlayHistory(
                    n, rounds=1, last_profile=profiles[last],
                    defect_counts=[int(a is D) for a in profiles[ever]],
                    total_defects=profiles[ever].count(D), mutation_seen=bool(seen),
                )
                for state in range(k):
                    actions = resolve_actions(strategies, history, 1, game=game, state=state,
                                              trigger_on_mutation=trigger, discount=delta)
                    assert respond[state, last] | grim[seen, ever] == mask(actions)
            # Round 0 has no last profile and nothing on record: it reads mask 0.
            for state in range(k):
                actions = resolve_actions(strategies, PlayHistory(n), 0, game=game, state=state,
                                          trigger_on_mutation=trigger, discount=delta)
                assert respond[state, 0] | grim[0, 0] == mask(actions)


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
    scenario = pd_scenario([HONEST] * 2, horizon=20, replicas=1)
    summary, batch = run_batch(scenario)
    assert summary.replica_count == 1
    assert summary.mean_utility == tuple(batch.discounted_utility[0].tolist())
    assert summary.std_utility == (0.0, 0.0)
    assert summary.spiral_frequency == 0.0
    assert summary.mean_final_cooperation_fraction == 1.0
    assert summary.mutation_count_std == 0.0


def test_epsilon_sweep_duration_monotone():
    durations = {}
    spiral_freqs = {}
    for eps in (0.0, 0.05, 0.2):
        scenario = pd_scenario(
            [GRIM] * 2,
            kernel=two_state_kernel(eps),
            num_states=2,
            delta=0.9,
            horizon=100,
            replicas=60,
            seed=2024,
            trigger_on_mutation=True,
        )
        _, batch = run_batch(scenario)
        durations[eps] = np.mean(batch.cooperation_duration)
        spiral_freqs[eps] = np.mean(batch.cooperation_duration < scenario.horizon)
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
        [GRIM] * 2,
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


def survival_mutable_core():
    doc = yaml.safe_load(MUTABLE_CORE)
    doc.update(horizon=30, replica_count=2000, master_seed=12345)
    return parse_document(doc)


def survival_grim_pair():
    # bench's grim_sweep pair at its largest epsilon
    return pd_scenario([GRIM] * 2, kernel=two_state_kernel(0.1), num_states=2, horizon=30,
                       replicas=2000, seed=12345, trigger_on_mutation=True)


@pytest.mark.parametrize("make", [survival_mutable_core, survival_grim_pair],
                         ids=lambda make: make.__name__)
def test_rules_survive_at_the_kernel_diagonal_power(make):
    # The rules in force at round 0 are still in force through round t with
    # probability K[s0,s0]^t, K the kernel the engine steps (meta contest
    # included): 0.902 on mutable_core, 0.9 on the grim pair.
    scenario = make()
    s0 = scenario.initial_state
    stay = kernel_as_run(scenario).matrix[s0, s0]
    _, batch = run_batch(scenario)
    unchanged = np.logical_and.accumulate(batch.states == s0, axis=1)
    for t in (1, 5, 10, 20, 29):
        p = stay**t
        se = np.sqrt(p * (1 - p) / scenario.replica_count)
        assert abs(unchanged[:, t].mean() - p) <= 4 * se, t


def test_noise_adds_endogenous_utilities():
    noise = NoisePath(baseline_rate=0.05, segments=((0, 0.0), (5, 0.1)))
    scenario = pd_scenario([HONEST] * 2, horizon=10, noise=noise)
    trace = run_replica(scenario, 0)
    assert trace.endogenous_utility is not None
    weights = np.exp(-np.array([noise.cumulative_rate(t) for t in range(10)]))
    expected = float(weights.sum() * 3.0)
    assert trace.endogenous_utility[0, 0] == pytest.approx(expected, rel=1e-12)
    summary, _ = run_batch(scenario)
    assert summary.mean_endogenous_utility is not None


def test_scenario_validation_collects_errors():
    with pytest.raises(ScenarioValidationError) as excinfo:
        Scenario(
            miners=(Miner(0.7, HONEST), Miner(0.7, HONEST)),
            game=pd_game(),
            kernel=TransitionKernel(np.eye(2)),
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


def test_scenario_requires_every_field_but_the_optional_blocks():
    # Only noise, theta and investment may be None; every other None is
    # refused at construction, not by an AttributeError inside run_batch.
    with pytest.raises(ScenarioValidationError) as excinfo:
        Scenario(miners=(Miner(0.5, GRIM), Miner(0.5, GRIM)), game=None, kernel=None,
                 initial_state=0, horizon=1, delta=0.5)
    assert excinfo.value.errors == ["game: required", "kernel: required"]


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize("make, message", [
    (lambda: ThetaProcess(mean=1.0, variance=NAN), "theta variance"),
    (lambda: NoisePath(NAN), "baseline rate"),
    (lambda: NoisePath(0.0, ((0, 0.0), (5, NAN))), "noise value"),
    (lambda: InvestmentPlan(upfront_cost=NAN, expected_returns=(1.0,)), "upfront cost"),
    (lambda: MetaModelConfig(contest_exponent=NAN), "contest_exponent"),
    (lambda: risk_adjusted_utility([[1.0, 2.0]], 0.9, eta_risk=NAN), "risk aversion"),
    (lambda: breakeven_horizon(NAN, 1.0), "per-period return"),
    (lambda: breakeven_horizon(1.0, NAN), "upfront cost"),
    (lambda: dataclasses.replace(pd_scenario([HONEST] * 2), risk_aversion=NAN),
     "risk_aversion: expected a finite number, got nan"),
    (lambda: dataclasses.replace(pd_scenario([HONEST] * 2), risk_aversion=INF),
     "risk_aversion: expected a finite number, got inf"),
    (lambda: dataclasses.replace(pd_scenario([HONEST] * 2), post_mutation_value=NAN),
     "post_mutation_value: expected a finite number, got nan"),
    (lambda: dataclasses.replace(pd_scenario([HONEST] * 2), post_mutation_value=-INF),
     "post_mutation_value: expected a finite number, got -inf"),
    (lambda: ThetaProcess(mean=NAN, variance=1.0, clamp=False),
     "theta mean: expected a finite number, got nan"),
    (lambda: ThetaProcess(mean=INF, variance=1.0), "theta mean: expected a finite number, got inf"),
    (lambda: ThetaProcess(mean=1.0, variance=INF),
     "theta variance: expected a finite number, got inf"),
])
def test_nan_fails_range_checks(make, message):
    with pytest.raises((ConfigurationError, ScenarioValidationError), match=message):
        make()


def test_scenario_rejects_bad_preferred_state():
    with pytest.raises(ScenarioValidationError, match="preferred_state"):
        pd_scenario([HONEST, StrategyKind(StrategyTag.META_INVESTOR, 0.5, 3)])
