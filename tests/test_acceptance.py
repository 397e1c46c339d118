"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned in the assertions below.
"""

import math
import subprocess
import sys

import numpy as np
import pytest
import yaml

from oracles import contest_scenario, nash_oracle, random_profile_map, risk_adjusted_utility

from mutagame import (
    Miner,
    NoisePath,
    InvestmentPlan,
    NormalFormGame,
    Scenario,
    StageGameSpec,
    StrategyKind,
    StrategyTag,
    TransitionKernel,
    breakeven_horizon,
    discounted_utility,
    effective_coop_value,
    endogenous_discount_path,
    grim_cooperation_verdict,
    grim_trigger_threshold,
    integrity,
    kernel_as_run,
    kernel_entropy,
    npv,
    pure_nash,
    run_batch,
    run_replica,
)

PD_TABLE = {"CC": [3.0, 3.0], "CD": [0.0, 5.0], "DC": [5.0, 0.0], "DD": [1.0, 1.0]}


def _pass(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number:>2} PASS: {message}")


def pd_game(num_states=1):
    labels = [f"s{i}" for i in range(num_states)]
    return StageGameSpec.from_profile_maps(labels, {l: PD_TABLE for l in labels})


def grim_pd_scenario(*, epsilon, delta, horizon, replicas, seed,
                     deviator=False, trigger_on_mutation=False):
    strategies = [StrategyKind(StrategyTag.GRIM_TRIGGER),
                  StrategyKind(StrategyTag.MYOPIC_BEST_RESPONSE) if deviator
                  else StrategyKind(StrategyTag.GRIM_TRIGGER)]
    num_states = 2 if epsilon > 0 or trigger_on_mutation else 1
    if num_states == 2:
        kernel = TransitionKernel([[1 - epsilon, epsilon], [epsilon, 1 - epsilon]])
    else:
        kernel = TransitionKernel(np.eye(1))
    return Scenario(
        miners=tuple(Miner(0.5, s) for s in strategies),
        game=pd_game(num_states),
        kernel=kernel,
        initial_state=0,
        horizon=horizon,
        delta=delta,
        replica_count=replicas,
        master_seed=seed,
        trigger_on_mutation=trigger_on_mutation,
    )


def truncation_horizon(delta, payoff, tol):
    """The horizon T from which a constant stream of ``payoff`` has a tail
    delta**T * payoff / (1 - delta) of at most ``tol``."""
    return max(1, math.ceil(math.log(tol * (1.0 - delta) / payoff) / math.log(delta)))


def test_c01_geometric_utility_exactness():
    horizon = truncation_horizon(0.9, 1.0, tol=1e-9)
    value = discounted_utility([1.0] * (horizon + 1), 0.9)
    assert abs(value - 10.0) <= 1e-9
    for delta in (0.5, 0.9, 0.99):
        for payoff in (1.0, 7.0):
            h = truncation_horizon(delta, payoff, tol=1e-9)
            total = discounted_utility([payoff] * (h + 1), delta)
            closed = payoff / (1.0 - delta)
            bound = delta ** (h + 1) * payoff / (1.0 - delta)
            # For a constant stream the truncated tail equals the bound
            # exactly, so the comparison needs a summation-rounding
            # allowance; 1e-13 relative stays an order below the bound.
            assert abs(total - closed) <= bound + 1e-13 * closed
            assert abs(total - closed) <= 1e-9
    _pass(1, "discounted utility reaches closed forms within the truncation bound")


def test_c02_folk_theorem_threshold_reproduction():
    game = NormalFormGame.from_profile_map(PD_TABLE)
    assert grim_trigger_threshold(game).delta_star == pytest.approx(0.5, abs=1e-12)
    for seed in range(50):
        cooperative = grim_pd_scenario(
            epsilon=0.0, delta=0.55, horizon=100, replicas=1, seed=seed, deviator=True
        )
        trace = run_replica(cooperative, 0)
        assert trace.defects.shape == (1, 100, 2) and not trace.defects.any()
    for seed in range(50):
        defecting = grim_pd_scenario(
            epsilon=0.0, delta=0.45, horizon=100, replicas=1, seed=seed, deviator=True
        )
        trace = run_replica(defecting, 0)
        assert trace.defects[0, 0, 1]
    _pass(2, "delta* = 0.5; deviator cooperates at delta 0.55 and defects at 0.45 "
             "across 50 seeds each")


def test_c03_defection_condition_bridge():
    value = effective_coop_value(1.0, 0.9, 0.1, post_mutation_value=0.0)
    assert abs(value - 4.263158) <= 1e-6
    # Analytic flip point for the PD at fixed delta: the continuation
    # c*(x/(1-x)) with x = delta*(1-eps) crosses the one-shot gain g at
    # x = g/(c+g), i.e. eps* = 1 - g / (delta*(c+g)).
    game = NormalFormGame.from_profile_map(PD_TABLE)
    delta = 0.9
    gain = 5.0 - 3.0
    net_coop = 3.0 - 1.0
    eps_star = 1.0 - (gain / (net_coop + gain)) / delta
    step = 0.005
    grid = np.arange(0.0, 1.0, step)
    verdicts = [grim_cooperation_verdict(game, delta, float(e)).holds for e in grid]
    flips = [i for i in range(1, len(verdicts)) if verdicts[i - 1] and not verdicts[i]]
    assert len(flips) == 1
    eps_flip = grid[flips[0]]
    assert abs(eps_flip - eps_star) <= step
    _pass(3, f"effective continuation 4.263158 reproduced; verdict flips at "
             f"eps {eps_flip:.3f} within one grid step of analytic {eps_star:.6f}")


def test_c04_mutation_shortens_cooperation():
    replicas = 200
    horizon = 200
    stats = {}
    for eps in (0.0, 0.05, 0.2):
        scenario = grim_pd_scenario(
            epsilon=eps, delta=0.9, horizon=horizon, replicas=replicas, seed=1234,
            trigger_on_mutation=True,
        )
        summary, batch = run_batch(scenario)
        durations = batch.cooperation_duration.astype(float)
        half_width = (
            1.96 * durations.std(ddof=1) / math.sqrt(replicas)
            if durations.std(ddof=1) > 0 else 0.0
        )
        stats[eps] = (durations.mean(), half_width, summary.spiral_frequency)
    means = {eps: stats[eps][0] for eps in stats}
    assert means[0.0] > means[0.05] > means[0.2]
    low_edge = stats[0.0][0] - stats[0.0][1]
    high_edge = stats[0.2][0] + stats[0.2][1]
    assert low_edge > high_edge  # non-overlapping 95% CIs
    assert stats[0.0][2] == 0.0
    assert stats[0.2][2] >= 0.9
    _pass(4, f"mean cooperation duration {means[0.0]:.1f} > {means[0.05]:.1f} > "
             f"{means[0.2]:.1f} with separated CIs; spiral frequency "
             f"{stats[0.0][2]:.2f} at eps=0 and {stats[0.2][2]:.2f} at eps=0.2")


def test_c05_nash_oracle_equivalence():
    for n in (2, 3, 4):
        rng = np.random.default_rng(900 + n)
        for _ in range(200):
            profile_map = random_profile_map(rng, n)
            game = NormalFormGame.from_profile_map(profile_map)
            found = set(pure_nash(game))
            assert found == nash_oracle(profile_map)
    _pass(5, "pure Nash sets equal the exhaustive oracle on 200 games "
             "for each n in {2, 3, 4}")


def test_c06_endogenous_discount_path():
    noise = NoisePath(baseline_rate=0.05, segments=((0, 0.0), (5, 0.10)))
    path = endogenous_discount_path(noise, 10)
    assert abs(path[10] - math.exp(-1.0)) <= 1e-12
    rng = np.random.default_rng(60)
    tested = [noise, NoisePath.constant(0.0), NoisePath.constant(0.07)]
    for _ in range(20):
        starts = sorted(set(int(s) for s in rng.integers(1, 40, size=3)))
        segments = ((0, float(rng.uniform(0, 0.3))),) + tuple(
            (s, float(rng.uniform(0, 0.3))) for s in starts
        )
        tested.append(NoisePath(baseline_rate=float(rng.uniform(0, 0.1)),
                                segments=segments))
    for candidate in tested:
        values = endogenous_discount_path(candidate, 50)
        assert values[0] == 1.0
        assert np.all(np.diff(values) <= 1e-15)
    _pass(6, "piecewise path gives delta(10) = exp(-1) within 1e-12 and every "
             "tested path is nonincreasing")


def test_c07_npv_oracle_and_breakeven():
    plan = InvestmentPlan(250.0, (100.0, 100.0, 100.0))
    base_noise = NoisePath.constant(0.05)
    assert abs(npv(plan, base_noise) - 22.3248) <= 1e-4
    assert npv(plan, NoisePath.constant(0.05, eta=0.05)) < npv(plan, base_noise)
    assert breakeven_horizon(100.0, 250.0, base_noise, 100) == 3
    previous = 0.0
    for eta in (0.0, 0.02, 0.05, 0.1, 0.2):
        horizon = breakeven_horizon(
            100.0, 250.0, NoisePath.constant(0.05, eta=eta), 1000
        )
        value = math.inf if horizon is None else horizon
        assert value >= previous
        previous = value
    _pass(7, "NPV oracle 22.3248 reproduced; NPV falls and breakeven weakly "
             "rises under institutional noise")


def test_c08_risk_adjustment_properties():
    rng = np.random.default_rng(80)
    for _ in range(100):
        rounds = int(rng.integers(1, 10))
        samples = [list(rng.normal(size=int(rng.integers(1, 7)))) for _ in range(rounds)]
        means = [float(np.asarray(s, dtype=float).mean()) for s in samples]
        delta = float(rng.uniform(0.05, 0.99))
        assert risk_adjusted_utility(samples, delta, 0.0) == discounted_utility(means, delta)
    for _ in range(100):
        rounds = int(rng.integers(1, 10))
        samples = [list(rng.normal(size=int(rng.integers(2, 7)))) for _ in range(rounds)]
        while all(np.asarray(s).std() == 0.0 for s in samples):  # pragma: no cover
            samples = [list(rng.normal(size=3)) for _ in range(rounds)]
        means = [float(np.asarray(s, dtype=float).mean()) for s in samples]
        delta = float(rng.uniform(0.05, 0.99))
        eta = float(rng.uniform(0.01, 4.0))
        assert risk_adjusted_utility(samples, delta, eta) < discounted_utility(means, delta)
    _pass(8, "eta = 0 leaves utility exactly unchanged on 100 sample sets; any "
             "positive aversion with nonzero variance strictly lowers it")


def test_c09_protocol_dynamics():
    scenario = Scenario(
        miners=(Miner(0.5, StrategyKind(StrategyTag.HONEST)),) * 2,
        game=pd_game(3),
        kernel=TransitionKernel(np.eye(3)),
        initial_state=1,
        horizon=100,
        delta=0.9,
        replica_count=10,
        master_seed=3,
    )
    _, batch = run_batch(scenario)
    assert batch.states.tolist() == [[1] * 100] * 10
    uniform = TransitionKernel(np.full((4, 4), 0.25))
    assert abs(kernel_entropy(uniform).value - math.log(4)) <= 1e-12
    assert integrity(TransitionKernel(np.eye(5))) == 1.0
    rng = np.random.default_rng(90)
    for _ in range(100):
        k = int(rng.integers(2, 6))
        raw = rng.random((k, k)) + 0.05
        matrix = raw / raw.sum(axis=1, keepdims=True)
        perturbed = matrix.copy()
        p = int(rng.integers(k))
        q = (p + 1 + int(rng.integers(k - 1))) % k
        shift = perturbed[p, p] * float(rng.random())
        perturbed[p, p] -= shift
        perturbed[p, q] += shift
        assert integrity(TransitionKernel(perturbed)) <= integrity(TransitionKernel(matrix)) + 1e-15
    _pass(9, "identity kernel keeps every trace state-constant; entropy(uniform 4) "
             "= ln 4; integrity is 1 at identity and antitone under mutation mass")


def test_c10_cli_determinism_across_runs(tmp_path):
    scenario_paths = []
    for preset in ("fixed_rules", "mutable_core"):
        scenario_path = tmp_path / f"{preset}.yaml"
        subprocess.run(
            [sys.executable, "-m", "mutagame.cli", "preset", preset,
             "--out", str(scenario_path)],
            check=True, capture_output=True,
        )
        scenario_paths.append(scenario_path)
    # Three draws per round: the protocol step, theta's ziggurat normal and
    # the lottery uniform.
    doc = yaml.safe_load(scenario_paths[0].read_text(encoding="utf-8"))
    doc["game"]["lottery_mode"] = True
    doc["theta"] = {"mean": 1.0, "variance": 0.04}
    scenario_paths.append(tmp_path / "fixed_rules_lottery_theta.yaml")
    scenario_paths[-1].write_text(yaml.safe_dump(doc), encoding="utf-8")
    for scenario_path in scenario_paths:
        outputs = []
        for run_index in range(3):
            out_dir = tmp_path / f"{scenario_path.stem}_{run_index}"
            result = subprocess.run(
                [sys.executable, "-m", "mutagame.cli", "run", str(scenario_path),
                 "--seed", "42", "--out", str(out_dir)],
                capture_output=True,
            )
            assert result.returncode == 0, result.stderr.decode()
            outputs.append(
                (
                    (out_dir / "trace.csv").read_bytes(),
                    (out_dir / "summary.json").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1] == outputs[2]
    _pass(10, "both presets and fixed_rules with lottery and theta produce "
              "byte-identical trace.csv and summary.json across three repeated runs")


def test_c11_meta_game_conservation():
    rng = np.random.default_rng(110)
    count = 0
    for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
        for exponent in (0.5, 1.0, 2.0, 3.0):
            for budget in np.linspace(0.0, 1.0, 26):
                raw = rng.random(5) + 1e-3
                row = raw / raw.sum()
                investors = [(float(budget), 0, 0.55), (float(budget) * 0.5, 3, 0.45)]
                scenario = contest_scenario(np.stack([np.roll(row, i) for i in range(5)]),
                                            investors, influence_strength=beta,
                                            contest_exponent=exponent)
                adjusted = kernel_as_run(scenario).matrix
                count += 1
                assert np.all(np.abs(adjusted.sum(axis=1) - 1.0) <= 1e-12)
    assert count >= 500
    row = [0.1, 0.2, 0.3, 0.4]
    frozen = contest_scenario([row] * 4, [(0.9, 2, 1.0)], influence_strength=0.0)
    assert kernel_as_run(frozen).matrix.tobytes() == np.array([row] * 4).tobytes()
    symmetric = contest_scenario([[0.5, 0.5]] * 2, [(0.6, 0, 0.5), (0.6, 1, 0.5)],
                                 influence_strength=0.8)
    assert np.all(np.abs(kernel_as_run(symmetric).matrix - 0.5) <= 1e-12)
    _pass(11, f"row sums conserved within 1e-12 over {count} grid points; beta = 0 "
              "is bit-identical; the symmetric contest fixes the symmetric row")
