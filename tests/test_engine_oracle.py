"""The replica-vectorized batch engine against the scalar reference engine.

Random scenarios cover every strategy tag, one to four miners, one to three
protocol states, horizons and replica counts down to 1, and the meta game,
noise path, theta (clamped or not) and lottery switched on and off. Traces
and summaries are compared through ``repr``, so floats must agree bit for
bit, down to the sign of a zero.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import scalar_replica, scalar_summary

from mutagame import (
    MetaModelConfig,
    Miner,
    NoisePath,
    Scenario,
    StageGameSpec,
    StrategyKind,
    StrategyTag,
    ThetaProcess,
    TransitionKernel,
    run_batch,
    run_replica,
)


def random_kernel(rng, k):
    raw = rng.random((k, k)) * (rng.random((k, k)) < 0.7)
    raw[raw.sum(axis=1) == 0.0, 0] = 1.0
    return TransitionKernel(raw / raw.sum(axis=1, keepdims=True))


@st.composite
def scenarios(draw):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    strategies = []
    for tag in draw(st.lists(st.sampled_from(list(StrategyTag)), min_size=n, max_size=n)):
        if tag is StrategyTag.META_INVESTOR:
            strategies.append(StrategyKind.meta_investor(
                draw(st.sampled_from([0.0, 0.25, 1.0])), draw(st.integers(0, k - 1))
            ))
        else:
            strategies.append(StrategyKind(tag))
    weights = draw(
        st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(lambda w: sum(w) > 0)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Quarter steps in [-3, 5]: negative entries turn zero scalings into -0.0.
    tables = [rng.integers(-12, 21, size=(2,) * n + (n,)) / 4.0 for _ in range(k)]
    kernel = random_kernel(rng, k) if draw(st.booleans()) else TransitionKernel.identity(k)
    theta = None
    if draw(st.booleans()):
        theta = ThetaProcess(
            mean=draw(st.sampled_from([-0.5, 0.0, 1.0])),
            variance=draw(st.sampled_from([0.0, 0.04, 1.0])),
            clamp=draw(st.booleans()),
        )
    noise = None
    if draw(st.booleans()):
        noise = NoisePath(baseline_rate=0.05, segments=((0, 0.0), (3, 0.1)))
    return Scenario(
        miners=tuple(Miner(w / sum(weights), s) for w, s in zip(weights, strategies)),
        game=StageGameSpec(
            [f"s{i}" for i in range(k)], tables, lottery_mode=draw(st.booleans())
        ),
        kernel=kernel,
        initial_state=draw(st.integers(0, k - 1)),
        horizon=draw(st.integers(1, 25)),
        delta=draw(st.sampled_from([0.3, 0.5, 0.9])),
        risk_aversion=draw(st.sampled_from([0.0, 0.5])),
        meta=MetaModelConfig(
            enabled=draw(st.booleans()),
            influence_strength=draw(st.sampled_from([0.0, 0.3, 1.0])),
            contest_exponent=draw(st.sampled_from([0.5, 1.0, 2.0])),
        ),
        replica_count=draw(st.integers(1, 5)),
        master_seed=draw(st.integers(0, 1000)),
        trigger_on_mutation=draw(st.booleans()),
        noise=noise,
        theta=theta,
        spiral_threshold=draw(st.sampled_from([0.3, 0.5, 0.75])),
    )


@settings(max_examples=200, deadline=None, database=None)
@given(scenarios())
def test_batch_engine_matches_scalar_oracle(scenario):
    summary, batch = run_batch(scenario)
    expected = [scalar_replica(scenario, i) for i in range(scenario.replica_count)]
    assert len(batch) == len(expected)
    for got, want in zip(batch, expected):
        assert [r.state for r in got.records] == [r.state for r in want.records]
        assert [r.profile for r in got.records] == [r.profile for r in want.records]
        assert [r.lottery_winner for r in got.records] == [
            r.lottery_winner for r in want.records
        ]
        assert repr([r.payoffs for r in got.records]) == repr(
            [r.payoffs for r in want.records]
        )
        assert repr([r.theta for r in got.records]) == repr([r.theta for r in want.records])
        assert repr(got) == repr(want)
    assert repr(summary) == repr(scalar_summary(scenario, expected))
    last = scenario.replica_count - 1
    assert repr(run_replica(scenario, last)) == repr(expected[last])
