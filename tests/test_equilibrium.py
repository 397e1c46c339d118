"""Equilibrium toolkit: Nash enumeration vs a brute-force oracle, grim
thresholds, the cooperation predicate, and mutation-adjusted continuation."""

import itertools

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from mutagame import (
    CapacityError,
    ConfigurationError,
    CooperationCondition,
    NormalFormGame,
    effective_coop_value,
    grim_cooperation_verdict,
    grim_trigger_threshold,
    mixed_nash_2x2,
    pure_nash,
)
from mutagame.cli import main
from mutagame.presets import FIXED_RULES

# Independent exhaustive oracle lives in oracles.py, written against the
# dict representation before the module under test was consulted.
import oracles  # noqa: E402
from oracles import nash_oracle, random_profile_map, reference_pure_nash  # noqa: E402


PD = {"CC": [3.0, 3.0], "CD": [0.0, 5.0], "DC": [5.0, 0.0], "DD": [1.0, 1.0]}
MATCHING_PENNIES = {"CC": [1.0, -1.0], "CD": [-1.0, 1.0], "DC": [-1.0, 1.0], "DD": [1.0, -1.0]}


@settings(max_examples=150, deadline=None, database=None)
@given(st.integers(1, 10), st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 1000]))
def test_pure_nash_matches_the_numpy_reference(n, seed, levels):
    # Payoffs on a few levels tie often, and a tie keeps a profile Nash.
    payoffs = np.random.default_rng(seed).integers(0, levels, (2,) * n + (n,)).astype(float)
    game = NormalFormGame(payoffs)
    assert pure_nash(game) == reference_pure_nash(game)


def test_pure_nash_pd_dominant_defection():
    assert pure_nash(NormalFormGame.from_profile_map(PD)) == ["DD"]


def test_pure_nash_matching_pennies_empty():
    assert pure_nash(NormalFormGame.from_profile_map(MATCHING_PENNIES)) == []


def test_pure_nash_results_are_lexicographic():
    # Degenerate games where every profile is an equilibrium.
    for n in (1, 2, 3):
        keys = ["".join(p) for p in itertools.product("CD", repeat=n)]
        flat = {key: [0.0] * n for key in reversed(keys)}
        assert pure_nash(NormalFormGame.from_profile_map(flat)) == keys == sorted(keys)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pure_nash_matches_oracle(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(60):
        profile_map = random_profile_map(rng, n)
        game = NormalFormGame.from_profile_map(profile_map)
        nash = pure_nash(game)
        assert nash == sorted(nash) and set(nash) == nash_oracle(profile_map)


def test_pure_nash_capacity_limit():
    # A NormalFormGame of 21 players with no payoffs read: its 44 million
    # entries are never needed to refuse it.
    too_big = NormalFormGame.__new__(NormalFormGame)
    too_big.n = 21
    with pytest.raises(CapacityError):
        pure_nash(too_big)


def test_grim_threshold_pd():
    threshold = grim_trigger_threshold(NormalFormGame.from_profile_map(PD))
    assert threshold.delta_star == pytest.approx(0.5)
    assert not threshold.always_sustainable and not threshold.never_sustainable


def test_grim_threshold_no_temptation():
    game = NormalFormGame.from_profile_map(
        {"CC": [3.0, 3.0], "CD": [1.0, 3.0], "DC": [3.0, 1.0], "DD": [2.0, 2.0]}
    )
    threshold = grim_trigger_threshold(game)
    assert threshold.always_sustainable
    assert threshold.delta_star is None


def test_grim_threshold_toothless_punishment():
    game = NormalFormGame.from_profile_map(
        {"CC": [3.0, 3.0], "CD": [0.0, 5.0], "DC": [5.0, 0.0], "DD": [3.0, 3.0]}
    )
    threshold = grim_trigger_threshold(game)
    assert threshold.never_sustainable
    assert threshold.delta_star is None


def test_grim_threshold_reports_binding_player():
    # Player 1 has the higher temptation, so it binds the max.
    game = NormalFormGame.from_profile_map(
        {"CC": [3.0, 3.0], "CD": [0.0, 9.0], "DC": [5.0, 0.0], "DD": [1.0, 1.0]}
    )
    threshold = grim_trigger_threshold(game)
    assert threshold.delta_star == pytest.approx(max(0.5, (9 - 3) / (9 - 1)))
    stars = [s.delta_star for s in threshold.per_player]
    assert stars == [pytest.approx(0.5), pytest.approx(0.75)]


def test_cooperation_condition_arithmetic():
    # The continuation is delta * E[coop]: 0.9 * 10, 0.4 * 10 and 0.5 * 10.
    assert CooperationCondition(0.9, 9.0, 5.0).holds
    assert not CooperationCondition(0.4, 4.0, 5.0).holds
    # exact tie kept cooperative
    assert CooperationCondition(0.5, 5.0, 5.0).holds
    assert CooperationCondition(0.5, 5.0, 5.0).expected_coop == 10.0


def test_cooperation_condition_rejects_non_finite():
    game = NormalFormGame.from_profile_map(PD)
    with pytest.raises(ConfigurationError):
        grim_cooperation_verdict(game, float("nan"), 0.0)
    with pytest.raises(ConfigurationError):
        grim_cooperation_verdict(game, 0.9, 0.0, post_mutation_value=float("nan"))
    with pytest.raises(ConfigurationError, match="^post_mutation_value: expected a finite number"):
        grim_cooperation_verdict(game, 0.9, 0.0, post_mutation_value="0")


# A 7-value grid, so that T = R, R = P and equal margins across players occur.
PAYOFF_GRID = (-2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 5.0)


@st.composite
def small_games(draw):
    n = draw(st.integers(1, 4))
    keys = ["".join(p) for p in itertools.product("CD", repeat=n)]
    values = st.lists(st.sampled_from(PAYOFF_GRID), min_size=n, max_size=n)
    return NormalFormGame.from_profile_map({key: draw(values) for key in keys})


THRESHOLD_FIELDS = ("delta_star", "always_sustainable", "never_sustainable")
PLAYER_FIELDS = ("player", "temptation", "reward", "punishment", *THRESHOLD_FIELDS)
VERDICT_FIELDS = ("delta", "expected_coop", "defect_now", "holds")


def _fields(record, names):
    return repr([getattr(record, name) for name in names])


@settings(max_examples=400, deadline=None, database=None)
@given(
    small_games(),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
    st.one_of(st.sampled_from(PAYOFF_GRID), st.floats(-10.0, 10.0)),
)
def test_records_match_the_stored_verdicts_of_0_8_0(game, delta, epsilon, post):
    # oracles.py keeps 0.8.0's records, which stored every verdict; the
    # records now derive them, and every field they expose reads the same.
    threshold, reference = grim_trigger_threshold(game), oracles.grim_trigger_threshold(game)
    assert _fields(threshold, THRESHOLD_FIELDS) == _fields(reference, THRESHOLD_FIELDS)
    assert len(threshold.per_player) == len(reference.per_player) == game.n
    for status, expected in zip(threshold.per_player, reference.per_player):
        assert _fields(status, PLAYER_FIELDS) == _fields(expected, PLAYER_FIELDS)
    verdict = grim_cooperation_verdict(game, delta, epsilon, post)
    expected = oracles.grim_cooperation_verdict(game, delta, epsilon, post)
    assert _fields(verdict, VERDICT_FIELDS) == _fields(expected, VERDICT_FIELDS)
    assert verdict.holds == (verdict.continuation >= verdict.defect_now)


def test_overflowing_payoff_differences_are_refused():
    # T - P = 1.7e308 + 1e308 overflows, and delta_star read 0.0 where it is
    # 0.7 / 2.7; R - P and T - R overflow for the other tables.
    table = {"CC": [1.0e308, 1.0e308], "CD": [-1.0e308, 1.7e308],
             "DC": [1.7e308, -1.0e308], "DD": [-1.0e308, -1.0e308]}
    for game in (table, {**table, "DD": [-1.0e308, 1.0e308], "CC": [1.0e308, -1.0e308]},
                 {**table, "CC": [-1.0e308, 1.0e308], "CD": [1.0e308, 1.7e308],
                  "DC": [1.7e308, 1.0e308], "DD": [-1.7e308, -1.7e308]}):
        with pytest.raises(CapacityError, match="overflow float64"):
            grim_trigger_threshold(NormalFormGame.from_profile_map(game))


def test_overflowing_continuation_is_refused():
    # T - R, R - P and T - P are finite; the continuation of R - P at a
    # delta one ulp below 1 is not.
    game = NormalFormGame.from_profile_map(
        {"CC": [1e300, 1e300], "CD": [0.0, 2e300], "DC": [2e300, 0.0], "DD": [0.0, 0.0]}
    )
    assert grim_trigger_threshold(game).delta_star == 0.5
    with pytest.raises(CapacityError, match="overflow float64"):
        grim_cooperation_verdict(game, 0.9999999999999999, 0.0)


def test_effective_coop_value_closed_forms():
    assert effective_coop_value(1.0, 0.9, 0.0) == pytest.approx(9.0, rel=1e-12)
    assert effective_coop_value(1.0, 0.9, 1.0, post_mutation_value=0.0) == 0.0
    assert effective_coop_value(1.0, 0.9, 0.1) == pytest.approx(4.263158, abs=1e-6)


def test_effective_coop_value_vs_series_oracle():
    # Brute-force partial sums of both geometric series.
    delta, eps, coop, post = 0.85, 0.07, 1.3, 0.4
    series = sum(
        delta ** t * (1 - eps) ** t * coop
        + post * delta ** t * (1 - eps) ** (t - 1) * eps
        for t in range(1, 4000)
    )
    assert effective_coop_value(coop, delta, eps, post) == pytest.approx(series, rel=1e-10)


def test_effective_coop_value_decreasing_in_epsilon():
    delta, coop = 0.9, 1.0
    post = 0.0  # post-mutation value below coop/(1-delta)
    values = [effective_coop_value(coop, delta, eps, post) for eps in np.linspace(0, 1, 21)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_effective_coop_value_epsilon_bounds():
    with pytest.raises(ConfigurationError):
        effective_coop_value(1.0, 0.9, -0.1)
    with pytest.raises(ConfigurationError):
        effective_coop_value(1.0, 0.9, 1.1)
    # A non-number raised TypeError up to 0.17.0.
    for arguments, message in [
        ((1.0, 0.9, "x"), "epsilon: expected a finite number, got 'x'"),
        (("1", 0.9, 0.1), "stage_coop_payoff: expected a number, got '1'"),
        ((1.0, 0.9, 0.1, "0"), "post_mutation_value: expected a finite number, got '0'"),
        ((1.0, "0.9", 0.1), "discount factor: expected a finite number, got '0.9'"),
        ((1.0, 0.9, 1.5), "epsilon: must be in [0, 1], got 1.5"),
        ((1.0, 1.0, 0.1), "discount factor: must be strictly inside (0, 1), got 1.0"),
    ]:
        with pytest.raises(ConfigurationError) as excinfo:
            effective_coop_value(*arguments)
        assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "temptation,reward,punishment",
    [(5.0, 3.0, 1.0), (4.0, 3.0, 0.0), (6.0, 2.0, 1.0), (10.0, 9.0, 0.0)],
)
def test_verdict_flips_exactly_at_grim_threshold(temptation, reward, punishment):
    game = NormalFormGame.from_profile_map(
        {
            "CC": [reward, reward],
            "CD": [0.0, temptation],
            "DC": [temptation, 0.0],
            "DD": [punishment, punishment],
        }
    )
    delta_star = grim_trigger_threshold(game).delta_star
    assert 0.0 < delta_star < 1.0
    above = grim_cooperation_verdict(game, delta_star + 0.01, epsilon=0.0)
    below = grim_cooperation_verdict(game, delta_star - 0.01, epsilon=0.0)
    assert above.holds
    assert not below.holds


def test_exact_tie_holds_in_the_verdict_and_in_analyze(tmp_path, capsys):
    # T - R equals the continuation value exactly, but delta * (value /
    # delta) rounds one ulp below it, so holds compares the continuation
    # itself. Ties are cooperative.
    temptation = 4.615384615384615
    table = {"CC": [3.0, 3.0], "CD": [0.0, temptation], "DC": [temptation, 0.0],
             "DD": [0.0, 0.0]}
    assert effective_coop_value(3.0, 0.35, 0.0) == temptation - 3.0
    verdict = grim_cooperation_verdict(NormalFormGame.from_profile_map(table), 0.35, 0.0)
    assert verdict.continuation == verdict.defect_now == temptation - 3.0
    assert verdict.delta * verdict.expected_coop < verdict.defect_now
    assert verdict.holds and verdict.delta == 0.35
    doc = yaml.safe_load(FIXED_RULES)
    doc["discount"]["delta"] = 0.35
    doc["game"]["payoffs"]["baseline"] = table
    path = tmp_path / "tie.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert ": holds (delta*E[coop]=1.615385 vs defect=1.615385)" in out
    assert "overall cooperation condition: holds" in out


def test_mixed_2x2_matching_pennies():
    mixed = mixed_nash_2x2(NormalFormGame.from_profile_map(MATCHING_PENNIES))
    assert mixed == [(0.5, 0.5)]


def test_mixed_2x2_pd_has_none():
    assert mixed_nash_2x2(NormalFormGame.from_profile_map(PD)) == []


def test_mixed_2x2_rejects_other_sizes():
    flat = {"".join(p): [0.0] * 3 for p in itertools.product("CD", repeat=3)}
    with pytest.raises(ConfigurationError):
        mixed_nash_2x2(NormalFormGame.from_profile_map(flat))


def test_operations_are_pure():
    game = NormalFormGame.from_profile_map(PD)
    assert pure_nash(game) == pure_nash(game)
    assert grim_trigger_threshold(game) == grim_trigger_threshold(game)
    assert effective_coop_value(1.0, 0.9, 0.1) == effective_coop_value(1.0, 0.9, 0.1)
