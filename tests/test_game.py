"""Stage game: payoff tables and shares, plus the scalar reference's payoff
lookups, block lottery and strategy resolution (``tests/oracles.py``)."""

import copy
import itertools
import pickle
import re

import numpy as np
import pytest
from oracles import Action, PlayHistory, block_lottery, resolve_actions, stage_payoffs

from mutagame import (
    ConfigurationError,
    NormalFormGame,
    StageGameSpec,
    StrategyKind,
    StrategyTag,
    validate_shares,
)

C = Action.COOPERATE
D = Action.DEFECT
HONEST = StrategyKind(StrategyTag.HONEST)
GRIM = StrategyKind(StrategyTag.GRIM_TRIGGER)
TIT_FOR_TAT = StrategyKind(StrategyTag.TIT_FOR_TAT)
ALWAYS_DEFECT = StrategyKind(StrategyTag.ALWAYS_DEFECT)
MYOPIC = StrategyKind(StrategyTag.MYOPIC_BEST_RESPONSE)

PD_TABLE = {"CC": [3.0, 3.0], "CD": [0.0, 5.0], "DC": [5.0, 0.0], "DD": [1.0, 1.0]}


def pd_game(lottery_mode=False):
    return StageGameSpec.from_profile_maps(["s0"], {"s0": PD_TABLE}, lottery_mode)


# Independent table-generation oracle: payoff(i) = 2 * coop_count - 3 * [i defected].
def formula_payoffs(profile: str) -> list[float]:
    coop_count = profile.count("C")
    return [2.0 * coop_count - (3.0 if a == "D" else 0.0) for a in profile]


def test_stage_payoffs_pd_lookup():
    game = pd_game()
    assert list(stage_payoffs(game, 0, [C, D])) == [0.0, 5.0]
    assert list(stage_payoffs(game, 0, [D, C])) == [5.0, 0.0]
    assert list(stage_payoffs(game, 0, [C, C])) == [3.0, 3.0]


def test_stage_payoffs_single_miner():
    game = StageGameSpec.from_profile_maps(["only"], {"only": {"C": [7.0], "D": [2.0]}})
    assert list(stage_payoffs(game, 0, [C])) == [7.0]
    assert list(stage_payoffs(game, 0, [D])) == [2.0]


def test_stage_payoffs_matches_formula_oracle():
    table = {
        "".join(p): formula_payoffs("".join(p))
        for p in itertools.product("CD", repeat=3)
    }
    game = StageGameSpec.from_profile_maps(["s0"], {"s0": table})
    rng = np.random.default_rng(11)
    for _ in range(50):
        key = "".join(rng.choice(["C", "D"]) for _ in range(3))
        profile = [Action(ch) for ch in key]
        assert list(stage_payoffs(game, 0, profile)) == formula_payoffs(key)


def test_stage_payoffs_is_pure():
    game = pd_game()
    first = stage_payoffs(game, 0, [C, D])
    second = stage_payoffs(game, 0, [C, D])
    assert np.array_equal(first, second)
    first[0] = 99.0  # returned vector is a copy
    assert list(stage_payoffs(game, 0, [C, D])) == [0.0, 5.0]


def test_stage_payoffs_bad_inputs():
    game = pd_game()
    with pytest.raises(ConfigurationError):
        stage_payoffs(game, 1, [C, C])
    with pytest.raises(ConfigurationError):
        stage_payoffs(game, 0, [C, C, C])


def test_table_validation():
    with pytest.raises(ConfigurationError):
        StageGameSpec.from_profile_maps(["s0"], {"s0": {"CC": [3.0, 3.0]}})
    with pytest.raises(ConfigurationError):
        StageGameSpec.from_profile_maps(
            ["s0"], {"s0": {**PD_TABLE, "CC": [3.0]}}
        )
    with pytest.raises(ConfigurationError):
        StageGameSpec.from_profile_maps(
            ["s0"], {"s0": {**PD_TABLE, "CC": [np.inf, 3.0]}}
        )
    # Up to 0.17.0, lottery_mode="no" read as True, a label of any kind was
    # kept, and a game that is not a NormalFormGame raised AttributeError.
    game = NormalFormGame.from_profile_map(PD_TABLE)
    for arguments, message in [
        ((["s0"], [game], "no"), "lottery_mode: expected a boolean, got 'no'"),
        ((["s0"], [game], 1), "lottery_mode: expected a boolean, got 1"),
        (([""], [game]), "state label: expected a non-empty string, got ''"),
        (([5], [game]), "state label: expected a non-empty string, got 5"),
        ((["s0", ["s1"]], [game, game]), "state label: expected a non-empty string, got ['s1']"),
        ((["s0"], [[[3.0, 3.0]]]),
         "payoff table for state 's0': expected a NormalFormGame, got [[3.0, 3.0]]"),
        # This and each from_profile_maps case below raised TypeError up to 0.19.0.
        ((5, []), "state labels: expected a sequence, got 5"),
    ]:
        with pytest.raises(ConfigurationError) as excinfo:
            StageGameSpec(*arguments)
        assert str(excinfo.value) == message
    for arguments, message in [
        ((["a"], 5), "payoffs by state: expected a Mapping, got 5"),
        ((["a"], {"a": 5}), "state 'a': profiles: expected a Mapping, got 5"),
        # Each raised TypeError up to 0.20.0: a label was hashed before it was read.
        ((5, {}), "state labels: expected a sequence, got 5"),
        (([["a"]], {}), "state label: expected a non-empty string, got ['a']"),
    ]:
        with pytest.raises(ConfigurationError) as excinfo:
            StageGameSpec.from_profile_maps(*arguments)
        assert str(excinfo.value) == message


@pytest.mark.parametrize("profiles, state, message", [
    ({11: [1.0, 1.0]}, None, "bad profile key 11, not a string"),
    ({**PD_TABLE, ("C", "D"): [0.0, 5.0]}, "s0", "state 's0': bad profile key ('C', 'D'), not a string"),
    ({"C": 5, "D": 6}, None, "profile 'C': expected a sequence, got 5"),
    ({**PD_TABLE, "DD": 1.0}, "s0", "state 's0', profile 'DD': expected a sequence, got 1.0"),
    ({"C": [1.0], "D": np.array(2.0)}, None, "profile 'D': expected a sequence, got array(2.)"),
    ({**PD_TABLE, "DD": [1.0]}, "s0", "state 's0', profile 'DD': must be of length 2, got [1.0]"),
    ({"CX": [1.0, 1.0]}, None, "bad profile key 'CX' for 2 miners"),
    (5, None, "profiles: expected a Mapping, got 5"),  # TypeError up to 0.19.0
    (PD_TABLE, 5, "state: expected a non-empty string, got 5"),  # kept up to 0.20.0
])
def test_profile_map_refuses_bad_keys_and_values(profiles, state, message):
    # A non-string key and a payoff value with no length escaped as
    # TypeError from len(); each is refused, naming the key.
    with pytest.raises(ConfigurationError) as caught:
        NormalFormGame.from_profile_map(profiles, state)
    assert str(caught.value) == message


def test_profile_map_and_tensor_read_the_same_entries():
    rng = np.random.default_rng(25)
    for n in (1, 2, 3, 5):
        tensor = rng.normal(size=(2,) * n + (n,))
        rows = tensor.reshape(2**n, n)
        keys = ["".join(key) for key in itertools.product("CD", repeat=n)]
        order = rng.permutation(2**n).tolist()  # the map's order is not the masks'
        for values_of in (lambda m: rows[m].tolist(), lambda m: tuple(rows[m]), lambda m: rows[m]):
            game = NormalFormGame.from_profile_map({keys[m]: values_of(m) for m in order})
            assert game.n == n and game.tensor.tobytes() == NormalFormGame(tensor).tensor.tobytes()
            assert game.tensor.shape == tensor.shape


def test_stage_game_survives_pickle_and_deepcopy():
    game = pd_game(lottery_mode=True)
    for clone in (pickle.loads(pickle.dumps(game)), copy.deepcopy(game)):
        assert clone.state_labels == ("s0",) and clone.lottery_mode is True
        assert len(clone) == 1 and np.array_equal(clone[0].tensor, game[0].tensor)


def test_share_validation():
    validate_shares([0.5, 0.5])
    validate_shares([1.0])
    with pytest.raises(ConfigurationError):
        validate_shares([0.6, 0.5])
    with pytest.raises(ConfigurationError):
        validate_shares([1.2, -0.2])
    with pytest.raises(ConfigurationError):
        validate_shares([])
    # Up to 0.19.0 a non-sequence or a text share raised TypeError, and a
    # bool share was read as a number.
    for shares, message in [
        (5, "hash shares: expected a sequence, got 5"),
        ([True], "hash share 0: expected a finite number, got True"),
        ([0.5, "0.5"], "hash share 1: expected a finite number, got '0.5'"),
        ([1.5, -0.5], "hash share 0: must be in [0, 1], got 1.5"),
    ]:
        with pytest.raises(ConfigurationError) as excinfo:
            validate_shares(shares)
        assert str(excinfo.value) == message
    # off by more than the tolerance
    with pytest.raises(ConfigurationError):
        validate_shares([0.5, 0.5 + 1e-9])
    # summed left to right on every Python: a compensated sum, as builtin
    # sum() is from 3.12 on, would report 1.2
    with pytest.raises(ConfigurationError, match=re.escape(
            "hash shares sum to 1.2000000000000002, must equal 1 within 1e-12")):
        validate_shares([0.1, 0.2, 0.3, 0.6])


def test_block_lottery_single_miner():
    rng = np.random.default_rng(0)
    assert all(block_lottery([1.0], rng) == 0 for _ in range(100))


def test_block_lottery_point_mass():
    rng = np.random.default_rng(0)
    assert all(block_lottery([0.0, 1.0, 0.0], rng) == 1 for _ in range(100))


def test_block_lottery_even_split_frequencies():
    rng = np.random.default_rng(42)
    draws = 100_000
    wins = sum(block_lottery([0.5, 0.5], rng) == 0 for _ in range(draws))
    assert 0.49 <= wins / draws <= 0.51  # binomial 3 sigma ~ 0.0047


def test_block_lottery_three_way_frequencies():
    shares = [0.2, 0.3, 0.5]
    rng = np.random.default_rng(7)
    draws = 100_000
    counts = np.zeros(3)
    for _ in range(draws):
        counts[block_lottery(shares, rng)] += 1
    freqs = counts / draws
    for share, freq in zip(shares, freqs):
        sigma = np.sqrt(share * (1 - share) / draws)
        assert abs(freq - share) <= 3 * sigma


def test_block_lottery_rejects_unnormalized():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigurationError):
        block_lottery([0.4, 0.4], rng)


def test_block_lottery_consumes_one_draw():
    rng1 = np.random.default_rng(3)
    rng2 = np.random.default_rng(3)
    block_lottery([0.3, 0.7], rng1)
    rng2.random()
    assert rng1.random() == rng2.random()


def test_strategy_kind_payload_rules():
    StrategyKind(StrategyTag.META_INVESTOR, 0.5, 0)
    with pytest.raises(ConfigurationError):
        StrategyKind(StrategyTag.META_INVESTOR, 1.5, 0)
    with pytest.raises(ConfigurationError):
        StrategyKind(StrategyTag.HONEST, meta_budget=0.5)
    with pytest.raises(ConfigurationError):
        StrategyKind(StrategyTag.META_INVESTOR)


TAG_NAMES = ("['ALWAYS_DEFECT', 'COLLUDE', 'GRIM_TRIGGER', 'HONEST', 'META_INVESTOR', "
             "'MYOPIC_BEST_RESPONSE', 'TIT_FOR_TAT', 'WITHHOLD']")


@pytest.mark.parametrize("arguments, message", [
    # A string tag was accepted and never matched a tag: "AlwaysDefect" never defected.
    (("AlwaysDefect",),
     f"strategy tag: expected a StrategyTag, one of {TAG_NAMES}, got 'AlwaysDefect'"),
    (("MetaInvestor", 0.2, 0),
     f"strategy tag: expected a StrategyTag, one of {TAG_NAMES}, got 'MetaInvestor'"),
    ((StrategyTag.META_INVESTOR, "0.2", 0), "meta_budget: expected a finite number, got '0.2'"),
    ((StrategyTag.META_INVESTOR, 0.2, 0.5), "preferred_state: expected an integer, got 0.5"),
    # A bool was read as a budget of 1.0 or a preferred state of 1 or 0.
    ((StrategyTag.META_INVESTOR, True, 0), "meta_budget: expected a finite number, got True"),
    ((StrategyTag.META_INVESTOR, 0.2, True), "preferred_state: expected an integer, got True"),
    ((StrategyTag.META_INVESTOR, 0.2, False), "preferred_state: expected an integer, got False"),
])
def test_strategy_kind_refuses_wrong_types(arguments, message):
    with pytest.raises(ConfigurationError) as excinfo:
        StrategyKind(*arguments)
    assert str(excinfo.value) == message


def test_resolve_fixed_strategies():
    strategies = [
        HONEST,
        StrategyKind(StrategyTag.WITHHOLD),
        StrategyKind(StrategyTag.COLLUDE),
        ALWAYS_DEFECT,
        StrategyKind(StrategyTag.META_INVESTOR, 0.2, 0),
    ]
    history = PlayHistory(5)
    assert resolve_actions(strategies, history, 0) == [C, D, D, D, C]


def test_resolve_all_grim_clean_history():
    strategies = [GRIM] * 3
    profiles = [[C, C, C]] * 5
    history = PlayHistory.from_rounds(3, profiles)
    assert resolve_actions(strategies, history, 5) == [C, C, C]


def test_grim_triggers_on_opponent_defect_and_absorbs():
    strategies = [GRIM, ALWAYS_DEFECT]
    history = PlayHistory(2)
    for round_index in range(6):
        actions = resolve_actions(strategies, history, round_index)
        if round_index == 0:
            assert actions == [C, D]
        else:
            assert actions == [D, D]  # absorbing after the first observed defect
        history.append(actions)


def test_grim_ignores_mutation_without_flag():
    strategies = [GRIM] * 2
    history = PlayHistory.from_rounds(2, [[C, C]], mutated_flags=[True])
    assert resolve_actions(strategies, history, 1) == [C, C]
    assert resolve_actions(strategies, history, 1, trigger_on_mutation=True) == [D, D]


def test_tit_for_tat_against_always_defect():
    strategies = [TIT_FOR_TAT, ALWAYS_DEFECT]
    history = PlayHistory(2)
    seen = []
    for round_index in range(4):
        actions = resolve_actions(strategies, history, round_index)
        seen.append(actions[0])
        history.append(actions)
    assert seen == [C, D, D, D]


def test_tit_for_tat_majority_and_tie():
    strategies = [TIT_FOR_TAT] + [HONEST] * 4
    # 2 of 4 opponents defected: tie resolves to Cooperate
    history = PlayHistory.from_rounds(5, [[C, D, D, C, C]])
    assert resolve_actions(strategies, history, 1)[0] == C
    # 3 of 4 opponents defected: majority defect
    history = PlayHistory.from_rounds(5, [[C, D, D, D, C]])
    assert resolve_actions(strategies, history, 1)[0] == D


def test_myopic_stage_argmax_defects_in_pd():
    # Oracle: argmax over the two table rows with opponent fixed at Cooperate.
    game = pd_game()
    by_hand = max(
        [(PD_TABLE["CC"][0], C), (PD_TABLE["DC"][0], D)], key=lambda item: item[0]
    )[1]
    strategies = [MYOPIC, HONEST]
    history = PlayHistory.from_rounds(2, [[C, C]])
    actions = resolve_actions(strategies, history, 1, game=game, state=0)
    assert actions[0] == by_hand == D


def test_myopic_with_discount_brackets_folk_threshold():
    game = pd_game()
    strategies = [MYOPIC, GRIM]
    history = PlayHistory(2)
    cooperate = resolve_actions(
        strategies, history, 0, game=game, state=0, discount=0.55
    )
    defect = resolve_actions(strategies, history, 0, game=game, state=0, discount=0.45)
    assert cooperate[0] == C
    assert defect[0] == D


def test_myopic_requires_game_context():
    strategies = [MYOPIC]
    with pytest.raises(ConfigurationError):
        resolve_actions(strategies, PlayHistory(1), 0)


def test_resolve_rejects_inconsistent_round():
    strategies = [HONEST]
    history = PlayHistory.from_rounds(1, [[C], [C]])
    with pytest.raises(ConfigurationError):
        resolve_actions(strategies, history, 5)


def test_all_honest_stays_cooperative():
    strategies = [HONEST] * 4
    history = PlayHistory(4)
    for round_index in range(10):
        actions = resolve_actions(strategies, history, round_index)
        assert actions == [C, C, C, C]
        history.append(actions)
