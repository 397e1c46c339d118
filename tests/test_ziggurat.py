"""The lockstep draw path against numpy's own scalar draws.

``_ziggurat`` copies numpy's ziggurat constants; (a) re-derives WI and KI
by feeding ``Generator.standard_normal`` one chosen 64-bit word. (b) checks
``simulate._slow_normal`` against numpy on the wedge decision at every
layer, on both sides of its threshold, and on slow-path words from real
streams, counting its ``next_word`` calls as the words it used. (c) checks
``simulate._seed_states`` against numpy's seeding, and ``simulate._step``,
one PCG64 step of every lane, against numpy's words at edge states and
against 128-bit int arithmetic. (d) checks the rounds that the
``simulate._draws`` generator yields, stacked into one (R, H, d) array
here, against the documented scalar loop, bit for bit, over many replicas
and over a long horizon, and counts that the idx-0 tail and layer 1 (which
always leaves the fast path) each ran.
"""

import dataclasses

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from mutagame import (
    CapacityError,
    ConfigurationError,
    _ziggurat,
    parse_document,
    replica_rng,
    run_replica,
    simulate,
)
from mutagame.cli import EXIT_CAPACITY, main
from mutagame.presets import FIXED_RULES

# PCG64's 128-bit LCG multiplier (O'Neill 2014, the default for 128-bit state).
MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
MODULUS = 2**128


class OneWord:
    """A PCG64 whose next output is a chosen word: the state after the next
    LCG step has hi = 0 (rotation 0) and lo = word, and XSL-RR outputs
    hi ^ lo rotated by the top 6 bits."""

    def __init__(self):
        self.stream = np.random.PCG64(0)
        self.generator = np.random.Generator(self.stream)
        self.inverse = pow(MULTIPLIER, -1, MODULUS)

    def set(self, word):
        state = self.stream.state
        lcg = state["state"]
        lcg["state"] = (word - lcg["inc"]) * self.inverse % MODULUS
        self.stream.state = state

    def normal(self, word):
        """``standard_normal()`` whose first word is ``word``, and whether it
        used that word alone."""
        self.set(word)
        value = self.generator.standard_normal()
        return value, self.stream.state["state"]["state"] == word


def test_one_word_stream_outputs_the_chosen_word():
    probe = OneWord()
    for word in (0, 1, 0x1FF, 2**64 - 1):
        probe.set(word)
        assert probe.stream.random_raw() == word
    lcg = probe.stream.state["state"]
    probe.stream.random_raw()
    after = (lcg["state"] * simulate._PCG64_MULTIPLIER + lcg["inc"]) % MODULUS
    assert probe.stream.state["state"]["state"] == after


def test_tables_match_numpy():
    probe = OneWord()
    wi, ki = [], []
    for layer in range(256):
        # rabs = 1, sign 0: x = WI[layer]. Layer 1 misses the fast path, but
        # its wedge test accepts so small an x and returns it unchanged.
        wi.append(probe.normal((1 << 9) | layer)[0])
        # KI[layer] is the least rabs the fast path rejects.
        low, high = 0, 2**52
        while low < high:
            mid = (low + high) // 2
            if probe.normal((mid << 9) | layer)[1]:
                low = mid + 1
            else:
                high = mid
        ki.append(low)
    assert [w.hex() for w in wi] == [w.hex() for w in _ziggurat.WI.tolist()]
    assert ki == _ziggurat.KI.tolist()
    assert ki[1] == 0


def test_fast_path_matches_numpy_at_every_layer_boundary():
    probe = OneWord()
    words = [
        (rabs << 9) | (sign << 8) | layer
        for layer, ki in enumerate(_ziggurat.KI.tolist())
        for rabs in {0, max(ki - 1, 0), ki, 2**52 - 1} - {2**52}
        for sign in (0, 1)
    ]
    normals, accepted = simulate._fast_normals(np.array(words, dtype=np.uint64))
    for word, fast, normal in zip(words, accepted.tolist(), normals.tolist()):
        value, one_word = probe.normal(word)
        assert fast == one_word
        if fast:
            assert normal.hex() == value.hex()


def lcg_steps(start, end, inc):
    """LCG steps from state ``start`` to state ``end``: the words drawn."""
    steps = 0
    while start != end:
        start = (start * MULTIPLIER + inc) % MODULUS
        steps += 1
    return steps


def slow_normal(words):
    """``simulate._slow_normal`` on a stream's words from the normal's
    first: the value and the words it used, one plus its ``next_word``
    calls."""
    rest, calls = map(int, words[1:]), 0

    def next_word():
        nonlocal calls
        calls += 1
        return next(rest)

    return simulate._slow_normal(int(words[0]), next_word), 1 + calls


class Stream:
    """numpy's ``standard_normal`` and raw words from a chosen LCG state."""

    def __init__(self):
        self.stream = np.random.PCG64(0)
        self.generator = np.random.Generator(self.stream)

    def set(self, state, inc):
        self.stream.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0,
        }

    def normal(self, state, inc):
        """numpy's value, the words it used, and the stream's first 32 words."""
        self.set(state, inc)
        words = self.stream.random_raw(32)
        self.set(state, inc)
        value = self.generator.standard_normal()
        return value, lcg_steps(state, self.stream.state["state"]["state"], inc), words


def two_word_state(first, second):
    """(state, inc) whose next two outputs are ``first`` and ``second``:
    both LCG states that follow have hi = 0. ``inc`` is odd when the two
    words differ in their low bit."""
    inc = (second - MULTIPLIER * first) % MODULUS
    return (first - inc) * pow(MULTIPLIER, -1, MODULUS) % MODULUS, inc


def test_wedge_decision_matches_numpy_at_every_layer():
    stream = Stream()
    for layer in range(1, 256):
        # Off the fast path, with exp(-x*x/2) strictly inside the wedge.
        rabs = (int(_ziggurat.KI[layer]) + 2**52) // 2
        first = rabs << 9 | layer

        def state(u_bits):
            # Its u is u_bits * 2**-53; the low bit keeps inc odd.
            return two_word_state(first, u_bits << 11 | (first & 1 ^ 1))

        # numpy accepts x with the second word iff u lies below a threshold;
        # find the least u_bits it rejects.
        low, high = 0, 2**53
        while low < high:
            mid = (low + high) // 2
            if stream.normal(*state(mid))[1] == 2:
                low = mid + 1
            else:
                high = mid
        assert 0 < low < 2**53
        for u_bits in (low - 1, low):
            value, used, words = stream.normal(*state(u_bits))
            got, got_used = slow_normal(words)
            assert (got.hex(), got_used) == (value.hex(), used)
            assert (used == 2) == (u_bits < low)


def test_slow_normals_of_real_streams_match_numpy():
    # 2,000 idx-0 misses (the tail) and 2,000 misses in the other layers
    # (the wedge), each evaluated from its own stream position.
    stream, probe = np.random.PCG64(7), Stream()
    found = {"tail": 0, "wedge": 0}
    while min(found.values()) < 2000:
        start = stream.state["state"]
        words = stream.random_raw(2**20)
        misses = np.flatnonzero(~simulate._fast_normals(words[:-64])[1])
        for position in misses.tolist():
            kind = "wedge" if int(words[position]) & 0xFF else "tail"
            if found[kind] == 2000:
                continue
            found[kind] += 1
            probe.set(start["state"], start["inc"])
            probe.stream.advance(position)
            lcg = probe.stream.state["state"]
            value, used, _ = probe.normal(lcg["state"], lcg["inc"])
            got, got_used = slow_normal(words[position:])
            assert (got.hex(), got_used) == (value.hex(), used)


@pytest.mark.parametrize(
    "master_seed", [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 77]
)
def test_bulk_seeding_matches_numpy(master_seed):
    for replicas in (range(0, 70), range(2**32 - 40, 2**32 + 40)):
        expected = []
        for i in replicas:
            lcg = np.random.PCG64(np.random.SeedSequence([master_seed, i])).state["state"]
            expected.append(split_state(lcg["state"], lcg["inc"]))
        lanes = simulate._seed_states(master_seed, replicas)
        assert lanes.dtype == np.uint64 and lanes.shape == (4, len(replicas))
        assert lanes.T.tolist() == expected


def split_state(state, inc):
    """A (state, inc) pair as a lane of ``_step``'s (4, R) array: each
    128-bit value as its high and low 64-bit halves."""
    return [state >> 64, state & 2**64 - 1, inc >> 64, inc & 2**64 - 1]


def lanes_of(streams):
    """(state, inc) pairs as ``_step``'s (4, R) uint64 lanes."""
    return np.array([split_state(*stream) for stream in streams], dtype=np.uint64).T.copy()


@pytest.mark.parametrize("width", [1, 2, 3, 16, 17, 620])
def test_raw_words_match_numpy_at_edge_states(width):
    # State 0 and 2**128 - 1, inc 1 and 2**128 - 1 (the largest odd inc):
    # the extremes of each operand of the 128-bit multiply-add, stepped
    # ``width`` times in lockstep.
    edges = [(state, inc) for state in (0, MODULUS - 1) for inc in (1, MODULUS - 1)]
    lanes = lanes_of(edges)
    words = np.stack([simulate._step(lanes) for _ in range(width)], axis=1)
    assert words.dtype == np.uint64 and words.shape == (len(edges), width)
    stream = Stream()
    for (state, inc), row, lane in zip(edges, words, lanes.T.tolist()):
        stream.set(state, inc)
        assert row.tolist() == stream.stream.random_raw(width).tolist()
        lcg = stream.stream.state["state"]
        assert lane == split_state(lcg["state"], lcg["inc"])


def xsl_rr(state):
    """PCG64's output word for a 128-bit LCG state."""
    rotation, word = state >> 122, (state >> 64 ^ state) & 2**64 - 1
    return (word >> rotation | word << (64 - rotation)) & 2**64 - 1


@settings(max_examples=300, deadline=None, database=None)
@given(
    st.lists(
        st.tuples(st.integers(0, MODULUS - 1), st.integers(0, MODULUS - 1)),
        min_size=1, max_size=6,
    )
)
def test_step_matches_int_arithmetic(streams):
    # Any state and any inc, odd or not: the step is plain 128-bit
    # arithmetic, lane by lane.
    lanes = lanes_of(streams)
    words = simulate._step(lanes)
    after = [((state * MULTIPLIER + inc) % MODULUS, inc) for state, inc in streams]
    assert words.dtype == np.uint64 and lanes.dtype == np.uint64
    assert lanes.T.tolist() == [split_state(*stream) for stream in after]
    assert words.tolist() == [xsl_rr(state) for state, _ in after]


def scalar_draws(scenario, replicas):
    """The documented draw order, one scalar call per draw."""
    out = []
    for i in replicas:
        rng = replica_rng(scenario.master_seed, i)
        order = (rng.random, rng.standard_normal, rng.random)
        order = order[:1 + (scenario.theta is not None) + scenario.game.lottery_mode]
        out.append([[draw() for draw in order] for _ in range(scenario.horizon)])
    return np.array(out)


def stacked(rounds):
    """The (d, R) rounds that ``simulate._draws`` yields, as one (R, H, d)
    array in ``scalar_draws``' layout."""
    return np.stack(list(rounds)).transpose(2, 0, 1)


def theta_scenario(lottery):
    doc = yaml.safe_load(FIXED_RULES)
    doc["game"]["lottery_mode"] = lottery
    doc["theta"] = {"mean": 0.0, "variance": 1.0}
    return parse_document(doc)


def counting_slow_normals(monkeypatch):
    """The layer of the first word of every normal ``_draws`` takes off the
    fast path, in order."""
    layers = []
    slow_normal = simulate._slow_normal

    def counting_slow_normal(word, next_word):
        layers.append(word & 0xFF)
        return slow_normal(word, next_word)

    monkeypatch.setattr(simulate, "_slow_normal", counting_slow_normal)
    return layers


@pytest.mark.parametrize("lottery", [False, True], ids=["d2", "d3"])
def test_bulk_draws_match_scalar_stream(lottery, monkeypatch):
    scenario = theta_scenario(lottery)
    replicas = range(3, 1003)
    layers = counting_slow_normals(monkeypatch)
    draws = stacked(simulate._draws(scenario, replicas))

    expected = scalar_draws(scenario, replicas)
    assert draws.shape == expected.shape == (1000, scenario.horizon, 2 + lottery)
    assert np.array_equal(draws.view(np.uint64), expected.view(np.uint64))
    assert layers.count(0) >= 1  # the idx-0 tail
    assert layers.count(1) >= 1  # layer 1, where KI is 0


def test_long_horizon_draws_match_scalar_stream(monkeypatch):
    # Thousands of rounds: each lane's slow normals shift all its later
    # draws, dozens of times per replica.
    scenario = dataclasses.replace(theta_scenario(lottery=True), horizon=5000)
    layers = counting_slow_normals(monkeypatch)
    draws = stacked(simulate._draws(scenario, range(5)))
    expected = scalar_draws(scenario, range(5))
    assert draws.shape == expected.shape == (5, 5000, 3)
    assert np.array_equal(draws.view(np.uint64), expected.view(np.uint64))
    assert len(layers) >= 5 * 20


def test_replica_index_past_uint32_draws_its_own_stream(monkeypatch):
    scenario = theta_scenario(lottery=True)
    seen = []
    draws = simulate._draws

    def recording_draws(*args):
        for rounds in draws(*args):
            seen.append(rounds)
            yield rounds

    monkeypatch.setattr(simulate, "_draws", recording_draws)
    trace = run_replica(scenario, 2**32 + 3)
    expected = scalar_draws(scenario, [2**32 + 3])
    assert np.array_equal(stacked(seen).view(np.uint64), expected.view(np.uint64))
    assert trace.replicas == range(2**32 + 3, 2**32 + 4)


def test_negative_replica_index_is_configuration_error():
    # SeedSequence refuses negative entropy; the index must not wrap to
    # another replica's stream. Up to 0.20.0 replica_rng raised numpy's
    # ValueError or TypeError.
    for arguments, message in [
        ((0, -1), "replica_index: must be >= 0, got -1"),
        ((-1, 0), "master_seed: must be >= 0, got -1"),
        ((0, 1.5), "replica_index: expected an integer, got 1.5"),
        (("0", 0), "master_seed: expected an integer, got '0'"),
    ]:
        with pytest.raises(ConfigurationError) as excinfo:
            replica_rng(*arguments)
        assert str(excinfo.value) == message
    # Up to 0.19.0 True ran replica 1, and 1.5 and "1" raised TypeError.
    for index, message in [
        (-1, "replica_index: must be >= 0, got -1"),
        (True, "replica_index: expected an integer, got True"),
        (1.5, "replica_index: expected an integer, got 1.5"),
        ("1", "replica_index: expected an integer, got '1'"),
    ]:
        with pytest.raises(ConfigurationError) as excinfo:
            run_replica(theta_scenario(lottery=True), index)
        assert str(excinfo.value) == message


def test_draws_do_not_depend_on_chunk_size(monkeypatch):
    # Chunks of one, of a prime size and of more than the batch, the last
    # partial or not.
    scenario = theta_scenario(lottery=True)
    draws = stacked(simulate._draws(scenario, range(150)))
    for chunk in (1, 7, 50, 4096):
        monkeypatch.setattr(simulate, "_CHUNK", chunk)
        rechunked = stacked(simulate._draws(scenario, range(150)))
        assert np.array_equal(draws.view(np.uint64), rechunked.view(np.uint64))


def test_payoffs_array_past_numpy_index_limit_is_capacity_error(tmp_path, capsys, monkeypatch):
    # (1, H, 2) float64 payoffs, the largest array: at H = 2**59 they take
    # 2**63 bytes, one past numpy's index type, and are refused before any
    # draw is taken. One round fewer fits the index type, so numpy tries an
    # allocation and fails for memory.
    scenario = dataclasses.replace(theta_scenario(lottery=False), horizon=2**59)
    monkeypatch.setattr(simulate, "_draws", None)  # never reached
    with pytest.raises(CapacityError, match="^1 replicas x horizon 576460752303423488 x 2 miners "):
        simulate._simulate(scenario, range(1))
    monkeypatch.undo()
    doc = yaml.safe_load(FIXED_RULES)
    doc["theta"] = {"mean": 0.0, "variance": 1.0}
    path = tmp_path / "theta.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    args = ["--replicas", "1", "--set", f"horizon={2**59 - 1}", "--out", str(tmp_path / "out")]
    assert main(["run", str(path), *args]) == EXIT_CAPACITY
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1
