"""The bulk draw path against numpy's own scalar draws.

``_ziggurat`` copies numpy's ziggurat constants; (a) re-derives WI and KI
by feeding ``Generator.standard_normal`` one chosen 64-bit word. (b) checks
``simulate._slow_normal`` against numpy on the wedge decision at every
layer, on both sides of its threshold, and on slow-path words from real
streams. (c) checks ``simulate._seed_states`` against numpy's seeding, and
``simulate._RawWords`` against numpy's PCG64 down to the 128-bit
multiply-add under it. (d) checks ``simulate._draws`` against the
documented scalar loop, bit for bit, and counts that the idx-0 tail, layer
1 (which always leaves the fast path) and the word-growth path each ran.
"""

import dataclasses

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from mutagame import CapacityError, _ziggurat, parse_document, replica_rng, run_replica, simulate
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
    accepted = simulate._fast_path(np.array(words, dtype=np.uint64))
    normals = simulate._fast_normals(np.array(words, dtype=np.uint64))
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
            got, got_used = simulate._slow_normal(words)
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
        misses = np.flatnonzero(~simulate._fast_path(words[:-64]))
        for position in misses.tolist():
            kind = "wedge" if int(words[position]) & 0xFF else "tail"
            if found[kind] == 2000:
                continue
            found[kind] += 1
            probe.set(start["state"], start["inc"])
            probe.stream.advance(position)
            lcg = probe.stream.state["state"]
            value, used, _ = probe.normal(lcg["state"], lcg["inc"])
            got, got_used = simulate._slow_normal(words[position:])
            assert (got.hex(), got_used) == (value.hex(), used)


def test_slow_normal_needs_its_words():
    # A layer-1 word always goes to the wedge test, which needs one more word.
    with pytest.raises(IndexError):
        simulate._slow_normal(np.array([1 << 9 | 1], dtype=np.uint64))


@pytest.mark.parametrize(
    "master_seed", [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 77]
)
def test_bulk_seeding_matches_numpy(master_seed):
    for replicas in (range(0, 70), range(2**32 - 40, 2**32 + 40)):
        expected = []
        for i in replicas:
            lcg = np.random.PCG64(np.random.SeedSequence([master_seed, i])).state["state"]
            expected.append(split_state(lcg["state"], lcg["inc"]))
        seeds = simulate._seed_states(master_seed, replicas)
        assert seeds.dtype == np.uint64 and seeds.shape == (len(replicas), 4)
        assert seeds.tolist() == expected


def split_state(state, inc):
    """A (state, inc) pair as a ``_seed_states`` row: each 128-bit value as
    its high and low 64-bit halves."""
    return [state >> 64, state & 2**64 - 1, inc >> 64, inc & 2**64 - 1]


@pytest.mark.parametrize("width", [1, 2, 3, 16, 17, 620])
def test_raw_words_match_numpy_at_edge_states(width):
    # State 0 and 2**128 - 1, inc 1 and 2**128 - 1 (the largest odd inc):
    # the extremes of each operand of the 128-bit multiply-add; widths
    # square, non-square and prime, so the last block is full or partial.
    edges = [(state, inc) for state in (0, MODULUS - 1) for inc in (1, MODULUS - 1)]
    seeds = np.array([split_state(*edge) for edge in edges], dtype=np.uint64)
    words = simulate._RawWords(width, len(edges))(seeds)
    assert words.dtype == np.uint64 and words.shape == (len(edges), width)
    stream = Stream()
    for (state, inc), row in zip(edges, words):
        stream.set(state, inc)
        assert row.tolist() == stream.stream.random_raw(width).tolist()


def test_jump_matches_repeated_lcg_steps():
    mult, incr = 1, 0
    for steps in range(700):
        a_hi, a_lo, c_hi, c_lo = simulate._jump(steps)
        assert (a_hi << 64 | a_lo, c_hi << 64 | c_lo) == (mult, incr)
        mult, incr = mult * MULTIPLIER % MODULUS, (incr * MULTIPLIER + 1) % MODULUS


@settings(max_examples=300, deadline=None, database=None)
@given(
    st.lists(st.integers(0, MODULUS - 1), min_size=3, max_size=3),
    st.lists(st.integers(0, MODULUS - 1), min_size=1, max_size=5),
)
def test_mul_add_matches_int_arithmetic(scalars, values):
    # A scalar (2, 1) multiplier and addend broadcast against a (2, V) array,
    # as the word tables and block states are.
    a, c, b0 = scalars
    b = [b0] + values

    def halves(ints):
        return np.array([[v >> 64 for v in ints], [v & 2**64 - 1 for v in ints]], dtype=np.uint64)

    got = simulate._mul_add(halves([a]), halves(b), halves([c]))
    assert got.dtype == np.uint64
    assert [high << 64 | low for high, low in zip(*got.tolist())] == [
        (a * v + c) % MODULUS for v in b
    ]


def scalar_draws(scenario, replicas):
    """The documented draw order, one scalar call per draw."""
    out = []
    for i in replicas:
        rng = replica_rng(scenario.master_seed, i)
        order = (rng.random, rng.standard_normal, rng.random)
        order = order[:1 + (scenario.theta is not None) + scenario.game.lottery_mode]
        out.append([[draw() for draw in order] for _ in range(scenario.horizon)])
    return np.array(out)


def theta_scenario(lottery):
    doc = yaml.safe_load(FIXED_RULES)
    doc["game"]["lottery_mode"] = lottery
    doc["theta"] = {"mean": 0.0, "variance": 1.0}
    return parse_document(doc)


@pytest.mark.parametrize("lottery", [False, True], ids=["d2", "d3"])
def test_bulk_draws_match_scalar_stream(lottery, monkeypatch):
    scenario = theta_scenario(lottery)
    replicas = range(3, 1003)
    layers = []
    grown = []

    def counting_slow_normal(words):
        layers.append(int(words[0]) & 0xFF)
        return slow_normal(words)

    def counting_row_slow_normals(words, misses, horizon, per_round):
        found = row_slow_normals(words, misses, horizon, per_round)
        grown.append(found is None)
        return found

    slow_normal, row_slow_normals = simulate._slow_normal, simulate._row_slow_normals
    monkeypatch.setattr(simulate, "_slow_normal", counting_slow_normal)
    monkeypatch.setattr(simulate, "_row_slow_normals", counting_row_slow_normals)
    # No words past H*d: every row whose slow normals use extra words grows.
    monkeypatch.setattr(simulate, "_slack", lambda normals: 0)
    draws = simulate._draws(scenario, replicas)

    expected = scalar_draws(scenario, replicas)
    assert draws.shape == expected.shape == (1000, scenario.horizon, 2 + lottery)
    assert np.array_equal(draws.view(np.uint64), expected.view(np.uint64))
    assert layers.count(0) >= 1  # the idx-0 tail
    assert layers.count(1) >= 1  # layer 1, where KI is 0
    assert sum(grown) >= 1  # a row ran past its first H*d words


def test_replica_index_past_uint32_draws_its_own_stream(monkeypatch):
    scenario = theta_scenario(lottery=True)
    seen = []
    draws = simulate._draws
    monkeypatch.setattr(simulate, "_draws", lambda *args: seen.append(draws(*args)) or seen[-1])
    trace = run_replica(scenario, 2**32 + 3)
    expected = scalar_draws(scenario, [2**32 + 3])
    assert np.array_equal(seen[0].view(np.uint64), expected.view(np.uint64))
    assert trace.replicas == range(2**32 + 3, 2**32 + 4)


def test_draws_do_not_depend_on_chunk_size(monkeypatch):
    doc = yaml.safe_load(FIXED_RULES)
    doc["game"]["lottery_mode"] = True
    doc["theta"] = {"mean": 0.0, "variance": 1.0}
    scenario = parse_document(doc)
    draws = simulate._draws(scenario, range(150))
    monkeypatch.setattr(simulate, "_CHUNK", 7)
    rechunked = simulate._draws(scenario, range(150))
    assert np.array_equal(draws.view(np.uint64), rechunked.view(np.uint64))


def test_word_array_past_numpy_index_limit_is_capacity_error():
    # The (1, H, 2) draws take 2**63 - 16 bytes, within numpy's index type;
    # the H*d + slack words of the row do not fit it.
    scenario = dataclasses.replace(theta_scenario(lottery=False), horizon=2**59 - 1)
    with pytest.raises(CapacityError, match="^1 replicas x horizon 576460752303423487 x 2 "):
        simulate._draws(scenario, range(1))
