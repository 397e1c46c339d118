"""The bulk draw path against numpy's own scalar draws.

``_ziggurat`` copies numpy's fast-path constants; (a) re-derives each of
them by feeding ``Generator.standard_normal`` one chosen 64-bit word. (b)
checks ``simulate._draws`` against the documented scalar loop, bit for bit,
and counts that the idx-0 tail, layer 1 (which always leaves the fast path)
and the word-growth path each ran.
"""

import numpy as np
import pytest
import yaml

from mutagame import _ziggurat, parse_document, replica_rng, simulate
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


def scalar_draws(scenario, replicas):
    """The documented draw order, one scalar call per draw."""
    out = []
    for i in replicas:
        rng = replica_rng(scenario.master_seed, i)
        order = (rng.random, rng.standard_normal, rng.random)
        order = order[:1 + (scenario.theta is not None) + scenario.game.lottery_mode]
        out.append([[draw() for draw in order] for _ in range(scenario.horizon)])
    return np.array(out)


@pytest.mark.parametrize("lottery", [False, True], ids=["d2", "d3"])
def test_bulk_draws_match_scalar_stream(lottery, monkeypatch):
    doc = yaml.safe_load(FIXED_RULES)
    doc["game"]["lottery_mode"] = lottery
    doc["theta"] = {"mean": 0.0, "variance": 1.0}
    scenario = parse_document(doc)
    replicas = range(3, 1003)
    layers = []
    grown = []

    def counting_slow_normal(scratch, seed, position):
        probe = np.random.PCG64(0)
        probe.state = seed
        probe.advance(position)
        layers.append(int(probe.random_raw()) & 0xFF)
        return slow_normal(scratch, seed, position)

    def counting_extend_words(words, drawn, needed, streams):
        grown.append(int(np.count_nonzero(needed > drawn)))
        return extend_words(words, drawn, needed, streams)

    slow_normal, extend_words = simulate._slow_normal, simulate._extend_words
    monkeypatch.setattr(simulate, "_slow_normal", counting_slow_normal)
    monkeypatch.setattr(simulate, "_extend_words", counting_extend_words)
    draws = simulate._draws(scenario, replicas)

    expected = scalar_draws(scenario, replicas)
    assert draws.shape == expected.shape == (1000, scenario.horizon, 2 + lottery)
    assert np.array_equal(draws.view(np.uint64), expected.view(np.uint64))
    assert layers.count(0) >= 1  # the idx-0 tail
    assert layers.count(1) >= 1  # layer 1, where KI is 0
    assert sum(grown) >= 1  # a row ran past its first H*d words


def test_draws_do_not_depend_on_chunk_size(monkeypatch):
    doc = yaml.safe_load(FIXED_RULES)
    doc["game"]["lottery_mode"] = True
    doc["theta"] = {"mean": 0.0, "variance": 1.0}
    scenario = parse_document(doc)
    draws = simulate._draws(scenario, range(150))
    monkeypatch.setattr(simulate, "_CHUNK", 7)
    rechunked = simulate._draws(scenario, range(150))
    assert np.array_equal(draws.view(np.uint64), rechunked.view(np.uint64))
