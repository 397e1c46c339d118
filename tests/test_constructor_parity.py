"""The plain-Python checks of ``TransitionKernel`` and ``NormalFormGame``
against the numpy checks they replaced (``tests/oracles.py``).

Where the reference refuses an input, the constructor refuses it with the
same text; where the reference accepts it, ``.matrix`` or ``.tensor`` holds
the same bits and is read-only. A ragged or non-numeric payoff tensor, or
one nested past numpy's 64 levels, which the reference leaked as numpy's own
ValueError or TypeError, is now refused by a ConfigurationError.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutagame import ConfigurationError, NormalFormGame, TransitionKernel
from oracles import reference_kernel_matrix, reference_payoff_tensor

ENTRIES = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, -1e-300, 1.5]),
    st.integers(-2, 2),
    st.integers(2**53, 2**64),  # rounded to float64 on the way in
    st.booleans(),
    st.floats(0.0, 1.0).map(repr),  # numeric strings
    st.sampled_from(["0.5", " 1 ", "1e-3", "1_0", "nan", "-inf", "-0.0", "one", "", "0x1"]),
    st.just(10**400),  # past float64: OverflowError
)
# The one odd entry of an otherwise well-formed kernel or tensor.
ODD = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, "nan", "-inf"]), ENTRIES)


@st.composite
def nested(draw, value):
    """``value`` with each of its lists kept, made a tuple or, where numpy
    can hold it, made an array."""
    if not isinstance(value, list):
        return value
    items = [draw(nested(item)) for item in value]
    form = draw(st.sampled_from(["list", "tuple", "array"]))
    if form == "array":
        try:
            return np.array(items)
        except (ValueError, OverflowError):  # ragged, or an int numpy cannot hold
            return items
    return tuple(items) if form == "tuple" else items


def spelled(value):
    """``value``, or the same number as a numeric string."""
    return st.sampled_from([value, repr(value)])


@st.composite
def near_stochastic_row(draw, k):
    """k weights normalized to sum near 1, maybe nudged by about the
    tolerance, some spelled as strings; now and then one entry is any entry."""
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))
    total = sum(weights)
    row = [w / total for w in weights] if total > 0.0 else [1.0 / k] * k
    row[draw(st.integers(0, k - 1))] += draw(
        st.sampled_from([0.0, 0.0, 5e-13, -5e-13, 1e-12, -1e-12, 2e-12, -2e-12, 1e-16]))
    row = [draw(spelled(value)) for value in row]
    if draw(st.integers(0, 4)) == 0:
        row[draw(st.integers(0, k - 1))] = draw(ODD)
    return row


@st.composite
def square_matrices(draw):
    """k x k matrices, k = 1..7, of rows that sum near 1."""
    k = draw(st.integers(1, 7))
    return [draw(near_stochastic_row(k)) for _ in range(k)]


SHAPED = st.one_of(
    ENTRIES,  # 0-D
    st.lists(ENTRIES, max_size=4),  # 1-D
    st.integers(0, 4).flatmap(  # rectangular, square or not
        lambda k: st.lists(st.lists(ENTRIES, min_size=k, max_size=k), max_size=4)),
    st.lists(st.lists(ENTRIES, max_size=4), max_size=4),  # ragged, mostly
    st.lists(st.lists(st.lists(ENTRIES, min_size=2, max_size=2), min_size=2, max_size=2),
             min_size=1, max_size=2),  # 3-D
    st.deferred(lambda: deep_nests()),  # 4-D to 8-D
    st.deferred(lambda: chains()),  # 60 to 70 levels, about numpy's 64
)


def chained(value, levels):
    """``value`` inside ``levels`` single-element lists."""
    for _ in range(levels):
        value = [value]
    return value


@st.composite
def deep_nests(draw):
    """4 to 8 levels of lists of 0 to 2 items; now and then one innermost
    list loses an item, making the nest ragged."""
    dims = draw(st.lists(st.integers(0, 2), min_size=4, max_size=8))

    def build(dims):
        return draw(ENTRIES) if not dims else [build(dims[1:]) for _ in range(dims[0])]

    value = inner = build(dims)
    while inner and isinstance(inner[0], list):
        inner = inner[draw(st.integers(0, len(inner) - 1))]
    if inner and draw(st.integers(0, 3)) == 0:
        inner.pop()
    return value


@st.composite
def chains(draw):
    """A number, or a short list of numbers, 60 to 70 single-element lists deep."""
    return chained(draw(ENTRIES | st.lists(ENTRIES, max_size=2)), draw(st.integers(60, 70)))


@st.composite
def tensors(draw):
    """Payoff tensors of shape (2,)*n + (n,), n = 1..5, as nested lists of
    numbers, some spelled as strings; now and then one entry is any entry."""
    n = draw(st.integers(1, 5))
    size = 2**n * n
    value = [draw(st.floats(-1e6, 1e6).flatmap(spelled) | st.integers(-5, 5))
             for _ in range(size)]
    if draw(st.integers(0, 3)) == 0:
        value[draw(st.integers(0, size - 1))] = draw(ODD)
    for width in [n] + [2] * n:
        value = [value[i:i + width] for i in range(0, len(value), width)]
    return value[0]


def outcome(build, value):
    """``("ok", array)``, ``("refused", message)`` or ``("leaked", exception type)``."""
    try:
        return "ok", build(value)
    except ConfigurationError as exc:
        return "refused", str(exc)
    except (ValueError, TypeError, OverflowError) as exc:
        return "leaked", type(exc)


def assert_same_array(array, reference):
    assert (array.shape, array.dtype) == (reference.shape, reference.dtype)
    assert array.tobytes() == reference.tobytes()
    assert not array.flags.writeable


def check_kernel(matrix):
    kind, expected = outcome(reference_kernel_matrix, matrix)
    assert kind != "leaked"
    got = outcome(lambda value: TransitionKernel(value).matrix, matrix)
    if kind == "refused":
        assert got == (kind, expected)
    else:
        assert got[0] == "ok", got
        assert_same_array(got[1], expected)


def check_payoff_tensor(tensor, state):
    kind, expected = outcome(lambda value: reference_payoff_tensor(value, state), tensor)
    got = outcome(lambda value: NormalFormGame(value, state).tensor, tensor)
    if kind == "leaked":  # the documented mend of numpy's bare error
        subject = "payoff tensor" if state is None else f"payoff table for state {state!r}"
        assert got == ("refused", f"{subject} must be an array of numbers")
    elif kind == "refused":
        assert got == (kind, expected)
    else:
        assert got[0] == "ok", got
        assert_same_array(got[1], expected)


@settings(max_examples=400, deadline=None, database=None)
@given(square_matrices().flatmap(nested))
def test_stochastic_kernel_checks_match_the_numpy_reference(matrix):
    check_kernel(matrix)


@settings(max_examples=300, deadline=None, database=None)
@given(SHAPED.flatmap(nested))
def test_kernel_checks_of_any_shape_match_the_numpy_reference(matrix):
    check_kernel(matrix)


@settings(max_examples=200, deadline=None, database=None)
@given(tensors().flatmap(nested), st.sampled_from([None, "baseline"]))
def test_payoff_tensor_checks_match_the_numpy_reference(tensor, state):
    check_payoff_tensor(tensor, state)


@settings(max_examples=200, deadline=None, database=None)
@given(SHAPED.flatmap(nested), st.sampled_from([None, "baseline"]))
def test_payoff_checks_of_any_shape_match_the_numpy_reference(tensor, state):
    check_payoff_tensor(tensor, state)


def test_row_sum_message_keeps_numpys_total():
    # Left to right, numpy's order below 8 entries, row 0 sums to
    # 0.999999999997; a compensated sum, as sum() is from Python 3.12 on,
    # gives 0.9999999999970001.
    matrix = [[0.1, 0.7, 0.19999999999700008], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    for build in (TransitionKernel, reference_kernel_matrix):
        with pytest.raises(ConfigurationError) as caught:
            build(matrix)
        assert str(caught.value) == "kernel row 0 sums to 0.999999999997, must equal 1 within 1e-12"


@pytest.mark.parametrize("levels", [63, 64, 65])
def test_nesting_at_numpys_dimension_limit_matches_the_numpy_reference(levels):
    # numpy 2 holds at most 64 dimensions; the reader refuses a 65th level as numpy does.
    for inner in (0.5, [0.5], [[1.0]]):
        check_kernel(chained(inner, levels))
        check_payoff_tensor(chained(inner, levels), None)


def test_a_5000_level_nest_is_refused_in_one_line():
    # Far past numpy's 64 levels: one refusal line from each, never RecursionError.
    value = chained(1.0, 5000)
    for build, message in [
        (TransitionKernel, "transition kernel must be a square matrix of numbers"),
        (reference_kernel_matrix, "transition kernel must be a square matrix of numbers"),
        (lambda v: NormalFormGame(v, "baseline"),
         "payoff table for state 'baseline' must be an array of numbers"),
    ]:
        with pytest.raises(ConfigurationError) as caught:
            build(value)
        assert str(caught.value) == message and "\n" not in message
        assert caught.value.__cause__ is None and caught.value.__suppress_context__
    with pytest.raises(ValueError):
        reference_payoff_tensor(value)


@pytest.mark.filterwarnings("ignore:the matrix subclass:PendingDeprecationWarning")
def test_an_ndarray_subclass_matches_the_numpy_reference():
    # np.matrix stays two-dimensional through ravel(); the reader goes by tolist().
    check_kernel(np.matrix([[0.9, 0.1], [0.2, 0.8]]))
    check_kernel(np.matrix([[0.9, 0.1], [0.2, 0.7]]))
    check_payoff_tensor(np.matrix([[3.0], [1.0]]), None)
