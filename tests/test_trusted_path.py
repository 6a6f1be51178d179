"""Every coloring built on the unchecked path passes the public check unchanged."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclic_chroma import (
    CYCLIC,
    INTERVAL,
    CycleColoring,
    SearchConfig,
    construct,
    contains,
    enumerate_colorings,
    rotate_edges,
    shift_colors,
)


def assert_passes_public_check(c):
    assert type(c.colors) is tuple
    assert all(type(x) is int for x in c.colors)
    assert CycleColoring(c.n, c.t, c.colors) == c


def reference_witness(n, t):
    """The two patterns as the checked constructor used to build them."""
    if (n - t) % 2 == 0:
        return (1, 2) * ((n - t) // 2) + tuple(range(1, t + 1))
    pad = (n - (2 * t - 2)) // 2
    return tuple(range(1, t + 1)) + tuple(range(t - 1, 1, -1)) + (1, 2) * pad


def test_construct_matches_the_reference_patterns():
    for n in range(3, 201):
        for t in range(1, n + 1):
            if not contains(n, t):
                continue
            c = construct(n, t)
            assert (c.n, c.t, c.colors) == (n, t, reference_witness(n, t)), (n, t)
            assert_passes_public_check(c)


@st.composite
def witnesses(draw):
    n = draw(st.integers(3, 60))
    t = draw(st.integers(2, n).filter(lambda t: contains(n, t)))
    return construct(n, t)


@given(witnesses(), st.integers(0, 59))
def test_rotate_edges_output_passes_the_public_check(c, k):
    assert_passes_public_check(rotate_edges(c, k % c.n))


@given(witnesses(), st.integers(-100, 100) | st.booleans())
def test_shift_colors_output_passes_the_public_check(c, delta):
    assert_passes_public_check(shift_colors(c, delta))


@pytest.mark.parametrize("delta", [1.0, 1.5])
def test_shift_colors_refuses_a_non_integer_delta(delta):
    with pytest.raises(TypeError):
        shift_colors(construct(5, 3), delta)


@pytest.mark.parametrize(
    "config",
    [
        SearchConfig(mode=CYCLIC),
        SearchConfig(mode=INTERVAL),
        SearchConfig(mode=CYCLIC, fix_first_color=True),
    ],
)
def test_enumerate_colorings_output_passes_the_public_check(config):
    found = 0
    for n in range(3, 10):
        for t in range(1, n + 1):
            for c in enumerate_colorings(n, t, config):
                assert (c.n, c.t) == (n, t)
                assert_passes_public_check(c)
                found += 1
    assert found > 0
