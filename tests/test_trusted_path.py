"""Every coloring and feasible set built on an unchecked path passes the
public check unchanged, and so does each symmetric image of a witness."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symmetry import rotate_edges, shift_colors

from cyclic_chroma import (
    CYCLIC,
    INTERVAL,
    CycleColoring,
    SearchConfig,
    ThetaSet,
    construct,
    contains,
    enumerate_colorings,
    forbidden_set,
    theta_cyclic,
    theta_interval,
)
from cyclic_chroma.characterization import _runs


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


@given(witnesses(), st.integers(-100, 100))
def test_shift_colors_output_passes_the_public_check(c, delta):
    assert_passes_public_check(shift_colors(c, delta))


@pytest.mark.parametrize(
    "config",
    [
        SearchConfig(mode=CYCLIC),
        SearchConfig(mode=INTERVAL),
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


def assert_set_passes_public_check(theta):
    assert type(theta.members) is tuple
    assert all(type(x) is int for x in theta.members)
    checked = ThetaSet(theta.n, theta.members, "formula")
    assert checked == theta and theta == checked
    assert checked.members == theta.members and theta.provenance == "formula"


@pytest.mark.parametrize("theta", [theta_cyclic, theta_interval])
def test_closed_form_sets_pass_the_public_check(theta):
    for n in [*range(3, 2001), 10**6 - 1, 10**6]:
        assert_set_passes_public_check(theta(n))


def test_of_ranges_keeps_its_runs_and_skips_empty_ones():
    # its callers pass maximal runs, which it keeps as they are, and only
    # their last range can be empty
    built = ThetaSet._of_ranges(8, range(2, 7), range(8, 9))
    assert built._parts == (range(2, 7), range(8, 9))
    assert built == ThetaSet(8, (2, 3, 4, 5, 6, 8), "formula")
    assert ThetaSet._of_ranges(4, range(2, 5), range(6, 5, 2))._parts == (range(2, 5),)
    assert ThetaSet._of_ranges(5, range(3, 3))._parts == ()


@pytest.mark.parametrize("build", [theta_cyclic, theta_interval, forbidden_set])
def test_closed_forms_hold_the_maximal_runs(build):
    # the canonical split, computed in O(1): the runs _runs cuts the members
    # into, with no empty part; theta_cyclic(8) holds 2..6 and 8
    for n in range(3, 2001):
        ts = build(n)
        assert ts._parts == _runs(ts.members), n
        assert all(ts._parts), n
    assert theta_cyclic(8)._parts == (range(2, 7), range(8, 9))
