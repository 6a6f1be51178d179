"""``verify``, ``decompose`` and the search walk against the loops they replaced.

Every field and verdict of the report, the order of the violations, every
stored field and derived property of the decomposition (each with its
type, which tells ``1`` from ``True``), the JSON of both and the walk's
tuples, in order, must match ``loop_reference`` exactly.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import loop_reference
from symmetry import rotate_edges, shift_colors

from cyclic_chroma import (
    CYCLIC,
    INTERVAL,
    CycleColoring,
    SearchConfig,
    construct,
    contains,
    decompose,
    enumerate_colorings,
    verify,
)
from cyclic_chroma.oracle import _walks
from cyclic_chroma.verifier import _BLOCK


def assert_matches_reference(c):
    for mode in (INTERVAL, CYCLIC):
        got, want = verify(c, mode), loop_reference.verify(c, mode)
        # the three verdicts too, which the report derives and == skips
        for name, value in want.items():
            assert_same(getattr(got, name), value, (c, mode, name))
        want_json = loop_reference.report_json(want)
        assert json.dumps(got.to_json_dict()) == json.dumps(want_json), (c, mode)
    assert_decomposes_as_reference(c)


def assert_decomposes_as_reference(c):
    if not loop_reference.verify(c, CYCLIC)["mode_satisfied"]:
        with pytest.raises(ValueError):
            decompose(c)
        return
    got, want = decompose(c), loop_reference.decompose(c)
    for name, value in want.items():
        assert_same(getattr(got, name), value, (c, name))
    want_json = loop_reference.decomposition_json(want)
    assert json.dumps(got.to_json_dict()) == json.dumps(want_json), c


def assert_same(got, want, label):
    """Equal, of the same type, and so for each entry of a tuple.

    ``==`` alone takes 1 for True and a plain tuple for a ComponentSpan.
    """
    assert got == want, label
    assert type(got) is type(want), label
    if isinstance(want, tuple):
        assert list(map(type, got)) == list(map(type, want)), label
        for a, b in zip(got, want):
            if isinstance(b, tuple):
                assert list(map(type, a)) == list(map(type, b)), label


def test_every_small_witness():
    for n in range(3, 11):
        for t in range(1, n + 1):
            for c in enumerate_colorings(n, t):
                assert_matches_reference(c)


def closed_walks(n, t):
    """Every closed walk of n steps on the cyclic color graph of [1, t].

    Surjective or not.  The graph joins a and b when ``adjacent`` holds in
    cyclic mode, so it holds the interval graph, and its walks are those of
    either mode.  t = 1 has no edge and no walk.
    """
    colors = range(1, t + 1)
    succ = {
        a: [b for b in colors if b != a and loop_reference.adjacent(a, b, t, CYCLIC)]
        for a in colors
    }
    seq = []

    def extend():
        if len(seq) == n:
            if seq[0] in succ[seq[-1]]:
                yield tuple(seq)
            return
        for b in succ[seq[-1]]:
            seq.append(b)
            yield from extend()
            seq.pop()

    for first in colors:
        seq.append(first)
        yield from extend()
        seq.pop()


def test_every_small_closed_walk():
    # non-surjective walks reach every coverage branch: no wrap step, wraps
    # one way (winding number not 0) and wraps both ways (any winding)
    for n in range(3, 13):
        for t in range(1, n + 1):
            for colors in closed_walks(n, t):
                c = CycleColoring(n, t, colors)
                for mode in (INTERVAL, CYCLIC):
                    got = loop_reference.report_values(verify(c, mode))
                    assert got == loop_reference.verify(c, mode), (c, mode)


B = _BLOCK  # verify reads blocks of B vertices
# verify once re-read a failing block in sub-blocks of S vertices; their
# edges stay as cases
S = 256
K = B // 2 + 22  # (1, 2) * K is 44 edges longer than one block

# closed walks longer than one block of verify; vertex 1 sees the last
# color and the first, so its step lies in the first block
LONG_WALKS = {
    # 1 -> 5 at vertex 2K + 2 (second block), 5 -> 1 at vertex 1: winding
    # 0, 3 never used
    "opposite-wraps": (5, (1, 2) * K + (1,) + (5, 4) * K + (5,), {3}),
    # 7 -> 1 at vertex 2K + 8 (second block) and at vertex 1: winding 2
    "two-forward-wraps": (7, ((1, 2) * K + tuple(range(1, 8))) * 2, set()),
    # 5 -> 1 at vertex B + 10 of B + 13, in the last, short block: winding 1
    "wrap-in-last-block": (
        5, (1, 2) * (B // 2 + 2) + (1, 2, 3, 4, 5) + (1, 2) * 2, set()
    ),
}


@pytest.mark.parametrize(
    "t, colors, missing", LONG_WALKS.values(), ids=LONG_WALKS.keys()
)
def test_long_closed_walks(t, colors, missing):
    c = CycleColoring(len(colors), t, colors)
    # the reflection x -> t + 1 - x turns every wrap the other way
    mirrored = CycleColoring(c.n, t, tuple(t + 1 - x for x in colors))
    for walk in (c, mirrored, rotate_edges(c, c.n // 2)):
        for mode in (INTERVAL, CYCLIC):
            got = loop_reference.report_values(verify(walk, mode))
            assert got == loop_reference.verify(walk, mode), (walk, mode)
    assert verify(c, CYCLIC).missing_colors == frozenset(missing)


LONG = 2 * B + S + 7  # two whole blocks and a short third one


@pytest.mark.parametrize(
    "n, vertices",
    [
        (LONG, [1]),
        (LONG, [LONG]),
        (LONG, [B, B + 1]),  # last of one block, first of the next
        (LONG, [B]),
        (LONG, [B + 1]),
        (LONG, [S]),  # last of a sub-block, first of the next
        (LONG, [S + 1]),
        (LONG, [B + S, B + S + 1]),
        (LONG, [2 * B + 1, 2 * B + S + 1]),  # sub-blocks of the short block
        (LONG, [5, B + 2 * S + 3]),  # two blocks
        (LONG, [S - 1, 2 * B + 2]),
        (B, [1, B]),  # one whole block
        (B + 1, [B + 1]),  # a last block of one vertex
        (S + 5, [S]),  # shorter than one block
        (S + 5, [S + 1, S + 5]),
        (S - 2, [S - 2]),  # shorter than one sub-block
        (LONG, list(range(B + 1, 2 * B + 1))),  # every vertex of a block
        # vertices 1 and 2 see the last color twice, and vertex 3 sees it
        # then 1: not proper and, in interval mode, not interval in one block
        (LONG, [1, 2]),
    ],
)
@pytest.mark.parametrize("t", [3, "long ascent"])
def test_violations_at_block_edges(n, vertices, t):
    # edge v takes the color of edge v - 1, so vertex v, which sees both,
    # is not proper; vertex v + 1 may break the rule as well.  Vertex n goes
    # first, so edge 1 copies the color edge n ends with
    t = n - 2 if t == "long ascent" else t
    colors = list(construct(n, t).colors)
    for v in sorted(vertices, key=lambda v: v % n):
        colors[v - 1] = colors[v - 2]
    c = CycleColoring(n, t, tuple(colors))
    assert_matches_reference(c)
    for mode in (INTERVAL, CYCLIC):
        found = {w.vertex for w in verify(c, mode).violations}
        assert found.issuperset(vertices), (vertices, mode)


def feasible_t(n, k):
    """The k-th feasible color count of C(n), cycling through them."""
    members = [t for t in range(2, n + 1) if contains(n, t)]
    return members[k % len(members)]


sizes = st.one_of(st.integers(3, 40), st.integers(41, 2000))


@st.composite
def random_colorings(draw):
    n = draw(sizes)
    t = draw(st.sampled_from([1, 2, 3, n]) | st.integers(1, n))
    rng = draw(st.randoms(use_true_random=False))
    return CycleColoring(n, t, tuple(rng.randint(1, t) for _ in range(n)))


@st.composite
def witnesses(draw):
    n = draw(sizes)
    t = draw(st.sampled_from([2, 3, n]) | st.integers(2, n))
    if not contains(n, t):
        t = feasible_t(n, t)
    c = rotate_edges(construct(n, t), draw(st.integers(0, n - 1)))
    return shift_colors(c, draw(st.integers(0, t - 1)))


@st.composite
def recolored_witnesses(draw):
    c = draw(witnesses())
    colors = list(c.colors)
    colors[draw(st.integers(0, c.n - 1))] = draw(st.integers(1, c.t))
    return CycleColoring(c.n, c.t, tuple(colors))


@settings(max_examples=150, deadline=None)
@given(random_colorings())
def test_random_colorings(c):
    assert_matches_reference(c)


@settings(max_examples=150, deadline=None)
@given(witnesses())
def test_rotated_shifted_witnesses(c):
    assert_matches_reference(c)


@settings(max_examples=150, deadline=None)
@given(recolored_witnesses())
def test_witnesses_with_one_edge_recolored(c):
    assert_matches_reference(c)


# the walks of test_verifier's test_walk_that_misses_colors: no wrap step
# and t never used, no wrap step and 1 never used, wraps both ways
MISSING_COLOR_WALKS = [
    CycleColoring(10_000, 3, (1, 2) * 5_000),
    CycleColoring(10_000, 3, (2, 3) * 5_000),
    CycleColoring(10_000, 5, (1, 5) * 5_000),
]


@settings(max_examples=100, deadline=None)
@given(
    witnesses() | recolored_witnesses() | st.sampled_from(MISSING_COLOR_WALKS)
)
@example(construct(12, 4))  # a zigzag: its wrap steps break interval mode
@example(construct(3_000, 1_000))  # the same over three blocks
def test_a_coloring_verified_again_gets_the_same_reports(c):
    # verify remembers the steps of a coloring it read with no violation
    # and reads none again in a mode that allows them; in either order of
    # the modes, twice over, and then in decompose, no report may change
    for order in ((INTERVAL, CYCLIC), (CYCLIC, INTERVAL)):
        again = CycleColoring(c.n, c.t, c.colors)
        for mode in order * 2:
            fresh = CycleColoring(c.n, c.t, c.colors)
            got = loop_reference.report_values(verify(again, mode))
            assert got == loop_reference.verify(fresh, mode), (order, mode)
        assert_decomposes_as_reference(again)


@pytest.mark.parametrize("n, t", [(200_000, 3), (200_000, 100_001), (199_999, 99_999)])
def test_large_witnesses(n, t):
    c = rotate_edges(construct(n, t), n // 3 + 1)
    assert_matches_reference(c)
    # an edge in the middle, and edge 10 * B, seen by the last vertex of
    # one block and the first of the next
    for e in (n // 2, 10 * B - 1):
        colors = list(c.colors)
        colors[e] = colors[e] % t + 1
        assert_matches_reference(CycleColoring(n, t, tuple(colors)))


def test_walks_match_the_recursive_walk():
    # the reference has no parity rule, so every odd-n "no" the walk answers
    # before its tree is checked here by exhausting that tree
    for n in range(3, 14):
        for t in range(1, n + 1):
            for mode, fix in (
                (CYCLIC, False), (INTERVAL, False), (CYCLIC, True), (INTERVAL, True)
            ):
                cfg = SearchConfig(mode=mode, fix_first_color=fix)
                got = list(_walks(n, t, cfg))
                assert got == list(loop_reference.walks(n, t, mode, fix)), (n, t, cfg)
