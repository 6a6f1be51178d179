import sys
import threading
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

import loop_reference
import naive_oracle
from counting_probe import HashCountingInt
from symmetry import rotate_edges, shift_colors

import cyclic_chroma.verifier
from cyclic_chroma import (
    CYCLIC,
    INTERVAL,
    NOT_CYCLIC_INTERVAL,
    NOT_INTERVAL,
    NOT_PROPER,
    CycleColoring,
    Violation,
    construct,
    decompose,
    enumerate_colorings,
    tent,
    verify,
    zigzag_staircase,
)
from cyclic_chroma.verifier import _steps


def coloring(colors, t=None):
    colors = tuple(colors)
    return CycleColoring(len(colors), t if t is not None else max(colors), colors)


colorings_st = st.integers(3, 10).flatmap(
    lambda n: st.integers(1, n).flatmap(
        lambda t: st.lists(st.integers(1, t), min_size=n, max_size=n).map(
            lambda cs: CycleColoring(n, t, tuple(cs))
        )
    )
)


class TestVertexPalette:
    # a violation names vertex i's palette as (color of edge i-1, of edge i)
    def test_wraparound_vertex(self):
        rep = verify(coloring([1, 2, 1, 2, 3]), INTERVAL)
        assert rep.violations == (Violation(1, (3, 1), NOT_INTERVAL),)

    def test_inner_vertex(self):
        rep = verify(coloring([1, 3, 2, 4]), CYCLIC)
        assert rep.violations[0] == Violation(2, (1, 3), NOT_CYCLIC_INTERVAL)

    def test_last_vertex(self):
        rep = verify(coloring([2, 1, 2, 4]), CYCLIC)
        assert rep.violations[-1] == Violation(4, (2, 4), NOT_CYCLIC_INTERVAL)


class TestIsProper:
    def test_valid(self):
        assert verify(coloring([1, 2, 1, 2, 3])).proper

    def test_repeated_adjacent(self):
        assert not verify(coloring([1, 1, 2])).proper

    def test_triangle(self):
        assert verify(coloring([1, 2, 3])).proper

    def test_single_color(self):
        assert not verify(coloring([1, 1, 1], t=1)).proper


class TestIsSurjective:
    def test_missing_color(self):
        assert not verify(coloring([1, 2, 1, 2], t=3)).surjective

    def test_exact(self):
        assert verify(coloring([1, 2, 1, 2], t=2)).surjective

    def test_all_used(self):
        assert verify(coloring([1, 2, 1, 2, 3], t=3)).surjective


class TestPaletteCyclicallyOk:
    def test_wrap_pair(self):
        assert 1 - 3 in _steps(3, CYCLIC)

    def test_ends_of_range(self):
        assert 4 - 1 in _steps(4, CYCLIC)

    def test_gap_pair(self):
        assert 3 - 1 not in _steps(4, CYCLIC)

    def test_repeated_color_rejected(self):
        # equal colors break properness at their vertex, in either mode
        for mode in (INTERVAL, CYCLIC):
            rep = verify(coloring([2, 2, 3, 4, 3]), mode)
            assert rep.violations[0] == Violation(2, (2, 2), NOT_PROPER), mode

    def test_color_outside_palette_rejected(self):
        # the difference 0 - 3 is -(t-1), but 0 is no color of [1, 4]: no
        # coloring holds it, so the step rule never sees such a pair
        with pytest.raises(ValueError):
            CycleColoring(4, 4, (0, 3, 1, 2))

    def test_steps_never_allow_equal_colors(self):
        for t in range(1, 51):
            for mode in (INTERVAL, CYCLIC):
                assert 0 not in _steps(t, mode), (t, mode)

    def test_degree_two_equivalence_exhaustive(self):
        # the function must match the literal rule: the pair or its complement
        # in [1, t] is a block of consecutive integers
        for t in range(2, 51):
            full = set(range(1, t + 1))
            for a in range(1, t + 1):
                for b in range(1, t + 1):
                    if a == b:
                        continue
                    pair_block = abs(a - b) == 1
                    rest = sorted(full - {a, b})
                    rest_block = bool(rest) and rest[-1] - rest[0] + 1 == len(rest)
                    literal = pair_block or (rest_block and len(rest) == t - 2)
                    shortcut = abs(a - b) == 1 or {a, b} == {1, t}
                    assert literal == shortcut
                    assert (b - a in _steps(t, CYCLIC)) == literal


class TestVerify:
    def test_cyclic_valid(self):
        rep = verify(coloring([1, 2, 1, 2, 3]), CYCLIC)
        assert rep.mode_satisfied
        assert rep.proper and rep.surjective
        assert rep.violations == ()
        assert rep.missing_colors == frozenset()

    def test_interval_wrap_violation(self):
        rep = verify(coloring([1, 2, 3, 4]), INTERVAL)
        assert not rep.mode_satisfied
        assert rep.proper and rep.surjective
        assert rep.violations[0].vertex == 1
        assert set(rep.violations[0].palette) == {4, 1}
        assert rep.violations[0].reason == NOT_INTERVAL

    def test_cyclic_gap_violation(self):
        rep = verify(coloring([1, 3, 2, 4]), CYCLIC)
        assert not rep.mode_satisfied
        assert rep.violations[0].vertex == 2
        assert set(rep.violations[0].palette) == {1, 3}
        assert rep.violations[0].reason == NOT_CYCLIC_INTERVAL
        # every failing vertex is reported, ascending
        assert [v.vertex for v in rep.violations] == [2, 4]

    def test_surjectivity_failure(self):
        rep = verify(coloring([1, 2, 1, 2], t=3), CYCLIC)
        assert not rep.mode_satisfied
        assert rep.proper
        assert not rep.surjective
        assert rep.missing_colors == frozenset({3})
        assert rep.violations == ()

    def test_not_proper_reported(self):
        rep = verify(coloring([1, 1, 2]), CYCLIC)
        assert not rep.proper
        assert any(v.reason == NOT_PROPER for v in rep.violations)

    def test_single_color_never_proper(self):
        rep = verify(coloring([1, 1, 1], t=1), CYCLIC)
        assert not rep.proper and not rep.mode_satisfied

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            verify(coloring([1, 2, 3]), "wrap")

    def test_json_schema(self):
        rep = verify(coloring([1, 3, 2, 4]), CYCLIC)
        data = rep.to_json_dict()
        assert set(data) == {
            "proper",
            "surjective",
            "valid",
            "violations",
            "missing_colors",
        }
        assert data["valid"] is False
        assert data["violations"][0] == {
            "vertex": 2,
            "palette": [1, 3],
            "reason": NOT_CYCLIC_INTERVAL,
        }

    @given(colorings_st)
    def test_report_invariants(self, c):
        for mode in (INTERVAL, CYCLIC):
            rep = verify(c, mode)
            if rep.mode_satisfied:
                assert rep.proper and rep.surjective and not rep.violations
            assert bool(rep.missing_colors) == (not rep.surjective)
            pairs = zip(c.colors, c.colors[1:] + c.colors[:1])
            assert rep.proper == all(x != y for x, y in pairs)
            assert rep.surjective == (set(c.colors) == set(range(1, c.t + 1)))

    @given(colorings_st)
    def test_agrees_with_naive_oracle(self, c):
        for mode in (INTERVAL, CYCLIC):
            assert verify(c, mode).mode_satisfied == naive_oracle.valid(
                c.colors, c.t, mode
            )

    @given(colorings_st)
    def test_interval_implies_cyclic(self, c):
        if verify(c, INTERVAL).mode_satisfied:
            assert verify(c, CYCLIC).mode_satisfied


class TestCoverageFromTheWalk:
    # a valid coloring is a closed walk on the color graph, and its steps
    # decide coverage: verify hashes none of its colors

    @staticmethod
    def counted(c):
        return CycleColoring(c.n, c.t, tuple(map(HashCountingInt, c.colors)))

    def hashes_of_verify(self, c, mode):
        HashCountingInt.hashes = 0
        rep = verify(c, mode)
        return rep, HashCountingInt.hashes

    @pytest.mark.parametrize(
        "t, modes",
        [
            (2, (INTERVAL, CYCLIC)),  # zigzag on two colors
            (4, (CYCLIC,)),  # zigzag: one wrap step, winding number 1
            (10_000, (CYCLIC,)),  # zigzag with no pad: 1, 2, ..., t
            (5, (INTERVAL, CYCLIC)),  # tent: no wrap step
            (5_001, (INTERVAL, CYCLIC)),  # the widest tent
        ],
    )
    def test_valid_coloring_hashes_no_color(self, t, modes):
        c = self.counted(construct(10_000, t))
        for mode in modes:
            rep, hashes = self.hashes_of_verify(c, mode)
            assert rep.mode_satisfied, (t, mode)
            assert hashes == 0, (t, mode)

    def test_recolored_coloring_misses_the_color_it_lost(self):
        colors = list(construct(10_000, 10_000).colors)
        colors[4_999] = 4_999  # edge 5000 held the only 5000
        c = self.counted(CycleColoring(10_000, 10_000, colors))
        rep, _ = self.hashes_of_verify(c, CYCLIC)
        assert rep == loop_reference.verify(c, CYCLIC)
        assert rep.missing_colors == frozenset({5_000})
        assert [v.vertex for v in rep.violations] == [5_000, 5_001]

    @pytest.mark.parametrize(
        "colors, t, missing",
        [
            ((1, 2) * 5_000, 3, {3}),  # no wrap step, t never used
            ((2, 3) * 5_000, 3, {1}),  # no wrap step, 1 never used
            ((1, 5) * 5_000, 5, {2, 3, 4}),  # wraps both ways, winding 0
        ],
    )
    def test_walk_that_misses_colors(self, colors, t, missing):
        c = self.counted(CycleColoring(len(colors), t, colors))
        for mode in (INTERVAL, CYCLIC):
            rep, _ = self.hashes_of_verify(c, mode)
            assert rep == loop_reference.verify(c, mode), mode
            assert rep.missing_colors == frozenset(missing), mode
            assert not rep.surjective and not rep.mode_satisfied, mode

    def test_missing_colors_take_one_set_of_the_colors(self):
        # the colors missing from a long ascent are read off one set of the
        # colors; a set of all t colors as well would double the peak
        n, t = 200_000, 199_998
        colors = list(construct(n, t).colors)
        colors[n // 2] += 1  # the ascent loses color n // 2 - 1
        c = CycleColoring(n, t, colors)

        def peak(f):
            tracemalloc.start()
            try:
                result = f()
                return result, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        _, one_set = peak(lambda: set(c.colors))
        rep, used = peak(lambda: verify(c, CYCLIC))
        assert rep.missing_colors == frozenset({n // 2 - 1})
        assert used <= 1.25 * one_set, (used, one_set)


@pytest.fixture
def reads(monkeypatch):
    """A list that grows by one for each vertex whose step verify reads."""
    seen = []

    def sub(b, a):
        seen.append(None)
        return b - a

    monkeypatch.setattr(cyclic_chroma.verifier, "sub", sub)
    return seen


def _built_from_a_verified_coloring():
    """Every builder's output; those that take a coloring get a verified one."""
    source = construct(3_000, 1_000)  # a zigzag over three blocks
    assert verify(source).mode_satisfied
    return [
        ("construct", construct(3_000, 1_001)),
        ("tent", tent(3_000, 999)),
        ("zigzag_staircase", zigzag_staircase(3_001, 3)),
        ("rotate_edges", rotate_edges(source, 1_500)),
        ("shift_colors", shift_colors(source, 7)),
        ("from_record", CycleColoring.from_record(source.to_record())),
    ] + [("enumerate_colorings", c) for c in enumerate_colorings(8, 4)]


def test_first_verify_reads_every_vertex_and_a_second_none(reads):
    # only verify's own read fills the memo, so no builder can vouch for
    # its output; a second verify whose mode allows every remembered step
    # reads no vertex, and one that does not reads them all again
    for builder, c in _built_from_a_verified_coloring():
        reads.clear()
        first = verify(c, CYCLIC)
        assert first.mode_satisfied and len(reads) == c.n, builder
        for mode in (INTERVAL, CYCLIC):
            want = loop_reference.verify(c, mode)
            reads.clear()
            assert verify(c, mode) == want, (builder, mode)
            if want.mode_satisfied:
                assert len(reads) == 0, (builder, mode)
            else:
                assert len(reads) >= c.n, (builder, mode)


def test_decompose_reads_a_verified_coloring_once(reads):
    # decompose verifies in cyclic mode first; after the caller's own
    # verify that check reads no vertex, so the CLI may call both
    c = construct(3_000, 1_001)
    assert verify(c, CYCLIC).mode_satisfied
    reads.clear()
    decompose(c)
    assert len(reads) == 0
    fresh = construct(3_000, 1_001)
    reads.clear()
    decompose(fresh)
    assert len(reads) == fresh.n


class CountingColors(tuple):
    """A tuple of colors that counts the ``in`` tests made on it."""

    def __contains__(self, x):
        self.tests += 1
        return super().__contains__(x)


@pytest.mark.parametrize(
    "colors, t, looks",
    [
        (tent(200_000, 99_999).colors, 99_999, True),  # no wrap
        ((1, 2) * 1_500, 3, True),  # no wrap, misses color 3
        ((1, 5) * 1_500, 5, False),  # wraps both ways, misses 2, 3 and 4
        (construct(3_001, 3).colors, 3, False),  # wraps one way
    ],
    ids=["tent", "path-missing-t", "winding-0", "zigzag"],
)
def test_a_second_verify_looks_for_no_color(colors, t, looks):
    # a first read of a walk with no wrap step tests 1 and t against the
    # colors; the memo keeps that verdict, so a later verify that reads no
    # vertex makes no ``in`` test on the colors either
    colors = CountingColors(colors)
    c = CycleColoring._trusted(len(colors), t, colors)
    for k, mode in enumerate((CYCLIC, INTERVAL, CYCLIC, INTERVAL)):
        want = loop_reference.verify(c, mode)
        reused = k > 0 and c._walk[0] <= _steps(t, mode)
        colors.tests = 0
        assert verify(c, mode) == want, (k, mode)
        if k == 0:
            assert colors.tests == (2 if looks else 0)
        elif reused:
            assert colors.tests == 0, (k, mode)
    assert reused == looks


def test_threads_verifying_shared_colorings_get_the_reference_reports():
    # four threads verify the same fresh colorings at once, in both modes
    # and either order, while the others may be filling the memos
    walks = [construct(3_000, t) for t in (3, 999, 1_000, 1_001)]
    walks.append(CycleColoring(3_000, 3, (1, 2) * 1_500))  # misses color 3
    want = {
        (i, mode): loop_reference.verify(c, mode)
        for i, c in enumerate(walks)
        for mode in (INTERVAL, CYCLIC)
    }
    wrong = []

    def work(shared, order):
        for i, c in enumerate(shared):
            for mode in order:
                if verify(c, mode) != want[i, mode]:
                    wrong.append((i, mode))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            shared = [CycleColoring(c.n, c.t, c.colors) for c in walks]
            threads = [
                threading.Thread(target=work, args=(shared, order))
                for order in ((INTERVAL, CYCLIC), (CYCLIC, INTERVAL)) * 2
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


class TestSymmetries:
    @given(colorings_st, st.integers(-15, 15))
    def test_shift_preserves_cyclic(self, c, delta):
        assert (
            verify(shift_colors(c, delta), CYCLIC).mode_satisfied
            == verify(c, CYCLIC).mode_satisfied
        )

    @given(colorings_st, st.integers(0, 9))
    def test_rotation_preserves_both_modes(self, c, k):
        r = rotate_edges(c, k % c.n)
        for mode in (INTERVAL, CYCLIC):
            assert verify(r, mode).mode_satisfied == verify(c, mode).mode_satisfied

    @given(colorings_st)
    def test_reversal_preserves_both_modes(self, c):
        r = CycleColoring(c.n, c.t, tuple(reversed(c.colors)))
        for mode in (INTERVAL, CYCLIC):
            assert verify(r, mode).mode_satisfied == verify(c, mode).mode_satisfied

    @given(colorings_st)
    def test_color_reflection_preserves_both_modes(self, c):
        r = CycleColoring(c.n, c.t, tuple(c.t + 1 - x for x in c.colors))
        for mode in (INTERVAL, CYCLIC):
            assert verify(r, mode).mode_satisfied == verify(c, mode).mode_satisfied

    def test_interval_mode_not_shift_invariant(self):
        # a shift can keep interval validity ...
        two = coloring([1, 2, 1, 2], t=2)
        assert verify(two, INTERVAL).mode_satisfied
        assert verify(shift_colors(two, 1), INTERVAL).mode_satisfied
        # ... but does not in general
        c = coloring([1, 2, 3, 2])
        assert verify(c, INTERVAL).mode_satisfied
        shifted = shift_colors(c, 1)
        assert shifted.colors == (2, 3, 1, 3)
        assert not verify(shifted, INTERVAL).mode_satisfied
        # cyclic validity survives the same shift
        assert verify(shifted, CYCLIC).mode_satisfied


class TestUSet:
    # U, the edges colored strictly between 1 and t, is the reference
    # decomposition's set; the library reports its size
    def test_interior_colors(self):
        c = coloring([1, 2, 1, 2, 3])
        assert loop_reference.u_set(c) == {2, 4}
        assert decompose(c).u_size == 2

    def test_staircase(self):
        c = coloring([1, 2, 3, 4])
        assert loop_reference.u_set(c) == {2, 3}
        assert decompose(c).u_size == 2

    def test_two_colors_empty(self):
        c = coloring([1, 2, 1, 2], t=2)
        assert loop_reference.u_set(c) == set()
        assert decompose(c).u_size == 0
