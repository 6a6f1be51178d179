import gc
import sys
import tracemalloc

import numpy
import pytest

from naive_oracle import count_naive, enumerate_naive, vertex_ok
from symmetry import rotate_edges
from walk_count import divisor_lists, swept_walk_counts, walk_counts

from cyclic_chroma import (
    CYCLIC,
    INTERVAL,
    MATERIALIZE_CAP,
    CycleColoring,
    ProofDecomposition,
    SearchBoundExceeded,
    SearchConfig,
    construct,
    contains,
    count_colorings,
    decompose,
    enumerate_colorings,
    exists_search,
    search_bound,
    theta_by_search,
    theta_cyclic,
    theta_interval,
    verify,
)
from cyclic_chroma import oracle
from cyclic_chroma.oracle import COUNT_CAP, _successor_table, _walks
from cyclic_chroma.verifier import _steps


class TestExistsSearch:
    def test_forbidden_value(self):
        assert not exists_search(6, 5, CYCLIC)

    def test_feasible_value(self):
        assert exists_search(5, 3, CYCLIC)

    def test_interval_feasible(self):
        assert exists_search(6, 3, INTERVAL)

    def test_odd_cycle_has_no_interval_coloring(self):
        for t in range(1, 6):
            assert not exists_search(5, t, INTERVAL)

    def test_fixing_soundness(self):
        # a valid coloring uses color 1 and stays valid rotated along the
        # cycle, so pinning edge 1 to color 1 loses no answer in either mode
        for mode in (CYCLIC, INTERVAL):
            for n in range(3, 15):
                for t in range(1, n + 1):
                    pinned = exists_search(n, t, mode, fix_first_color=True)
                    assert pinned == exists_search(n, t, mode), (n, t, mode)

    def test_fixing_in_interval_mode_answers_as_the_full_walk(self):
        for n, t, want in [(6, 3, True), (8, 4, True), (5, 3, False), (6, 5, False)]:
            assert exists_search(n, t, INTERVAL, fix_first_color=True) is want
            assert exists_search(n, t, INTERVAL) is want

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            exists_search(2, 2)
        with pytest.raises(ValueError):
            exists_search(6, 0)
        with pytest.raises(ValueError):
            exists_search(6, 7)
        with pytest.raises(ValueError):
            exists_search(6, 3, "wrap")

    @pytest.mark.parametrize(
        "search",
        [
            exists_search,
            count_colorings,
            enumerate_colorings,
            lambda n, t: theta_by_search(n),
        ],
        ids=["exists", "count", "enumerate", "theta"],
    )
    def test_sizes_must_be_ints(self, search):
        # the public constructor's rule: 6.0 is refused, not walked
        with pytest.raises(ValueError, match=r"^'n' must be an integer, got 6\.0$"):
            search(6.0, 3)
        with pytest.raises(ValueError, match=r"^'n' must be an integer, got True$"):
            search(True, 1)

    @pytest.mark.parametrize(
        "search", [exists_search, count_colorings, enumerate_colorings]
    )
    def test_a_bad_size_is_named_before_a_bad_color_count(self, search):
        with pytest.raises(ValueError, match=r"^cycle size must be >= 3, got 2$"):
            search(2, 2.5)

    @pytest.mark.parametrize(
        "search", [exists_search, count_colorings, enumerate_colorings]
    )
    def test_color_count_must_be_an_int(self, search):
        with pytest.raises(ValueError, match=r"^'t' must be an integer, got 3\.0$"):
            search(6, 3.0)
        with pytest.raises(ValueError, match=r"^'t' must be an integer, got '3'$"):
            search(6, "3")


class TestSearchBound:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("CYCLIC_CHROMA_MAX_N", raising=False)
        assert search_bound() == 14
        with pytest.raises(SearchBoundExceeded):
            exists_search(15, 3)
        # the count needs no search, but answers under the same bound
        with pytest.raises(SearchBoundExceeded):
            count_colorings(15, 3)

    def test_the_refusal_is_a_value_error(self):
        # one refusal type for every argument the package refuses
        assert issubclass(SearchBoundExceeded, ValueError)

    def test_except_value_error_catches_the_refusal(self, monkeypatch):
        monkeypatch.delenv("CYCLIC_CHROMA_MAX_N", raising=False)
        with pytest.raises(ValueError) as info:
            exists_search(15, 3)
        assert str(info.value) == (
            "n=15 exceeds the search bound 14 (set CYCLIC_CHROMA_MAX_N to raise it)"
        )

    def test_env_override_down(self, monkeypatch):
        monkeypatch.setenv("CYCLIC_CHROMA_MAX_N", "10")
        with pytest.raises(SearchBoundExceeded):
            exists_search(11, 3)

    def test_env_override_up(self, monkeypatch):
        monkeypatch.setenv("CYCLIC_CHROMA_MAX_N", "16")
        assert exists_search(15, 3)

    def test_env_ceiling(self, monkeypatch):
        # the walk holds O(n) state, capped at MATERIALIZE_CAP like the rest
        monkeypatch.setenv("CYCLIC_CHROMA_MAX_N", str(MATERIALIZE_CAP))
        assert search_bound() == MATERIALIZE_CAP
        assert count_colorings(500, 2) == 2
        monkeypatch.setenv("CYCLIC_CHROMA_MAX_N", str(MATERIALIZE_CAP + 1))
        with pytest.raises(ValueError) as info:
            search_bound()
        assert str(info.value) == (
            "CYCLIC_CHROMA_MAX_N must be at most 1000000, got 1000001"
        )

    @pytest.mark.parametrize("digits", [8, 5000])
    def test_env_with_more_digits_than_the_ceiling(self, monkeypatch, digits):
        # never passed to int(), which refuses a string past Python's digit
        # limit (4300 by default) with a message of its own
        monkeypatch.setenv("CYCLIC_CHROMA_MAX_N", "9" * digits)
        with pytest.raises(ValueError) as info:
            search_bound()
        assert str(info.value) == (
            "CYCLIC_CHROMA_MAX_N must be at most 1000000, "
            f"got <a {digits}-digit integer>"
        )

    def test_walk_deeper_than_the_recursion_limit(self, monkeypatch):
        n = 5000
        assert n > sys.getrecursionlimit()
        monkeypatch.setenv("CYCLIC_CHROMA_MAX_N", str(n))
        for mode in (CYCLIC, INTERVAL):
            assert count_colorings(n, 2, mode) == 2, mode
            assert len(enumerate_colorings(n, 2, SearchConfig(mode=mode))) == 2, mode
        # ≈0.03 s each on a 2-vCPU x86 VM; a cost per node that grows with
        # the depth would keep these from finishing
        n = 2 * 10**5
        monkeypatch.setenv("CYCLIC_CHROMA_MAX_N", str(n))
        for t in (3, 4):
            assert exists_search(n, t), t
        assert exists_search(n, 3, INTERVAL)
        assert exists_search(n, 3, CYCLIC, True)
        # past the first witness: the walk backs up from the last edge
        found = enumerate_colorings(n, 3, SearchConfig(limit=3))
        assert len(found) == 3
        for c in found:
            assert verify(c).mode_satisfied
        colors = [c.colors for c in found]
        assert colors[0] < colors[1] < colors[2]

    @pytest.mark.parametrize("n", [COUNT_CAP + 1, MATERIALIZE_CAP])
    def test_count_above_its_cap_refused(self, monkeypatch, n):
        # whatever the search bound: the count costs O(n^2) bit operations
        monkeypatch.setenv("CYCLIC_CHROMA_MAX_N", str(MATERIALIZE_CAP))
        with pytest.raises(ValueError) as info:
            count_colorings(n, 2)
        assert str(info.value) == (
            f"refusing to count the colorings for n={n} (cap {COUNT_CAP})"
        )

    def test_env_rejects_junk(self, monkeypatch):
        monkeypatch.setenv("CYCLIC_CHROMA_MAX_N", "012")
        with pytest.raises(ValueError):
            search_bound()
        monkeypatch.setenv("CYCLIC_CHROMA_MAX_N", "-4")
        with pytest.raises(ValueError):
            search_bound()


class TestAgainstNaiveEnumeration:
    def test_full_agreement_small(self):
        for n in range(3, 7):
            for t in range(1, n + 1):
                for mode in (CYCLIC, INTERVAL):
                    got = [c.colors for c in enumerate_colorings(n, t, SearchConfig(mode=mode))]
                    assert got == enumerate_naive(n, t, mode), (n, t, mode)

    def test_frozen_counts(self):
        assert count_colorings(3, 3) == count_naive(3, 3) == 6
        assert count_colorings(4, 3) == count_naive(4, 3) == 12
        assert count_colorings(4, 4) == count_naive(4, 4) == 8


class TestEnumerate:
    def test_triangle(self):
        found = enumerate_colorings(3, 3)
        assert len(found) == 6
        assert found[0].colors == (1, 2, 3)

    def test_square_staircases(self):
        found = [c.colors for c in enumerate_colorings(4, 4)]
        assert len(found) == 8
        # monotone walks in both directions from each starting color
        assert (1, 2, 3, 4) in found and (1, 4, 3, 2) in found

    def test_lexicographic_order(self):
        for n, t in [(5, 3), (6, 4), (7, 5)]:
            got = [c.colors for c in enumerate_colorings(n, t)]
            assert got == sorted(got)

    def test_limit_truncates(self):
        unlimited = enumerate_colorings(4, 3)
        limited = enumerate_colorings(4, 3, SearchConfig(limit=2))
        assert len(limited) == 2
        assert limited == unlimited[:2]

    def test_fix_first_color_filters(self):
        # exactly the full walk's tuples that start with color 1, in order
        full = list(_walks(6, 4, CYCLIC, range(1, 5)))
        fixed = list(_walks(6, 4, CYCLIC, (1,)))
        assert fixed and fixed == [colors for colors in full if colors[0] == 1]

    def test_count_matches_enumeration(self):
        for n in range(3, 9):
            for t in range(1, n + 1):
                assert count_colorings(n, t) == len(enumerate_colorings(n, t)), (n, t)

    def test_walk_adjacency_property(self):
        for n in range(3, 9):
            for t in range(2, n + 1):
                for c in enumerate_colorings(n, t):
                    for i in range(n):
                        assert vertex_ok(
                            c.colors[i - 1], c.colors[i], t, CYCLIC
                        ), (c.colors, i)


def _assert_three_counts_agree(sizes) -> None:
    # count_colorings, the frozen binomial rows of tests/walk_count.py and
    # the depth-first walk are three independent counts
    for n in sizes:
        for mode in (CYCLIC, INTERVAL):
            got = [count_colorings(n, t, mode) for t in range(1, n + 1)]
            walked = [
                sum(1 for _ in _walks(n, t, mode, range(1, t + 1)))
                for t in range(1, n + 1)
            ]
            assert walk_counts(n, mode)[1:] == got == walked, (n, mode)


class TestAgainstWalkCount:
    def test_counts_match_search(self):
        _assert_three_counts_agree(range(3, 15))

    def test_counts_match_search_past_the_default_bound(self, monkeypatch):
        monkeypatch.setenv("CYCLIC_CHROMA_MAX_N", "16")
        _assert_three_counts_agree([15, 16])

    def test_the_sweep_equals_the_walk_count(self):
        divisors = divisor_lists(120)
        for n in range(3, 121):
            swept = swept_walk_counts(n, divisors)
            for mode in (CYCLIC, INTERVAL):
                assert swept[mode] == walk_counts(n, mode), (n, mode)

    def test_existence_matches_formulas(self):
        # both directions of the theorem for every t <= n <= 2000, with no search
        divisors = divisor_lists(2000)
        for n in range(3, 2001):
            swept = swept_walk_counts(n, divisors)
            cyc, itv = swept[CYCLIC], swept[INTERVAL]
            assert min(cyc + itv) >= 0, n
            interval = theta_interval(n)
            for t in range(1, n + 1):
                assert (cyc[t] > 0) == contains(n, t), (n, t)
                assert (itv[t] > 0) == (t in interval), (n, t)

    def test_count_is_positive_exactly_when_feasible(self, monkeypatch):
        monkeypatch.setenv("CYCLIC_CHROMA_MAX_N", "120")
        for n in range(3, 121):
            interval = theta_interval(n)
            for t in range(1, n + 1):
                assert (count_colorings(n, t) > 0) == contains(n, t), (n, t)
                positive = count_colorings(n, t, INTERVAL) > 0
                assert positive == (t in interval), (n, t)

    @pytest.mark.parametrize("t", [2, 3, 10_001])
    def test_count_keeps_no_row_of_binomials(self, monkeypatch, t):
        # a row of C(20000, j) would take ≈25 MB; one binomial takes 2.5 kB
        n = 20_000
        monkeypatch.setenv("CYCLIC_CHROMA_MAX_N", str(n))
        count_colorings(3, 3)  # warm up: imports and caches of its own
        tracemalloc.start()
        try:
            count = count_colorings(n, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert (count > 0) == contains(n, t)


# the nodes the walk extends (one per successor pair it unpacks, the
# last edge's choice at depth n - 2 included) for t = 1..14 at n = 14, full
# enumeration; frozen, so that a change to the tree or to its prune shows
# here even when the colorings stay the same
NODES_14 = {
    CYCLIC: [1, 26, 24573, 32756, 39995, 42210, 37009, 28328, 18297, 11210,
             5423, 2748, 871, 350],
    INTERVAL: [1, 26, 633, 3182, 7433, 10644, 10937, 9336, 6535, 4320, 2273,
               1240, 453, 194],
}


class TestWalkTree:
    @pytest.mark.parametrize("mode", [CYCLIC, INTERVAL])
    def test_the_walk_extends_a_frozen_number_of_nodes(self, monkeypatch, mode):
        extended = 0

        # a plain list unpacks without a call to __iter__, a subclass
        # through it: the walk unpacks succ[c] once per node it extends
        class Counted(list):
            def __iter__(self):
                nonlocal extended
                extended += 1
                return super().__iter__()

        table = oracle._successor_table
        monkeypatch.setattr(
            oracle, "_successor_table", lambda t, m: [Counted(s) for s in table(t, m)]
        )
        counts = walk_counts(14, mode)
        got = []
        for t in range(1, 15):
            extended = 0
            found = sum(1 for _ in _walks(14, t, mode, range(1, t + 1)))
            assert found == counts[t], t
            got.append(extended)
        assert got == NODES_14[mode]


class TestWalkCleanup:
    def test_abandoned_walks_leave_no_cycles(self):
        gc.collect()
        gc.disable()
        try:
            walks = [_walks(14, t, CYCLIC, range(1, t + 1)) for t in range(1, 15)]
            for w in walks:
                next(w, None)
            del walks, w
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSuccessorTable:
    def test_matches_naive_vertex_rule(self):
        for t in range(1, 51):
            for mode in (CYCLIC, INTERVAL):
                succ = _successor_table(t, mode)
                for a in range(1, t + 1):
                    expected = [
                        b for b in range(1, t + 1) if b != a and vertex_ok(a, b, t, mode)
                    ]
                    assert succ[a] == expected, (t, mode, a)

    def test_equals_the_quadratic_comprehension(self):
        # the rule written out directly: every color tried against every
        # other, O(t^2)
        for t in range(1, 300):
            for mode in (CYCLIC, INTERVAL):
                steps = _steps(t, mode)
                colors = range(1, t + 1)
                want = [[]] + [
                    [b for b in colors if b != a and b - a in steps] for a in colors
                ]
                assert _successor_table(t, mode) == want, (t, mode)


class TestSearchConfig:
    def test_bad_mode(self):
        with pytest.raises(ValueError):
            SearchConfig(mode="wrap")

    def test_bad_limit(self):
        with pytest.raises(ValueError):
            SearchConfig(limit=0)

    @pytest.mark.parametrize("limit", [2.5, 2.0, "3", True])
    def test_limit_must_be_an_int(self, limit):
        message = f"^limit must be an integer, got {limit!r}$"
        with pytest.raises(ValueError, match=message):
            SearchConfig(limit=limit)

    def test_int_limit_truncates(self):
        assert len(enumerate_colorings(6, 3, SearchConfig(limit=2))) == 2

    @pytest.mark.parametrize("limit", [sys.maxsize, sys.maxsize + 1, 10**30])
    def test_limit_past_any_list_truncates_nothing(self, limit):
        # islice takes no stop past sys.maxsize, and no list is that long
        got = enumerate_colorings(6, 3, SearchConfig(limit=limit))
        assert got == enumerate_colorings(6, 3)

    @pytest.mark.parametrize("config", ["interval", CYCLIC, {"limit": 2}, 2])
    def test_config_must_be_a_search_config(self, config):
        message = f"^config must be a SearchConfig, got {type(config).__name__}$"
        with pytest.raises(ValueError, match=message):
            enumerate_colorings(5, 3, config)

    def test_fixing_in_interval_mode_keeps_the_walks_from_color_1(self):
        full = list(_walks(8, 4, INTERVAL, range(1, 5)))
        fixed = list(_walks(8, 4, INTERVAL, (1,)))
        assert fixed and fixed == [colors for colors in full if colors[0] == 1]

    @pytest.mark.parametrize("fix", ["no", 1, None, numpy.True_], ids=repr)
    @pytest.mark.parametrize("mode", [CYCLIC, INTERVAL])
    def test_fixing_must_be_a_bool(self, fix, mode):
        # refused alike in either mode, before n and t are read
        message = f"fix_first_color must be a bool, got {fix!r}"
        with pytest.raises(ValueError) as info:
            exists_search(2, 0, mode, fix_first_color=fix)
        assert str(info.value) == message


class TestThetaBySearch:
    def test_odd(self):
        assert theta_by_search(5, CYCLIC).members == (3, 5)

    def test_even(self):
        assert theta_by_search(6, CYCLIC).members == (2, 3, 4, 6)

    def test_interval(self):
        assert theta_by_search(6, INTERVAL).members == (2, 3, 4)

    def test_provenance(self):
        assert theta_by_search(5, CYCLIC).provenance == "search"

    def test_equals_the_closed_forms_past_the_default_bound(self, monkeypatch):
        monkeypatch.setenv("CYCLIC_CHROMA_MAX_N", "20")
        for n in range(3, 21):
            assert theta_by_search(n, CYCLIC).members == theta_cyclic(n).members, n
            assert theta_by_search(n, INTERVAL).members == theta_interval(n).members, n


class TestDecompose:
    def test_two_component_example(self):
        d = decompose(CycleColoring(7, 5, (1, 2, 1, 2, 3, 4, 5)))
        assert not d.connected
        assert d.m == 2
        assert d.u_size == 4
        assert d.psi == (1, 5, 2, 3)
        assert d.psi_sum == 7 + 2 * 2
        assert d.y == (0, 0, 1, 0)
        assert d.horizontal == (True, False, False, True)
        assert d.m1 == frozenset({1, 2})
        assert d.m2 == frozenset({1})

    def test_rotation_recorded_and_normalizes(self):
        c = CycleColoring(7, 5, (1, 2, 1, 2, 3, 4, 5))
        d = decompose(c)
        assert d.rotation == 2
        rotated = rotate_edges(c, d.rotation)
        # edge 1 starts the first run and edge n carries an interior color
        assert rotated.colors[0] in (1, 5)
        assert 1 < rotated.colors[-1] < 5
        for span in d.components:
            for k in range(span.zeta, span.eta + 1):
                assert rotated.colors[k - 1] in (1, 5)

    def test_no_interior_colors(self):
        d = decompose(CycleColoring(6, 2, (1, 2, 1, 2, 1, 2)))
        assert d.connected and d.m == 1 and d.u_size == 0

    def test_single_run_wrapping_the_seam(self):
        d = decompose(CycleColoring(4, 4, (1, 2, 3, 4)))
        assert d.connected and d.m == 1 and d.u_size == 2

    def test_broken_invariants_rejected(self):
        # psi sums to 4, not n + 2m = 11; the check must survive python -O
        with pytest.raises(ValueError):
            ProofDecomposition(
                n=7, t=5, u_size=4, rotation=0, y=(0, 0, 1, 0), psi=(1, 1, 1, 1)
            )

    @staticmethod
    def lengths(psi, y):
        return (
            r"psi must be empty or have an even length >= 4, and y its length; "
            f"got {psi} and {y} entries"
        )

    Y = (0, 0, 1, 0)

    @pytest.mark.parametrize(
        "y, psi, message",
        [
            ((), (1, 5, 2), lengths(3, 0)),
            ((0, 1), (), lengths(0, 2)),
            ((), (7, 2), lengths(2, 0)),
            ((0, 1), (1, 8), lengths(2, 2)),
            ((0, 0, 1), (1, 5, 2, 3), lengths(4, 3)),
            ((0, 0, 2, 0), (1, 5, 2, 3), "y entries must be 0 or 1"),
            (Y, (0, 6, 2, 3), r"every run size \|H_q\| must be >= 1"),
            (Y, (2, 2, 4, 3), r"every gap size \|H'_q\| must be >= 3"),
        ],
        ids=[
            "odd-psi", "connected-y", "connected-psi", "split-m",
            "y-length", "y-entry", "run-size", "gap-size",
        ],
    )
    def test_impossible_structure_refused(self, y, psi, message):
        # every other field is that of decompose(CycleColoring(7, 5, ...)) in
        # test_two_component_example; the checks must survive python -O
        with pytest.raises(ValueError, match=f"^{message}$"):
            ProofDecomposition(7, 5, 4, 0, y, psi)

    @pytest.mark.parametrize(
        "u_size, rotation, y, psi, message",
        [
            # case B: the interior edges are those outside the runs, 7 - 3
            (5, 0, Y, (1, 5, 2, 3), r"u_size must be n - sum\(psi\[0::2\]\) = 4"),
            (4, 7, Y, (1, 5, 2, 3), r"rotation must lie in \[0, 7\), and be 0 in case A"),
            (4, -1, Y, (1, 5, 2, 3), r"rotation must lie in \[0, 7\), and be 0 in case A"),
            # case A: some edge has a boundary color, so fewer than n are interior
            (7, 0, (), (), r"u_size must lie in \[0, 7\)"),
            (-1, 0, (), (), r"u_size must lie in \[0, 7\)"),
            (4, 2, (), (), r"rotation must lie in \[0, 7\), and be 0 in case A"),
        ],
        ids=[
            "split-u-size", "split-rotation-past-n", "split-rotation-negative",
            "connected-u-size-n", "connected-u-size-negative", "connected-rotation",
        ],
    )
    def test_facts_that_contradict_psi_refused(self, u_size, rotation, y, psi, message):
        # what decompose(CycleColoring(7, 5, ...)) could never return
        with pytest.raises(ValueError, match=f"^{message}$"):
            ProofDecomposition(7, 5, u_size, rotation, y, psi)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ((7, 999, 4, 0, (), ()), r"color count must lie in \[1, 7\], got t=999"),
            ((7, 0, 4, 0, (), ()), r"color count must lie in \[1, 7\], got t=0"),
            ((7, 5, 4.0, 0, (), ()), r"'u_size' must be an integer, got 4.0"),
            ((7, 5, True, 0, (), ()), r"'u_size' must be an integer, got True"),
            ((7, 5, 4, False, (), ()), r"'rotation' must be an integer, got False"),
            ((7, 5, 4, None, (), ()), r"'rotation' must be an integer, got None"),
            (("7", 5, 4, 0, (), ()), r"'n' must be an integer, got '7'"),
            ((None, 5, 4, 0, (), ()), r"'n' must be an integer, got None"),
            ((2, 2, 1, 0, (), ()), r"cycle size must be >= 3, got 2"),
            ((7, "5", 4, 0, (), ()), r"'t' must be an integer, got '5'"),
            ((7, 5.0, 4, 0, (), ()), r"'t' must be an integer, got 5.0"),
        ],
        ids=[
            "t-above-n", "t-zero", "u-size-float", "u-size-bool", "rotation-bool",
            "rotation-none", "n-str", "n-none", "n-below-three", "t-str", "t-float",
        ],
    )
    def test_bad_scalar_fields_refused(self, fields, message):
        # refused with ValueError before psi is read; the check must survive python -O
        with pytest.raises(ValueError, match=f"^{message}$"):
            ProofDecomposition(*fields)

    def test_a_decomposition_keeps_its_own_facts(self):
        d = decompose(construct(11, 5))
        assert not d.connected
        with pytest.raises(ValueError) as info:
            ProofDecomposition(11, 5, 999, -7, d.y, d.psi)
        assert str(info.value) == f"u_size must be n - sum(psi[0::2]) = {d.u_size}"

    def test_invalid_coloring_rejected(self):
        with pytest.raises(ValueError):
            decompose(CycleColoring(4, 4, (1, 3, 2, 4)))

    def test_structure_invariants_exhaustive(self):
        for n in range(4, 9):
            for t in range(1, n + 1):
                if not contains(n, t):
                    continue
                for c in enumerate_colorings(n, t):
                    d = decompose(c)
                    if d.connected:
                        assert d.components == ()
                        continue
                    m = d.m
                    assert m >= 2
                    assert len(d.y) == len(d.psi) == len(d.horizontal) == 2 * m
                    assert d.psi_sum == n + 2 * m
                    assert sum(1 for h in d.horizontal if not h) % 2 == 0
                    assert d.m1 | d.m2 == set(range(1, m + 1))
                    spans = d.components
                    assert spans[0].zeta == 1
                    assert spans[-1].eta <= n - 1
                    for a, b in zip(spans, spans[1:]):
                        assert a.zeta <= a.eta < b.zeta
                    for q, span in enumerate(spans):
                        assert d.psi[2 * q] == span.h_size == span.eta - span.zeta + 1
                        assert d.psi[2 * q + 1] == span.h_prime_size
