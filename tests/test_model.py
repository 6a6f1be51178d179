import json
import operator
import pickle
import re
import sys
from collections.abc import Hashable
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_reference
from counting_probe import CountingProbe, HashOnlyProbe
from symmetry import epsilon, rotate_edges, shift_colors

from cyclic_chroma import (
    MATERIALIZE_CAP,
    CycleColoring,
    Infeasible,
    ProofDecomposition,
    SearchBoundExceeded,
    SearchConfig,
    ThetaSet,
    construct,
    exists_search,
    forbidden_set,
    tent,
    theta_cyclic,
    theta_interval,
    zigzag_staircase,
)
from cyclic_chroma.characterization import _gap, _show_range
from cyclic_chroma.model import _show_int


class Parity(IntEnum):
    """An int subclass that is not bool: its members must pass as ints."""

    EVEN = 0
    ODD = 1


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


class TestEpsilon:
    def test_even(self):
        assert epsilon(4) == 1

    def test_odd(self):
        assert epsilon(5) == 0

    def test_one(self):
        assert epsilon(1) == 0

    def test_int_subclass(self):
        assert epsilon(Parity.ODD) == 0

    @given(st.integers(1, 10**6))
    def test_parity_closed_form(self, k):
        assert epsilon(k) == 1 + k // 2 - (k + 1) // 2


class TestSgnNat:
    # the reference decomposition's 0/1 profile of run-end colors rests on it
    def test_zero(self):
        assert loop_reference.sgn_nat(0) == 0

    def test_one(self):
        assert loop_reference.sgn_nat(1) == 1

    def test_larger(self):
        assert loop_reference.sgn_nat(7) == 1


def _reference(members, n=None):
    """A ThetaSet of members, hand-built, and the frozenset it must act as."""
    members = tuple(sorted(members))
    n = max((3, *members)) if n is None else n
    return ThetaSet(n, members, "search"), frozenset(members)


@st.composite
def theta_sets(draw):
    """(a ThetaSet, frozenset of its members): built by hand, a closed form
    for n <= 300, or forbidden_set for n up to 10**6."""
    kind = draw(st.sampled_from(["hand", "closed", "forbidden"]))
    if kind == "hand":
        n = draw(st.integers(3, 60))
        members = draw(st.sets(st.integers(2, n)))
        return _reference(members, n)
    if kind == "closed":
        n = draw(st.integers(3, 300))
        build = draw(st.sampled_from([theta_cyclic, theta_interval, forbidden_set]))
    else:
        n = draw(st.integers(2, 20).flatmap(lambda k: st.integers(3, min(2**k, 10**6))))
        build = forbidden_set
    ts = build(n)
    return ts, frozenset(ts.members)


SET_OPERATORS = [operator.or_, operator.and_, operator.sub, operator.xor]
COMPARISONS = [
    operator.eq, operator.ne, operator.le, operator.lt, operator.ge, operator.gt
]


@settings(deadline=None)
@given(theta_sets(), st.data())
def test_a_theta_set_acts_as_the_frozenset_of_its_members(drawn, data):
    ts, ref = drawn
    assert len(ts) == len(ref) and bool(ts) == bool(ref)
    assert list(ts) == sorted(ref)
    assert hash(ts) == hash(ref)
    near = sorted(ref)[:6] + sorted(ref)[-6:] + [0, 1, 2, 3, ts.n, ts.n + 1]
    for x in near:
        assert (x in ts) == (x in ref), x
        for probe in (float(x), numpy.int64(x), str(x)):
            assert (probe in ts) == (probe in ref), repr(probe)
    assert (True in ts) == (True in ref) and (None in ts) == (None in ref)
    # another set: drawn near ts's members, or ts's own members with one
    # more or one fewer, so that equal and subset cases come up
    pool = st.sampled_from(near) | st.integers(-2, ts.n + 2)
    members = data.draw(st.sets(pool, max_size=8) | st.sampled_from(
        [ref, ref | {ts.n + 1}, ref - {min(ref, default=0)}]
    ))
    plain = frozenset(members)
    others = [set(plain), plain, dict.fromkeys(plain).keys()]
    if all(x >= 2 for x in plain):
        others.append(_reference(plain)[0])
    for other in others:
        name = type(other).__name__
        for op in COMPARISONS:
            assert op(ts, other) == op(ref, plain), (name, op)
            assert op(other, ts) == op(plain, ref), (name, op)
        assert ts.isdisjoint(other) == ref.isdisjoint(plain), name
        assert other.isdisjoint(ts) == plain.isdisjoint(ref), name
        for op in SET_OPERATORS:
            forward, reflected = op(ts, other), op(other, ts)
            assert type(forward) is set and forward == op(ref, plain), (name, op)
            assert type(reflected) is set and reflected == op(plain, ref), (name, op)
        if ts == other and isinstance(other, Hashable):
            assert hash(ts) == hash(other), name


def test_order_between_theta_sets_walks_their_parts():
    # {4, 6, 8} spans both runs of {2, 3, 4, 6, 8, 10}
    small = ThetaSet(10, (4, 6, 8), "search")
    large = ThetaSet(10, (2, 3, 4, 6, 8, 10), "search")
    assert large._parts == (range(2, 5), range(6, 11, 2))
    assert small < large and large > small and not large <= small
    assert not ThetaSet(10, (3, 5), "search") <= large
    # theta_cyclic's shape past sys.maxsize: 2..s, then every second t to n
    n = 10**20
    s = n // 2 + 2
    huge = ThetaSet._of_parts(n, (range(2, s + 1), range(s + 2, n + 1, 2)), "formula")
    within = [range(4, s, 2), range(s - 2, n + 1, 2), range(2, 5), range(n, n + 1)]
    for inside in within:
        part = ThetaSet._of_parts(n, (inside,), "search")
        assert part < huge and huge > part and part <= huge and huge >= part, inside
    two = ThetaSet._of_parts(n, (range(2, 5), range(6, n + 1, 2)), "search")
    assert two < huge and not huge <= two
    for outside in [range(s - 1, n, 2), range(3, s + 2), range(s + 1, s + 2)]:
        part = ThetaSet._of_parts(n, (outside,), "search")
        assert not part <= huge and not huge >= part and not part < huge, outside
    assert not forbidden_set(n) <= huge and not huge >= forbidden_set(n)


def test_a_hash_builds_no_members_memo():
    ts = theta_cyclic(1000)
    assert hash(ts) == hash(frozenset(iter(ts)))
    assert not hasattr(ts, "_members")
    with pytest.raises(TypeError, match="refusing to hash a set of 1000001 members"):
        hash(ThetaSet._of_parts(10**6 + 2, (range(2, 10**6 + 3),), "search"))


class TestRangeSet:
    """ThetaSets of one range, as forbidden_set builds them, at every size."""

    CASES = [range(4, 9, 2), range(7, 10, 2), range(2, 3), range(5, 5), range(3, 13, 3)]

    @staticmethod
    def one_range(r, n=12):
        """The set of r's members, checked as a pickle's parts are."""
        return ThetaSet._of_parts(n, (r,) if r else (), "search")

    @pytest.mark.parametrize("r", CASES)
    def test_equal_to_the_set_of_the_range(self, r):
        rs, plain = self.one_range(r), set(r)
        assert rs == plain and plain == rs
        assert rs == frozenset(r) and frozenset(r) == rs
        assert not rs != plain and not plain != rs
        assert rs != plain | {100} and plain | {100} != rs
        assert rs == ThetaSet(12, tuple(r), "formula")
        assert hash(rs) == hash(frozenset(r))
        assert len(rs) == len(plain)
        assert bool(rs) == bool(plain)
        assert list(rs) == sorted(plain)

    @pytest.mark.parametrize("r", CASES)
    def test_operators_in_both_orders_return_sets(self, r):
        rs, plain = self.one_range(r), set(r)
        others = [{4, 5, 6, 100}, frozenset({7, 8}), set(), plain]
        others += [self.one_range(range(4, 12, 3)), self.one_range(range(3, 12, 2)), rs]
        for other in others:
            for op, name, kind in [
                (lambda a, b: a | b, "|", set),
                (lambda a, b: a & b, "&", set),
                (lambda a, b: a - b, "-", set),
                (lambda a, b: a ^ b, "^", set),
                (lambda a, b: a <= b, "<=", bool),
                (lambda a, b: a < b, "<", bool),
                (lambda a, b: a >= b, ">=", bool),
                (lambda a, b: a > b, ">", bool),
            ]:
                forward, reflected = op(rs, other), op(other, rs)
                assert type(forward) is kind and type(reflected) is kind, name
                assert forward == op(plain, set(other)), name
                assert reflected == op(set(other), plain), name
        assert type(rs | self.one_range(range(2, 4))) is set
        assert rs | self.one_range(range(2, 4)) == plain | {2, 3}

    def test_operators_refuse_non_sets_like_set(self):
        rs = self.one_range(range(4, 9, 2))
        for bad in ([1], (1,), "1"):
            with pytest.raises(TypeError):
                rs | bad
            with pytest.raises(TypeError):
                bad - rs

    def test_read_only_and_hashed_like_a_frozenset(self):
        rs = self.one_range(range(4, 9, 2))
        assert hash(rs) == hash(frozenset({4, 6, 8}))
        assert {rs, frozenset({4, 6, 8})} == {rs}
        for method in ("add", "discard", "remove", "update", "union", "clear"):
            assert not hasattr(rs, method), method
        with pytest.raises(AttributeError):
            rs.extra = 1

    @pytest.mark.parametrize("n", [10**20, 10**20 + 1])
    def test_more_members_than_sys_maxsize(self, n):
        rs = forbidden_set(n)
        assert n - 1 in rs
        assert bool(rs)
        assert rs != set() and set() != rs
        assert rs != {4, 5} and frozenset({n - 1}) != rs
        assert rs == pickle.loads(pickle.dumps(rs)) and rs._parts == (_gap(n),)
        assert rs != {}.keys() and {}.keys() != rs
        assert repr(rs) == (
            f"ThetaSet(n={n}, parts=({_show_range(_gap(n))},), provenance='formula')"
        )
        with pytest.raises(OverflowError):
            len(rs)
        with pytest.raises(TypeError, match="refusing to hash"):
            hash(rs)

    @pytest.mark.parametrize("n", [10**20, 10**20 + 1])
    def test_order_comparisons_past_sys_maxsize(self, n):
        rs = forbidden_set(n)
        assert not rs <= {1} and not {1} >= rs
        assert rs >= set() and set() <= rs
        assert not rs < {1} and not {1} > rs
        assert rs > set() and set() < rs
        assert rs >= {n - 1} and not rs >= {n - 1, n}
        # two ThetaSets compare from their parts, whatever their sizes
        gap = _gap(n)
        wider = self.one_range(range(gap.start, 2 * n, gap.step), 2 * n)
        assert rs <= wider and rs < wider and wider >= rs and wider > rs
        assert not wider <= rs and not rs > wider and rs != wider
        assert rs == forbidden_set(n) and wider != forbidden_set(n)
        shifted = self.one_range(range(gap.start + 1, n, gap.step), n)
        assert not rs <= shifted and not shifted <= rs and not wider <= shifted

    def test_operators_refuse_a_range_past_the_cap(self):
        rs = forbidden_set(10**9)
        message = "refusing to materialize a set of 249999999 members"
        for op in (operator.or_, operator.and_, operator.sub, operator.xor):
            with pytest.raises(ValueError, match=message):
                op(rs, {1})
            with pytest.raises(ValueError, match=message):
                op({1}, rs)
        with pytest.raises(ValueError, match=message):
            rs.members
        below = forbidden_set(2 * 10**6)
        assert below | {1} == {1, *range(10**6 + 3, 2 * 10**6, 2)}
        assert {1} | below == below | {1}

    def test_equal_to_any_set_with_the_same_members(self):
        rs = forbidden_set(10)
        assert rs == {7: 0, 9: 0}.keys() and {7: 0, 9: 0}.keys() == rs
        assert rs != {7: 0}.keys() and {7: 0, 8: 0}.keys() != rs
        assert rs != [7, 9] and rs != (7, 9)

    def test_rejects_a_descending_range(self):
        with pytest.raises(ValueError):
            self.one_range(range(9, 3, -2))
        with pytest.raises(ValueError):
            ThetaSet(12, tuple(range(9, 3, -2)), "search")

    def test_non_int_probes_answer_like_a_set(self):
        probes = [
            2.0, 2.5, "3", Decimal("NaN"), Decimal(4), None, Fraction(4),
            Fraction(9, 2), 4 + 0j, 4 + 1j, True, False, float("nan"),
            float("inf"), Parity.ODD, 1e300, numpy.int64(4), numpy.int32(3),
            # no __index__ and no __trunc__
            numpy.True_, numpy.False_, numpy.float32(3), numpy.float32(2.5),
        ]
        for r in (range(2, 9), range(3, 9, 2)):
            rs, plain = self.one_range(r), set(r)
            for x in probes:
                assert (x in rs) == (x in plain), (r, x)
        # a probe that a set cannot hash is answered as by the members tuple
        assert [] not in rs and Decimal("sNaN") not in rs

    def test_a_probe_makes_few_comparisons(self):
        rs = forbidden_set(2 * 10**6 + 1)
        for value in (10, 11, -4, 2 * 10**6, 10**18):
            probe = CountingProbe(value)
            assert (probe in rs) == (value in rs)
            assert probe.eq_calls <= 2
            probe = HashOnlyProbe(value)
            probe in rs
            assert probe.eq_calls <= 2


class TestCycleColoring:
    def test_too_small(self):
        with pytest.raises(ValueError):
            CycleColoring(2, 2, (1, 2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            CycleColoring(4, 3, (1, 2, 1))

    def test_color_out_of_range(self):
        with pytest.raises(ValueError):
            CycleColoring(3, 2, (1, 2, 3))
        with pytest.raises(ValueError):
            CycleColoring(3, 3, (0, 1, 2))

    def test_bad_t(self):
        with pytest.raises(ValueError):
            CycleColoring(3, 0, (1, 1, 1))

    def test_t_above_n(self):
        # a proper coloring uses all t colors on its n edges, so t <= n
        message = "color count must lie in [1, 3], got t=4"
        with pytest.raises(ValueError, match=re.escape(message)):
            CycleColoring(3, 4, (1, 2, 3))
        with pytest.raises(ValueError, match=re.escape(message)):
            CycleColoring.from_record({"n": 3, "t": 4, "colors": [1, 2, 3]})

    @pytest.mark.parametrize(
        "colors, shown",
        [((True, 2, 3), "True"), ((1, 2, 3.0), "3.0"), ((1.5, 2, 3), "1.5")],
    )
    def test_names_the_first_non_int_color(self, colors, shown):
        with pytest.raises(ValueError) as info:
            CycleColoring(3, 3, colors)
        assert str(info.value) == f"'colors' entry must be an integer, got {shown}"

    @pytest.mark.parametrize(
        "n, t, colors, message",
        [
            (3.5, 3, (1, 2, 3), "'n' must be an integer, got 3.5"),
            (3, 3.0, (1, 2, 3), "'t' must be an integer, got 3.0"),
            (3, True, (1, 1, 1), "'t' must be an integer, got True"),
        ],
    )
    def test_refuses_non_int_sizes(self, n, t, colors, message):
        with pytest.raises(ValueError) as info:
            CycleColoring(n, t, colors)
        assert str(info.value) == message

    def test_accepts_int_subclass_colors(self):
        assert CycleColoring(3, 3, (Parity.ODD, 2, 3)).colors == (1, 2, 3)

    def test_record_round_trip(self):
        c = coloring([1, 2, 1, 2, 3])
        assert CycleColoring.from_record(c.to_record()) == c

    def test_record_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            CycleColoring.from_record({"n": 3, "t": 3, "colors": [1, 2, 3], "x": 1})

    def test_record_rejects_missing_fields(self):
        with pytest.raises(ValueError, match="missing"):
            CycleColoring.from_record({"n": 3, "colors": [1, 2, 3]})

    def test_record_rejects_non_integers(self):
        with pytest.raises(ValueError):
            CycleColoring.from_record({"n": 3, "t": 3, "colors": [1, 2, "3"]})
        with pytest.raises(ValueError):
            CycleColoring.from_record({"n": 3, "t": 3, "colors": [1, 2, True]})
        with pytest.raises(ValueError):
            CycleColoring.from_record({"n": 3.0, "t": 3, "colors": [1, 2, 3]})

    @pytest.mark.parametrize(
        "bad, shown",
        [("3", "'3'"), (True, "True"), (2.5, "2.5"), (None, "None"), ([2], "[2]")],
    )
    def test_record_names_the_first_bad_color(self, bad, shown):
        record = {"n": 4, "t": 3, "colors": [1, bad, 2, "later"]}
        with pytest.raises(ValueError) as info:
            CycleColoring.from_record(record)
        assert str(info.value) == f"'colors' entry must be an integer, got {shown}"

    @pytest.mark.parametrize(
        "record, message",
        [
            ({"n": 3, "t": 3, "colors": "123"}, "'colors' must be an array of integers"),
            ({"n": "3", "t": 3, "colors": 5}, "'n' must be an integer, got '3'"),
            ({"n": 3, "t": 3.0, "colors": None}, "'t' must be an integer, got 3.0"),
        ],
    )
    def test_record_refuses_colors_that_are_not_an_array(self, record, message):
        # a bad n or t is named before the colors, as the constructor does
        with pytest.raises(ValueError) as info:
            CycleColoring.from_record(record)
        assert str(info.value) == message

    def test_record_accepts_int_subclass_colors(self):
        record = {"n": 3, "t": 3, "colors": [Parity.ODD, 2, 3]}
        assert CycleColoring.from_record(record).colors == (1, 2, 3)

    def test_record_rejects_non_object(self):
        with pytest.raises(ValueError):
            CycleColoring.from_record([3, 3, [1, 2, 3]])


# mostly small ints, so that many drawn colorings are accepted, mixed with
# values that compare like ints but are not plain ints
_entries = st.one_of(
    st.integers(0, 4),
    st.integers(0, 4),
    st.sampled_from([True, False, 2.0, 1.5, Parity.ODD, Parity.EVEN, "2", None]),
)


@given(
    st.lists(_entries, min_size=3, max_size=6),
    st.none() | _entries,
    st.just(4) | _entries,
)
def test_accepted_colorings_round_trip_through_json(colors, n, t):
    n = len(colors) if n is None else n
    try:
        c = CycleColoring(n, t, colors)
    except ValueError:
        return
    again = CycleColoring.from_record(json.loads(json.dumps(c.to_record())))
    assert again == c


class TestRotateEdges:
    def test_basic(self):
        assert rotate_edges(coloring([1, 2, 3]), 1).colors == (2, 3, 1)

    def test_identity(self):
        c = coloring([1, 2, 1, 2, 3])
        assert rotate_edges(c, 0) == c

    def test_wrap(self):
        assert rotate_edges(coloring([1, 2, 1, 2, 3]), 4).colors == (3, 1, 2, 1, 2)

    @given(colorings_st, st.integers(0, 9))
    def test_inverse(self, c, k):
        offset = k % c.n
        back = rotate_edges(rotate_edges(c, offset), (c.n - offset) % c.n)
        assert back == c

    @given(colorings_st, st.integers(0, 9))
    def test_preserves_color_multiset(self, c, k):
        assert sorted(rotate_edges(c, k % c.n).colors) == sorted(c.colors)


class TestShiftColors:
    def test_basic(self):
        assert shift_colors(coloring([1, 2, 3]), 1).colors == (2, 3, 1)

    def test_identity(self):
        c = coloring([1, 2, 1, 2])
        assert shift_colors(c, 0) == c

    def test_two(self):
        assert shift_colors(coloring([1, 2, 3, 4]), 2).colors == (3, 4, 1, 2)

    def test_negative_delta_reduced(self):
        c = coloring([1, 2, 3])
        assert shift_colors(c, -1) == shift_colors(c, 2)

    @given(colorings_st, st.integers(-20, 20))
    def test_inverse(self, c, delta):
        assert shift_colors(shift_colors(c, delta), c.t - delta % c.t) == c

    @given(colorings_st, st.integers(-20, 20))
    def test_bijection_on_positions(self, c, delta):
        shifted = shift_colors(c, delta)
        assert len(shifted.colors) == c.n
        assert all(1 <= x <= c.t for x in shifted.colors)


# str() refuses an int longer than this many digits; 0 when the limit is off
_STR_DIGITS = sys.get_int_max_str_digits()
HUGE = 10**5000


def _shown(x: int, digits: int) -> str:
    if not _STR_DIGITS:
        return str(x)
    return f"<a {'negative ' if x < 0 else ''}{digits}-digit integer>"


class TestHugeIntsInMessages:
    @pytest.mark.skipif(not _STR_DIGITS, reason="str() converts ints of any length")
    def test_digit_count_past_the_str_limit(self):
        assert _show_int(10**_STR_DIGITS - 1) == str(10**_STR_DIGITS - 1)
        for k in (_STR_DIGITS, _STR_DIGITS + 1, 5000, 12_345, 40_000):
            assert _show_int(10**k) == f"<a {k + 1}-digit integer>", k
            assert _show_int(10 ** (k + 1) - 1) == f"<a {k + 1}-digit integer>", k
            assert _show_int(-(10**k)) == f"<a negative {k + 1}-digit integer>", k

    @pytest.mark.parametrize(
        "n, t, message",
        [
            (3, HUGE, f"color count must lie in [1, 3], got t={_shown(HUGE, 5001)}"),
            (HUGE, 3, f"expected {_shown(HUGE, 5001)} edge colors, got 3"),
            (-HUGE, 3, f"cycle size must be >= 3, got {_shown(-HUGE, 5001)}"),
        ],
        ids=["huge-t", "huge-n", "huge-negative-n"],
    )
    def test_coloring_refusals(self, n, t, message):
        with pytest.raises(ValueError) as info:
            CycleColoring(n, t, (1, 2, 3))
        assert str(info.value) == message

    def test_construct_refusals(self):
        with pytest.raises(ValueError) as info:
            construct(HUGE, 3)
        assert str(info.value) == (
            f"refusing to materialize a witness for n={_shown(HUGE, 5001)} "
            f"(cap {MATERIALIZE_CAP}); use contains() for membership"
        )
        with pytest.raises(Infeasible) as info:
            construct(7, HUGE)
        assert info.value.message == f"t={_shown(HUGE, 5001)} outside [3,7] for C(7)"

    @pytest.mark.parametrize(
        "call, message",
        [
            (
                lambda: SearchConfig(limit=-HUGE),
                f"limit must be >= 1 when given, got {_shown(-HUGE, 5001)}",
            ),
            (
                lambda: ThetaSet(HUGE, (1,), "formula"),
                f"members must lie in [2, {_shown(HUGE, 5001)}]",
            ),
            (
                lambda: ProofDecomposition(
                    n=HUGE, t=3, u_size=0, rotation=0,
                    y=(0, 1, 1, 0), psi=(1, 1, 1, 1),
                ),
                f"psi must sum to n + 2m = {_shown(HUGE + 4, 5001)}",
            ),
            (
                # m is read off psi, so this refusal names only lengths
                lambda: ProofDecomposition(
                    n=HUGE, t=HUGE, u_size=HUGE, rotation=0,
                    y=(0, 1), psi=(1, HUGE),
                ),
                "psi must be empty or have an even length >= 4, and y its "
                "length; got 2 and 2 entries",
            ),
            (
                lambda: ProofDecomposition(
                    n=HUGE + 2, t=3, u_size=0, rotation=0,
                    y=(0, 1, 1, 0), psi=(1, 3, 1, HUGE + 1),
                ),
                f"u_size must be n - sum(psi[0::2]) = {_shown(HUGE, 5001)}",
            ),
            (
                lambda: ProofDecomposition(HUGE, 3, -1, 0, (), ()),
                f"u_size must lie in [0, {_shown(HUGE, 5001)})",
            ),
            (
                lambda: ProofDecomposition(HUGE, 3, 0, 1, (), ()),
                f"rotation must lie in [0, {_shown(HUGE, 5001)}), and be 0 in case A",
            ),
        ],
        ids=["search-config-limit", "theta-set-span", "decomposition-psi-sum",
             "decomposition-psi-length", "decomposition-u-size-runs",
             "decomposition-u-size-range", "decomposition-rotation"],
    )
    def test_helper_refusals(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "build, n, t, error, message",
        [
            (
                zigzag_staircase,
                HUGE,
                3,
                ValueError,
                f"zigzag-staircase needs 2 <= t <= {_shown(HUGE, 5001)} "
                "with n-t even, got t=3",
            ),
            (
                zigzag_staircase,
                7,
                HUGE,
                ValueError,
                f"zigzag-staircase needs 3 <= t <= 7 with n-t even, "
                f"got t={_shown(HUGE, 5001)}",
            ),
            (
                tent,
                HUGE + 1,
                3,
                ValueError,
                "tent needs even n and 2 <= t <= n/2+1, "
                f"got n={_shown(HUGE + 1, 5001)}, t=3",
            ),
            (
                tent,
                8,
                HUGE,
                ValueError,
                "tent needs even n and 2 <= t <= n/2+1, "
                f"got n=8, t={_shown(HUGE, 5001)}",
            ),
            (
                construct,
                HUGE + 1,
                4,
                Infeasible,
                f"t=4 in forbidden set {{4,6,...,{_shown(HUGE, 5001)}}} "
                f"of C({_shown(HUGE + 1, 5001)})",
            ),
        ],
        ids=["zigzag-huge-n", "zigzag-huge-t", "tent-huge-n", "tent-huge-t",
             "construct-forbidden-huge-n"],
    )
    def test_pattern_refusals(self, build, n, t, error, message):
        # a builder outside its pattern refuses with ValueError; construct
        # raises Infeasible only when no coloring exists
        with pytest.raises(error) as info:
            build(n, t)
        assert str(info.value) == message
        if error is Infeasible:
            assert info.value.message == message

    def test_search_refusal(self, monkeypatch):
        monkeypatch.delenv("CYCLIC_CHROMA_MAX_N", raising=False)
        with pytest.raises(SearchBoundExceeded) as info:
            exists_search(HUGE, 3)
        assert str(info.value) == (
            f"n={_shown(HUGE, 5001)} exceeds the search bound 14 "
            "(set CYCLIC_CHROMA_MAX_N to raise it)"
        )

    def test_forbidden_set_longer_than_sys_maxsize(self):
        n = 2**64 + 1
        with pytest.raises(Infeasible) as info:
            construct(n, 4)
        assert info.value.message == (
            f"t=4 in forbidden set {{4,6,...,{n - 1}}} of C({n})"
        )
