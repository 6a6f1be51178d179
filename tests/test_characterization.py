import random
import tracemalloc
from collections.abc import Hashable
from decimal import Decimal
from fractions import Fraction
from itertools import islice

import numpy
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from counting_probe import CountingProbe, HashOnlyProbe
from symmetry import epsilon

from cyclic_chroma import (
    MATERIALIZE_CAP,
    ThetaSet,
    bounds_cyc,
    chi_prime,
    contains,
    exists_search,
    forbidden_set,
    theta_cyclic,
    theta_interval,
)
from cyclic_chroma.characterization import _gap, _int_between

# deterministic sample of larger cycle sizes, to keep full-range invariant
# checks affordable
_RNG = random.Random(1405)
LARGE_N = sorted({_RNG.randrange(1201, 10_001) for _ in range(150)})

NON_INT_PROBES = [
    2.0, 2.5, "3", Decimal("NaN"), Decimal(4), None, Fraction(4),
    Fraction(9, 2), 4 + 0j, 4 + 1j, True, float("nan"), [], 1e300,
    numpy.int64(4), numpy.int32(3), numpy.True_, numpy.False_, numpy.float32(4),
]

CLOSED_FORMS = [chi_prime, bounds_cyc, theta_cyclic, theta_interval, forbidden_set]

# a cycle size n and a strictly increasing tuple in [2, n]
HAND_BUILT = st.integers(3, 40).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(2, n)).map(sorted).map(tuple))
)


@pytest.mark.parametrize("lo, hi", [(-3, 3), (2, 2), (2, 5), (3, 4), (4, 9)])
def test_int_between_always_answers_with_an_int(lo, hi):
    ints = set(range(lo, hi + 1))
    for x in NON_INT_PROBES:  # 4+1j among them
        got = _int_between(x, lo, hi)
        try:
            held = x in ints
        except TypeError:  # an unhashable probe, such as [], is in no set
            held = False
        assert type(got) is int, (x, lo, hi)
        assert (got == lo - 1) == (not held), (x, lo, hi)
        assert not held or got == x, (x, lo, hi)


@pytest.mark.parametrize(
    "entry", [*CLOSED_FORMS, lambda n: contains(n, 3)],
    ids=[*(f.__name__ for f in CLOSED_FORMS), "contains"],
)
@pytest.mark.parametrize("bad", [numpy.int64(6), 6.0, True], ids=repr)
def test_closed_forms_refuse_a_non_int_size(entry, bad):
    # the size rule construct and the search apply
    with pytest.raises(ValueError) as info:
        entry(bad)
    assert str(info.value) == f"'n' must be an integer, got {bad!r}"


class TestChiPrime:
    def test_odd(self):
        assert chi_prime(5) == 3
        assert chi_prime(3) == 3

    def test_even(self):
        assert chi_prime(6) == 2

    def test_domain(self):
        with pytest.raises(ValueError):
            chi_prime(2)


class TestForbiddenSet:
    def test_small_odd(self):
        assert forbidden_set(5) == {4}

    def test_small_even(self):
        assert forbidden_set(6) == {5}

    def test_ten(self):
        assert forbidden_set(10) == {7, 9}

    def test_twelve(self):
        assert forbidden_set(12) == {9, 11}

    def test_domain(self):
        # no t in [chi', n] is forbidden for n = 3 and 4
        assert forbidden_set(3) == forbidden_set(4) == set()
        with pytest.raises(ValueError):
            forbidden_set(2)

    def test_matches_search(self):
        for n in range(3, 11):
            gap = {
                t
                for t in range(chi_prime(n), n + 1)
                if not exists_search(n, t, "cyclic")
            }
            assert gap == forbidden_set(n)

    def test_equals_the_set_of_the_gap(self):
        sizes = list(range(3, 2001))
        sizes += [MATERIALIZE_CAP - 2, MATERIALIZE_CAP - 1, MATERIALIZE_CAP]
        for n in sizes:
            gap = forbidden_set(n)
            plain = set(_gap(n))
            assert gap == plain and plain == gap, n
            assert len(gap) == len(plain), n
            complement = set(range(chi_prime(n), n + 1)).difference(
                theta_cyclic(n).members
            )
            assert gap == complement, n

    def test_huge_n(self):
        n = 10**18
        gap = forbidden_set(n)
        lo = n // 2 + 3  # n/2 + 2 + eps(n/2), with n/2 even
        assert len(gap) == (n - 1 - lo) // 2 + 1
        assert next(iter(gap)) == lo
        assert lo in gap and n - 1 in gap
        assert lo - 2 not in gap and n + 1 not in gap and n not in gap
        odd = forbidden_set(n + 1)
        assert len(odd) == n // 2 - 1
        assert 4 in odd and n in odd and 3 not in odd and n + 1 not in odd


class TestThetaCyclic:
    def test_fixed_small_values(self):
        assert theta_cyclic(3).members == (3,)
        assert theta_cyclic(4).members == (2, 3, 4)

    def test_odd(self):
        assert theta_cyclic(5).members == (3, 5)
        assert theta_cyclic(7).members == (3, 5, 7)

    def test_even(self):
        assert theta_cyclic(6).members == (2, 3, 4, 6)
        assert theta_cyclic(8).members == (2, 3, 4, 5, 6, 8)

    def test_provenance(self):
        assert theta_cyclic(6).provenance == "formula"

    def test_domain(self):
        with pytest.raises(ValueError):
            theta_cyclic(2)

    def test_general_formula_agrees_at_3_and_4(self):
        # the dedicated n=3,4 branches must coincide with the n>=5 formulas
        # evaluated below their stated range
        assert tuple(range(3, 3 + 1, 2)) == theta_cyclic(3).members
        half = 4 // 2
        general = sorted(
            set(range(2, half + 2))
            | {t for t in range(half + 3 - epsilon(half), 4 + 1) if t % 2 == 0}
        )
        assert tuple(general) == theta_cyclic(4).members

    def test_max_is_n(self):
        for n in list(range(3, 400)) + LARGE_N:
            members = theta_cyclic(n).members
            assert members[-1] == n

    def test_materialization_cap(self):
        with pytest.raises(ValueError):
            theta_cyclic(MATERIALIZE_CAP + 1)


class TestThetaInterval:
    def test_even(self):
        assert theta_interval(6).members == (2, 3, 4)
        assert theta_interval(8).members == (2, 3, 4, 5)

    def test_odd_empty(self):
        assert theta_interval(5).members == ()

    def test_subset_of_cyclic(self):
        for n in list(range(3, 400)) + LARGE_N:
            cyc = set(theta_cyclic(n).members)
            assert set(theta_interval(n).members) <= cyc


class TestContains:
    def test_forbidden(self):
        assert not contains(6, 5)

    def test_odd_in_range(self):
        assert contains(9, 7)

    def test_small_even(self):
        assert contains(4, 3)

    def test_domain(self):
        with pytest.raises(ValueError):
            contains(2, 2)

    def test_agrees_with_set_small(self):
        for n in range(3, 301):
            members = set(theta_cyclic(n).members)
            for t in range(1, n + 3):
                assert contains(n, t) == (t in members), (n, t)

    def test_agrees_with_set_sampled_large(self):
        for n in LARGE_N:
            members = set(theta_cyclic(n).members)
            for t in range(1, n + 3):
                assert contains(n, t) == (t in members), (n, t)

    def test_works_beyond_materialization_cap(self):
        n = 10**7
        assert contains(n, n)
        assert contains(n, 2)
        assert not contains(n, n - 1)
        assert contains(n, n // 2 + 1)

    def test_non_int_probes_answer_like_the_set(self):
        for n in range(3, 201):
            theta = theta_cyclic(n)
            for x in NON_INT_PROBES:
                assert contains(n, x) == (x in theta), (n, x)

    def test_non_int_probes_past_the_cap(self):
        n = 10**7
        for x in (4.0, Fraction(4), 4 + 0j, numpy.int64(4), numpy.float32(4)):
            assert contains(n, x) == contains(n, 4) is True, x
        for x in (4.5, "4", None, [], Decimal("NaN"), 4 + 1j, numpy.True_):
            assert contains(n, x) is False, x


class TestTheoremConsistency:
    def test_theta_equals_range_minus_forbidden_small(self):
        for n in range(5, 1201):
            expected = sorted(
                set(range(chi_prime(n), n + 1)) - forbidden_set(n)
            )
            assert list(theta_cyclic(n).members) == expected, n

    def test_theta_equals_range_minus_forbidden_sampled_large(self):
        for n in LARGE_N:
            expected = sorted(
                set(range(chi_prime(n), n + 1)) - forbidden_set(n)
            )
            assert list(theta_cyclic(n).members) == expected, n


class TestBoundsCyc:
    def test_examples(self):
        assert bounds_cyc(5) == (3, 5)
        assert bounds_cyc(6) == (2, 6)
        assert bounds_cyc(3) == (3, 3)

    def test_closed_form(self):
        for n in range(3, 500):
            assert bounds_cyc(n) == (3 - epsilon(n), n)

    def test_beyond_cap_uses_closed_form(self):
        n = MATERIALIZE_CAP * 10
        assert bounds_cyc(n) == (2, n)

    def test_inequality_chain_even(self):
        for n in range(4, 300, 2):
            w_cyc, w_cap = bounds_cyc(n)
            interval = theta_interval(n).members
            w_int, w_int_cap = interval[0], interval[-1]
            assert 2 == chi_prime(n) <= w_cyc <= w_int == 2
            assert w_int_cap == n // 2 + 1 <= w_cap == n


class TestThetaSet:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            ThetaSet(6, (3, 2), "formula")

    def test_rejects_a_repeated_member(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ThetaSet(5, (3, 3, 5), "formula")

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ThetaSet(6, (1, 2), "formula")
        with pytest.raises(ValueError):
            ThetaSet(6, (2, 7), "formula")

    def test_rejects_bad_provenance(self):
        with pytest.raises(ValueError):
            ThetaSet(6, (2, 3), "guess")

    @pytest.mark.parametrize(
        "members",
        [(2.5, 3), ("a",), (2, True), (2.0, 3), (2, numpy.int64(3))],
        ids=repr,
    )
    def test_rejects_a_member_that_is_no_int(self, members):
        bad = next(x for x in members if type(x) is not int)
        with pytest.raises(ValueError) as info:
            ThetaSet(5, members, "search")
        assert str(info.value) == f"'members' entry must be an integer, got {bad!r}"

    @pytest.mark.parametrize("n", [5.5, 6.0, True, "6", None])
    def test_rejects_an_n_that_is_no_int(self, n):
        with pytest.raises(ValueError, match="'n' must be an integer"):
            ThetaSet(n, (2, 3), "search")

    def test_rejects_an_n_below_three(self):
        with pytest.raises(ValueError, match="cycle size must be >= 3, got 2"):
            ThetaSet(2, (2,), "search")

    def test_container_protocol(self):
        ts = ThetaSet(6, (2, 3, 4, 6), "formula")
        assert 4 in ts and 5 not in ts
        assert list(ts) == [2, 3, 4, 6]
        assert len(ts) == 4

    def test_membership_matches_contains(self):
        for n in range(3, 61):
            cyc, itv = theta_cyclic(n), theta_interval(n)
            for t in range(0, n + 2):
                assert (t in cyc) == contains(n, t), (n, t)
                assert (t in itv) == (t in itv.members), (n, t)
        assert 2.0 in theta_cyclic(6)
        assert "3" not in theta_cyclic(6)

    def test_non_int_probes_answer_like_the_tuple(self):
        th = theta_cyclic(10)
        for x in NON_INT_PROBES:
            assert (x in th) == (x in th.members), x
        assert 4.0 not in theta_interval(5)

    def test_a_probe_makes_few_comparisons(self):
        th = theta_cyclic(10**6)
        for value in (10, 999_999, 1, 10**6 + 1, 10**18):
            probe = CountingProbe(value)
            assert (probe in th) == (value in th)
            assert probe.eq_calls <= 2
            probe = HashOnlyProbe(value)
            probe in th
            assert probe.eq_calls <= 2

    @settings(deadline=None)
    @given(HAND_BUILT)
    @example((13, (2, 3, 5, 8, 13)))
    @example((100, tuple(range(4, 101, 2))))
    def test_a_hand_built_set_answers_like_its_tuple(self, drawn):
        n, members = drawn
        ts = ThetaSet(n, members, "search")
        ref = set(members)
        assert ts.members is members
        assert len(ts) == len(ref) and bool(ts) == bool(ref)
        assert tuple(ts) == members
        for t in range(-2, n + 3):
            assert (t in ts) == (t in ref) == (t in members), t
        for x in NON_INT_PROBES:
            held = x in members
            assert (x in ts) == held, x
            assert not isinstance(x, Hashable) or (x in ref) == held, x
        parts = ts._parts
        assert all(type(part) is range and part for part in parts)
        assert all(p[-1] < q[0] for p, q in zip(parts, parts[1:]))

    @pytest.mark.parametrize(
        "members, parts",
        [
            (tuple(range(4, 10**5 + 1, 2)), (range(4, 10**5 + 1, 2),)),
            # no run of three: the worst case, about one part per two members
            ((2, 3, 5, 8, 13), (range(2, 4), range(5, 9, 3), range(13, 14))),
        ],
        ids=["one-progression", "no-run-of-three"],
    )
    def test_a_hand_built_set_holds_its_maximal_runs(self, members, parts):
        assert ThetaSet(10**5, members, "search")._parts == parts

    @staticmethod
    def _by_hand(theta, n):
        # the theorem as stated: t of n's parity from chi'(n) to n, and for
        # even n also [2, n/2+1]; interval mode keeps only the latter
        ref = set(range(2, n // 2 + 2)) if n % 2 == 0 else set()
        if theta is theta_cyclic:
            ref |= set(range(chi_prime(n), n + 1, 2))
        return ref, ThetaSet(n, tuple(sorted(ref)), "formula")

    @pytest.mark.parametrize("theta", [theta_cyclic, theta_interval])
    def test_formula_sets_equal_the_sets_built_by_hand(self, theta):
        for n in range(3, 2001):
            ref, by_hand = self._by_hand(theta, n)
            formula = theta(n)
            assert len(formula) == len(by_hand) and bool(formula) == bool(by_hand), n
            assert list(formula) == list(by_hand), n
            assert formula.members == by_hand.members, n
            assert formula == by_hand and by_hand == formula, n
            assert hash(formula) == hash(by_hand), n
            assert repr(formula) == repr(by_hand), n
            ints = range(-2, n + 3)
            expected = list(map(ref.__contains__, ints))
            assert list(map(formula.__contains__, ints)) == expected, n
            assert list(map(by_hand.__contains__, ints)) == expected, n
            for x in NON_INT_PROBES:
                assert (x in formula) == (x in by_hand), (n, x)

    @pytest.mark.parametrize("theta", [theta_cyclic, theta_interval])
    def test_closed_forms_answer_without_building_members(self, theta):
        n = MATERIALIZE_CAP
        tracemalloc.start()
        try:
            ts = theta(n)
            answers = (n // 2 in ts, 1 in ts, 4.0 in ts, len(ts), bool(ts))
            first = list(islice(ts, 3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a tuple of the members alone would take 8 bytes a member
        assert peak < 4096
        assert answers == (True, False, True, len(ts.members), True)
        assert first == [2, 3, 4]

    @pytest.mark.parametrize("theta", [theta_cyclic, theta_interval])
    def test_members_is_built_once(self, theta):
        for n in (6, 7, MATERIALIZE_CAP):
            ts = theta(n)
            assert ts.members is ts.members, n

    def test_hand_built_members_is_the_checked_tuple(self):
        members = (2, 3, 4, 6)
        ts = ThetaSet(6, members, "search")
        assert ts.members is members
        assert ThetaSet(6, [2, 3], "search").members == (2, 3)
        empty = ThetaSet(5, (), "search")
        assert empty.members == () and not empty and len(empty) == 0
        assert list(empty) == [] and 3 not in empty and 3.0 not in empty

    def test_formula_sets_at_the_cap(self):
        for n in (MATERIALIZE_CAP - 2, MATERIALIZE_CAP - 1, MATERIALIZE_CAP):
            members = theta_cyclic(n).members
            gap = forbidden_set(n)
            expected = [t for t in range(chi_prime(n), n + 1) if t not in gap]
            assert list(members) == expected, n
            assert theta_interval(n).members == (
                members[: n // 2] if n % 2 == 0 else ()
            ), n
        sample = random.Random(1406).sample(range(12, MATERIALIZE_CAP - 12), 500)
        probes = [*range(-2, 12), *sample]
        for theta in (theta_cyclic, theta_interval):
            for n in (MATERIALIZE_CAP - 2, MATERIALIZE_CAP - 1, MATERIALIZE_CAP):
                ref, by_hand = self._by_hand(theta, n)
                formula = theta(n)
                assert formula.members == by_hand.members, n
                assert len(formula) == len(by_hand), n
                assert formula == by_hand and hash(formula) == hash(by_hand), n
                for t in [*probes, *range(n - 12, n + 3)]:
                    assert (t in formula) == (t in ref), (n, t)
