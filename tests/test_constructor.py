import copy
import pickle
import sys

import numpy
import pytest

from cyclic_chroma import (
    CYCLIC,
    INTERVAL,
    MATERIALIZE_CAP,
    Infeasible,
    REASON_FORBIDDEN,
    REASON_PATTERN,
    REASON_RANGE,
    construct,
    contains,
    tent,
    theta_cyclic,
    theta_interval,
    verify,
    zigzag_staircase,
)


class TestZigzagStaircase:
    def test_examples(self):
        assert zigzag_staircase(5, 3).colors == (1, 2, 1, 2, 3)
        assert zigzag_staircase(7, 5).colors == (1, 2, 1, 2, 3, 4, 5)
        assert zigzag_staircase(4, 4).colors == (1, 2, 3, 4)

    def test_two_colors_even_cycle(self):
        # degenerate staircase: pure alternation
        assert zigzag_staircase(4, 2).colors == (1, 2, 1, 2)

    def test_parity_violation(self):
        with pytest.raises(Infeasible) as exc:
            zigzag_staircase(6, 3)
        assert exc.value.reason == REASON_PATTERN

    def test_range_violation(self):
        with pytest.raises(Infeasible):
            zigzag_staircase(5, 7)
        with pytest.raises(Infeasible):
            zigzag_staircase(5, 1)

    def test_domain(self):
        with pytest.raises(ValueError):
            zigzag_staircase(2, 2)


class TestTent:
    def test_examples(self):
        assert tent(6, 3).colors == (1, 2, 3, 2, 1, 2)
        assert tent(8, 5).colors == (1, 2, 3, 4, 5, 4, 3, 2)
        assert tent(4, 2).colors == (1, 2, 1, 2)

    def test_odd_cycle_rejected(self):
        with pytest.raises(Infeasible) as exc:
            tent(5, 3)
        assert exc.value.reason == REASON_PATTERN

    def test_t_too_large(self):
        with pytest.raises(Infeasible):
            tent(6, 5)

    def test_interval_valid(self):
        for n in range(4, 121, 2):
            for t in theta_interval(n).members:
                assert verify(tent(n, t), INTERVAL).mode_satisfied, (n, t)


class TestConstruct:
    def test_forbidden(self):
        with pytest.raises(Infeasible) as exc:
            construct(5, 4)
        assert exc.value.reason == REASON_FORBIDDEN
        assert "forbidden set {4}" in exc.value.message

    def test_forbidden_even(self):
        with pytest.raises(Infeasible) as exc:
            construct(6, 5)
        assert exc.value.reason == REASON_FORBIDDEN
        assert "forbidden set {5} of C(6)" in exc.value.message

    def test_long_forbidden_set_is_elided(self):
        with pytest.raises(Infeasible) as exc:
            construct(15, 8)
        assert exc.value.message == "t=8 in forbidden set {4,6,...,14} of C(15)"
        with pytest.raises(Infeasible) as exc:
            construct(10**7, 10**7 - 1)
        assert exc.value.reason == REASON_FORBIDDEN
        assert len(exc.value.message) == 71

    def test_witness_above_cap_refused(self):
        n = MATERIALIZE_CAP + 1
        for build, t in ((construct, 3), (zigzag_staircase, 3), (construct, n)):
            with pytest.raises(ValueError, match="refusing to materialize a witness"):
                build(n, t)
        with pytest.raises(ValueError, match="refusing to materialize a witness"):
            tent(MATERIALIZE_CAP + 2, 3)
        assert construct(MATERIALIZE_CAP, 2).n == MATERIALIZE_CAP

    def test_infeasible_checked_before_cap(self):
        # test_long_forbidden_set_is_elided covers a forbidden t above the cap
        with pytest.raises(Infeasible) as exc:
            construct(10**7, 1)
        assert exc.value.reason == REASON_RANGE
        for build, n in ((tent, MATERIALIZE_CAP + 1), (zigzag_staircase, 10**7)):
            with pytest.raises(Infeasible) as exc:
                build(n, 3)
            assert exc.value.reason == REASON_PATTERN

    def test_out_of_range(self):
        with pytest.raises(Infeasible) as exc:
            construct(6, 1)
        assert exc.value.reason == REASON_RANGE
        with pytest.raises(Infeasible) as exc:
            construct(6, 7)
        assert exc.value.reason == REASON_RANGE

    def test_tent_branch(self):
        assert construct(6, 3).colors == (1, 2, 3, 2, 1, 2)

    def test_full_staircase(self):
        assert construct(9, 9).colors == (1, 2, 3, 4, 5, 6, 7, 8, 9)

    def test_domain(self):
        with pytest.raises(ValueError):
            construct(2, 2)

    @pytest.mark.parametrize("build", [construct, zigzag_staircase, tent])
    @pytest.mark.parametrize(
        "n, t",
        [
            (numpy.int64(6), 4),
            (6, numpy.int64(4)),
            (6.0, 4),
            (6, 4.0),
            (6, 5.0),
            (True, 3),
            (6, True),
        ],
    )
    def test_refuses_non_int_sizes(self, build, n, t):
        # the public constructor's rule, checked before the unchecked build
        label, bad = ("'n'", n) if type(n) is not int else ("'t'", t)
        with pytest.raises(ValueError) as info:
            build(n, t)
        assert str(info.value) == f"{label} must be an integer, got {bad!r}"

    @pytest.mark.parametrize("build", [construct, zigzag_staircase, tent])
    def test_a_bad_size_is_named_before_a_bad_color_count(self, build):
        with pytest.raises(ValueError, match=r"^cycle size must be >= 3, got 2$"):
            build(2, 2.5)
        with pytest.raises(ValueError, match=r"^'n' must be an integer, got 2\.0$"):
            build(2.0, 2.5)

    def test_deterministic(self):
        assert construct(12, 7) == construct(12, 7)

    def test_prefers_zigzag_when_both_apply(self):
        # even n, even t <= n/2+1: both shapes exist; the zigzag is canonical
        got = construct(8, 4)
        assert got == zigzag_staircase(8, 4)
        assert got != tent(8, 4)

    def test_soundness_and_totality_medium(self):
        for n in range(3, 121):
            for t in range(1, n + 1):
                if contains(n, t):
                    witness = construct(n, t)
                    assert witness.n == n and witness.t == t
                    assert verify(witness, CYCLIC).mode_satisfied, (n, t)
                else:
                    with pytest.raises(Infeasible):
                        construct(n, t)

    def test_parity_branches_partition_feasible_set(self):
        for n in range(3, 121):
            for t in theta_cyclic(n).members:
                same_parity = (n - t) % 2 == 0
                tent_shape = n % 2 == 0 and t % 2 == 1
                assert same_parity != tent_shape, (n, t)
                if tent_shape:
                    assert t <= n // 2 + 1, (n, t)


# ---------------------------------------------------------------------------
# The text of a refusal, written out here from chi', n and the parity gap.

_STR_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_STR_LIMIT = 10**_STR_DIGITS  # the least int that str() refuses


def _shown(x):
    """x as a refusal shows it: in decimal, or by its digit count past str()'s limit."""
    if not _STR_DIGITS or abs(x) < _STR_LIMIT:
        return str(x)
    digits = _STR_DIGITS + 1
    while 10**digits <= abs(x):
        digits += 1
    return f"<a {'negative ' if x < 0 else ''}{digits}-digit integer>"


def _expected_refusal(n, t):
    """(reason, text) of construct's refusal of t for C(n), or None if t is feasible."""
    chi = 3 if n % 2 else 2
    if not chi <= t <= n:
        return REASON_RANGE, f"t={_shown(t)} outside [{chi},{_shown(n)}] for C({_shown(n)})"
    # the gap: the even t in [4, n-1] for odd n, the odd t in [n/2+2, n-1] for even n
    first = 4 if n % 2 else n // 2 + 3 - (n // 2) % 2
    if (n - t) % 2 == 0 or t < first:
        return None
    last = n - 1
    if (last - first) // 2 + 1 <= 3:
        shown = range(first, last + 1, 2)
    else:
        shown = (first, first + 2, "...", last)
    gap = ",".join(x if x == "..." else _shown(x) for x in shown)
    return REASON_FORBIDDEN, f"t={_shown(t)} in forbidden set {{{gap}}} of C({_shown(n)})"


# the four reads that build a refusal's text
_READS = (lambda e: e.message, str, repr, lambda e: e.args)


def _assert_refusal_reads(n, t, reason, text):
    # each of the four reads may come first, and all four then agree
    for first in _READS:
        try:
            construct(n, t)
        except Infeasible as refusal:
            e = refusal
        else:
            pytest.fail(f"construct({n}, {t}) built a witness")
        first(e)
        assert (e.n, e.t, e.reason) == (n, t, reason)
        assert e.message == text and str(e) == text
        assert repr(e) == f"Infeasible({text!r})"
        assert e.args == (text,)


def test_refusal_text_is_the_arithmetic_of_the_gap():
    refused = {REASON_RANGE: 0, REASON_FORBIDDEN: 0}
    for n in range(3, 201):
        for t in range(-1, 2 * n + 1):
            want = _expected_refusal(n, t)
            assert (want is None) == contains(n, t), (n, t)
            if want is not None:
                _assert_refusal_reads(n, t, *want)
                refused[want[0]] += 1
    assert min(refused.values()) > 5_000, refused


@pytest.mark.skipif(not _STR_DIGITS, reason="str() converts ints of any length")
@pytest.mark.parametrize(
    "n, t",
    [
        (10**_STR_DIGITS + 1, 4),  # odd n, the gap's last member n - 1 too long
        (10 ** (_STR_DIGITS + 1), 10 ** (_STR_DIGITS + 1) - 1),  # even n, long gap ends
        (10 ** (_STR_DIGITS + 1), 10 ** (_STR_DIGITS + 1) + 1),  # t just past n
        (7, 10**5000),
        (7, -(10**5000)),
        (10**_STR_DIGITS - 1, 10**_STR_DIGITS),  # n still in decimal, t not
    ],
    ids=["odd-n", "even-n", "range-huge-n", "range-huge-t", "range-negative-t",
         "range-t-one-digit-past"],
)
def test_refusal_text_of_ints_past_the_str_limit(n, t):
    want = _expected_refusal(n, t)
    assert want is not None
    _assert_refusal_reads(n, t, *want)


def _refusals():
    """A refusal of each reason, with its text unread and read."""
    made = []
    for build, n, t in (
        (construct, 6, 5),
        (construct, 6, 1),
        (construct, 10**4000 + 1, 4),  # pickle protocols 0 and 1 write ints as text
        (tent, 5, 3),
        (zigzag_staircase, 6, 3),
    ):
        for read in (False, True):
            with pytest.raises(Infeasible) as info:
                build(n, t)
            if read:
                info.value.message
            made.append(info.value)
    return made


_COPIES = {
    **{
        f"pickle-{protocol}": lambda e, p=protocol: pickle.loads(pickle.dumps(e, p))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    },
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("how", list(_COPIES))
def test_refusals_pickle_and_copy(how):
    for e in _refusals():
        back = _COPIES[how](e)
        assert type(back) is Infeasible
        assert (back.n, back.t, back.reason) == (e.n, e.t, e.reason)
        assert back.message == e.message
        assert (str(back), repr(back), back.args) == (str(e), repr(e), e.args)


def test_a_refusal_with_no_text_of_its_own_needs_one():
    # only construct's two reasons build their text from n and t; any other
    # would read as a range refusal, "t=4 outside [3,5] for C(5)", false
    for reason in (REASON_PATTERN, "", None):
        with pytest.raises(ValueError, match="needs a message"):
            Infeasible(5, 4, reason)
    given = Infeasible(5, 4, REASON_PATTERN, "tent needs an odd t")
    assert str(given) == "tent needs an odd t"
    assert str(Infeasible(5, 6, REASON_RANGE)) == "t=6 outside [3,5] for C(5)"
    assert str(Infeasible(6, 5, REASON_FORBIDDEN)) == "t=5 in forbidden set {5} of C(6)"
