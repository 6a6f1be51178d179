"""The feasibility theorem for edge colorings of cycles, its sets and witnesses.

The theorem is stated once, in ``_split(n) = (chi', s)``, which splits
[chi', n] at s.  chi' is the chromatic index: 2 for even n, 3 for odd n.
Two patterns cover every feasible (n, t):

* tent, for every t in [chi', s): [2, n/2+1] for even n, none for odd n,
  where s = chi' = 3.  Ascend 1..t, descend t-1..2, then alternate 1,2;
  every adjacent pair differs by exactly one, so the result is
  interval-valid as well.
* zigzag-staircase, for every t in [chi', n] with n - t even: alternate 1,2
  for the first n-t edges, then ascend 1..t; both the seam and the wrap
  land on an admissible palette.

From s to n the t with n - t odd form the forbidden gap.  So cyclic-mode
colorings exist exactly for the tent t and the zigzag t, and interval-mode
colorings exactly for the tent t.  ``construct`` builds the
zigzag-staircase when n - t is even and the tent otherwise.
"""

from __future__ import annotations

import operator
from collections.abc import Set
from itertools import chain
from math import trunc

from .model import (
    CycleColoring,
    _check_n,
    _Record,
    _require_int,
    _require_ints,
    _show_int,
)

__all__ = [
    "MATERIALIZE_CAP",
    "ThetaSet",
    "chi_prime",
    "forbidden_set",
    "theta_cyclic",
    "theta_interval",
    "contains",
    "bounds_cyc",
    "REASON_RANGE",
    "REASON_FORBIDDEN",
    "REASON_PATTERN",
    "Infeasible",
    "zigzag_staircase",
    "tent",
    "construct",
]

PROVENANCE_FORMULA = "formula"
PROVENANCE_SEARCH = "search"

REASON_RANGE = "range"
REASON_FORBIDDEN = "forbidden"
REASON_PATTERN = "pattern"

# The largest n whose feasible sets and witnesses are built, and the most
# members a RangeSet operator copies; beyond it, use contains() or ``in``.
MATERIALIZE_CAP = 10**6


def _int_between(x: object, lo: int, hi: int) -> int:
    """The int in [lo, hi] that x equals, else lo - 1, which no set in [lo, hi] holds.

    O(1) for every x: only the bounds and one int are compared with it, so
    '3', None and Decimal('NaN') are answered without a scan, while 2.0,
    Fraction(4), 4+0j, True, numpy.int64(4), numpy.True_ and
    numpy.float32(4) stand for the int they equal.
    """
    if isinstance(x, complex):
        if x.imag:
            return lo - 1
        x = x.real
    try:
        if hasattr(x, "__index__"):
            x = operator.index(x)  # numpy.int64 defines no __trunc__
        if not lo <= x <= hi:
            return lo - 1
        # numpy.bool_ and numpy.float32 define neither __index__ nor
        # __trunc__; int() maps them, and the == below keeps int('3') out
        i = trunc(x) if hasattr(x, "__trunc__") else int(x)
    except (TypeError, ValueError, ArithmeticError):
        # x does not order against int (a str, None, a Decimal NaN)
        return lo - 1
    return i if type(i) is int and i == x else lo - 1


class ThetaSet(_Record):
    """A finite set of feasible color counts for one cycle size.

    Every set holds its members as ascending ranges, its parts.  A closed
    form builds one in O(1) from its one or two ranges, unchecked;
    ``members`` is built on its first read and then kept.  One built by
    hand checks n and every member (plain ints, no bool, as in
    CycleColoring) in O(|members|), keeps the checked tuple as its
    ``members``, and splits it into maximal runs of one step: one part for
    a progression, about |members|/2 at worst (2, 3, 5, 8, 13 holds 3).
    Pickling and copying rebuild a set by hand, so a copy of a closed form
    holds ranges too.  ``len``, ``bool``, iteration and ``in`` work from
    the parts; ``in`` maps a non-int probe to the int it equals in O(1),
    then takes O(1) per part.  ``==`` and ``hash`` are the record's, over
    n, ``members`` and provenance, so they build ``members`` of a closed
    form that has not yet read it: O(|members|) on the first comparison.
    """

    __slots__ = ("n", "_parts", "provenance", "_members")
    _names = ("n", "members", "provenance")

    def __init__(self, n: int, members: tuple[int, ...], provenance: str) -> None:
        _check_n(n)
        members = tuple(members)
        _require_ints(members, "'members' entry")
        if provenance not in (PROVENANCE_FORMULA, PROVENANCE_SEARCH):
            raise ValueError(f"unknown provenance {provenance!r}")
        parts = _runs(members)
        if members and not (2 <= members[0] and members[-1] <= n):
            raise ValueError(f"members must lie in [2, {_show_int(n)}]")
        set_n, set_parts, set_provenance, set_members = self._setters
        set_n(self, n)
        set_parts(self, parts)
        set_provenance(self, provenance)
        set_members(self, members)

    @classmethod
    def _of_ranges(cls, n: int, *parts: range) -> ThetaSet:
        """The closed-form set that is the union of ascending ranges; checks
        nothing, since its callers pass ranges in [2, n] as _split makes them."""
        s = object.__new__(cls)
        set_n, set_parts, set_provenance, set_members = cls._setters
        set_n(s, n)
        set_parts(s, parts)
        set_provenance(s, PROVENANCE_FORMULA)
        set_members(s, None)
        return s

    @property
    def members(self) -> tuple[int, ...]:
        if self._members is None:
            set_members = self._setters[3]
            set_members(self, tuple(chain.from_iterable(self._parts)))
        return self._members

    def __contains__(self, t: object) -> bool:
        if type(t) is not int:
            t = _int_between(t, 2, self.n)
        for part in self._parts:  # a loop, not any(): no generator per probe
            if t in part:
                return True
        return False

    def __iter__(self):
        return chain.from_iterable(self._parts)

    def __len__(self) -> int:
        return sum(map(len, self._parts))


def _runs(members: tuple[int, ...]) -> tuple[range, ...]:
    """members as maximal ranges of one step, in order; refuses a tuple that
    is not strictly increasing.  One pass over the differences: a run takes
    its step from its first two members and ends before the first that
    leaves it."""
    if not members:
        return ()
    parts = []
    first = last = members[0]
    step = 0  # the open run's step, or 0 while it holds one member
    for t in members[1:]:
        d = t - last
        if d <= 0:
            raise ValueError("members must be strictly increasing")
        if not step:
            step = d
        elif d != step:
            parts.append(range(first, last + 1, step))
            first, step = t, 0
        last = t
    parts.append(range(first, last + 1, step or 1))
    return tuple(parts)


def _size(s: Set) -> int:
    """len(s), but a RangeSet's from its bounds: len() of a range overflows."""
    if isinstance(s, RangeSet):
        r = s._range
        return max(0, -((r.start - r.stop) // r.step))
    return len(s)


def _set_operator(op):
    """A set operator for RangeSet: it works on a set of the members."""

    def forward(self, other):
        return op(self._materialize(), other)

    def reflected(self, other):
        if not isinstance(other, (set, frozenset)):
            return NotImplemented
        return op(set(other), self._materialize())

    return forward, reflected


def _within(small: Set, large: Set) -> bool:
    """small <= large: one pass over small, or O(1) for two RangeSets."""
    if isinstance(small, RangeSet) and isinstance(large, RangeSet):
        # a range's first two members fix its step and residue, its last its end
        r = small._range
        return all(map(large.__contains__, (*r[:2], *r[-1:])))
    return all(map(large.__contains__, small))


def _order(op, subset):
    """RangeSet's == <= < (subset) or >= > (superset): sizes, then _within."""

    def compare(self, other):
        if not isinstance(other, Set):
            return NotImplemented
        small, large = (self, other) if subset else (other, self)
        return op(_size(self), _size(other)) and _within(small, large)

    return compare


class RangeSet(Set):
    """A read-only set of the members of one ascending ``range``.

    ``in``, ``len`` and ``bool`` are O(1) and iteration is ascending.  ``==``
    and ``<= < >= >`` against another Set, at any size, are one size test
    and one C-level membership pass over the smaller side, or O(1) against
    a RangeSet.  ``| & - ^`` return a plain ``set``, and refuse a range of
    more than MATERIALIZE_CAP members with ValueError.  Unhashable.
    """

    __slots__ = ("_range",)

    def __init__(self, members: range) -> None:
        if members.step <= 0:
            raise ValueError("a RangeSet needs an ascending range")
        self._range = members

    def __contains__(self, x: object) -> bool:
        r = self._range
        if type(x) is not int:
            hash(x)  # an unhashable probe raises TypeError, as for a set
            x = _int_between(x, r.start, r.stop - 1)
        return x in r

    def __iter__(self):
        return iter(self._range)

    def __len__(self) -> int:
        return len(self._range)

    def __bool__(self) -> bool:
        return bool(self._range)

    __eq__ = _order(operator.eq, True)
    __le__, __lt__ = _order(operator.le, True), _order(operator.lt, True)
    __ge__, __gt__ = _order(operator.ge, False), _order(operator.gt, False)

    __hash__ = None

    __or__, __ror__ = _set_operator(operator.or_)
    __and__, __rand__ = _set_operator(operator.and_)
    __sub__, __rsub__ = _set_operator(operator.sub)
    __xor__, __rxor__ = _set_operator(operator.xor)

    def _materialize(self) -> set:
        size = _size(self)
        if size > MATERIALIZE_CAP:
            shown = f"a set of {_show_int(size)} members"
            raise ValueError(f"refusing to materialize {shown} (cap {MATERIALIZE_CAP})")
        return set(self._range)

    def __repr__(self) -> str:
        return f"RangeSet({self._range!r})"


def _check_cap(n: int, what: str) -> None:
    if n > MATERIALIZE_CAP:
        raise ValueError(
            f"refusing to materialize {what} for n={_show_int(n)} "
            f"(cap {MATERIALIZE_CAP}); use contains() for membership"
        )


def _split(n: int) -> tuple[int, int]:
    """(chi'(n), s): a tent reaches t in [chi', s), n - t splits [s, n].

    (2, n/2+2) for even n, (3, 3) for odd n; refuses a bad n.  A plain int
    n >= 3 passes an inline test with no call; any other n goes to
    _check_n, which states the rule.  A pair, not a range: every closed
    form, contains() and each refusal read it, and a range built per call
    would slow them all.
    """
    if type(n) is not int or n < 3:
        _check_n(n)
    if n % 2:
        return 3, 3
    return 2, n // 2 + 2


def chi_prime(n: int) -> int:
    """Chromatic index of the n-edge cycle: 2 for even n, 3 for odd n."""
    return _split(n)[0]


def _gap(n: int) -> range:
    """forbidden_set(n) as a progression of step 2 ending at n-1; empty for n < 5."""
    s = _split(n)[1]
    return range(s + (n - s + 1) % 2, n, 2)


def forbidden_set(n: int) -> RangeSet:
    """Color counts in [chi', n] admitting no cyclic-mode coloring (n >= 3).

    Odd n: the even t in [4, n-1].  Even n: the odd t in [n/2+2, n-1].
    Both ranges are empty for n = 3 and 4, so the set is empty there.
    A read-only RangeSet over _gap(n): O(1) to build, ``in`` and ``len``,
    for every n; it compares equal to the plain set of its members.
    """
    return RangeSet(_gap(n))


def theta_cyclic(n: int) -> ThetaSet:
    """All color counts admitting a cyclic-mode coloring of the n-edge cycle."""
    chi, s = _split(n)
    _check_cap(n, "a feasible set")
    zigzags = range(s + (n - s) % 2, n + 1, 2)
    return ThetaSet._of_ranges(n, range(chi, s), zigzags)


def theta_interval(n: int) -> ThetaSet:
    """All color counts admitting an interval-mode coloring.

    [2, n/2+1] for even n; empty for odd n, since an interval coloring
    forces edge colors to alternate parity around the cycle.
    """
    chi, s = _split(n)
    _check_cap(n, "a feasible set")
    return ThetaSet._of_ranges(n, range(chi, s))


def contains(n: int, t: int) -> bool:
    """Constant-time membership test for theta_cyclic(n).

    A t that is not an int is answered as ``t in theta_cyclic(n)`` answers
    it, in O(1), past the cap too.
    """
    chi, s = _split(n)
    if type(t) is not int:
        t = _int_between(t, chi, n)
    if (n - t) % 2:
        return chi <= t < s
    return chi <= t <= n


def bounds_cyc(n: int) -> tuple[int, int]:
    """Least and greatest feasible color counts in cyclic mode, (chi'(n), n).

    Constant time for every n >= 3: unlike theta_cyclic, no cap applies.
    """
    return (_split(n)[0], n)


class Infeasible(Exception):
    """No coloring exists, or no pattern applies, for the requested (n, t).

    ``reason`` names the gate that failed: "range" when t falls outside
    [chi', n], "forbidden" when t sits in the parity gap, "pattern" when a
    specific builder was asked for parameters outside its shape.

    ``construct`` passes no ``message``: its text, for a t out of range or
    in the gap, is built from n, t and reason when ``message``, ``str()``,
    ``repr()`` or ``args`` is first read, and then kept; any other reason
    needs a ``message``.  ``args`` is ``(message,)``.  Pickling and copying
    keep n, t, reason and the text once built or given.
    """

    def __init__(self, n: int, t: int, reason: str, message: str | None = None) -> None:
        if message is None and reason not in (REASON_RANGE, REASON_FORBIDDEN):
            raise ValueError(f"a refusal for reason {reason!r} needs a message")
        self.n = n
        self.t = t
        self.reason = reason
        self._message = message

    @property
    def message(self) -> str:
        if self._message is None:
            self._message = _refusal(self.n, self.t, self.reason)
        return self._message

    @property
    def args(self) -> tuple[str]:
        return (self.message,)

    def __str__(self) -> str:
        return self.message

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.message!r})"

    def __reduce__(self):
        # the text once built or given, and the dict any note added
        return type(self), (self.n, self.t, self.reason, self._message), self.__dict__


def _refusal(n: int, t: int, reason: str) -> str:
    """The text of construct's refusal of t for C(n): out of range, or in the gap."""
    if reason == REASON_FORBIDDEN:
        gap = _gap(n)
        # len() of a range longer than sys.maxsize overflows; its slice's does not
        members = gap if len(gap[:4]) <= 3 else (gap[0], gap[1], "...", gap[-1])
        shown = ",".join(map(_show_int, members))
        where = f"in forbidden set {{{shown}}} of"
    else:
        where = f"outside [{chi_prime(n)},{_show_int(n)}] for"
    return f"t={_show_int(t)} {where} C({_show_int(n)})"


def zigzag_staircase(n: int, t: int) -> CycleColoring:
    """Alternating (1,2) prefix of length n-t, then the ascent 1..t.

    Requires chi'(n) <= t <= n with n-t even; refuses n above
    MATERIALIZE_CAP with ValueError.
    """
    chi = _split(n)[0]
    _require_int(t, "'t'")
    if not (chi <= t <= n) or (n - t) % 2 != 0:
        need = f"{chi} <= t <= {_show_int(n)} with n-t even, got t={_show_int(t)}"
        raise Infeasible(n, t, REASON_PATTERN, f"zigzag-staircase needs {need}")
    _check_cap(n, "a witness")
    pad = (n - t) // 2
    return CycleColoring._trusted(n, t, (1, 2) * pad + tuple(range(1, t + 1)))


def tent(n: int, t: int) -> CycleColoring:
    """Ascent 1..t, descent t-1..2, then alternating (1,2) padding.

    Requires even n and 2 <= t <= n/2+1; the result is interval-valid.
    Refuses n above MATERIALIZE_CAP with ValueError.
    """
    chi, s = _split(n)
    _require_int(t, "'t'")
    if not chi <= t < s:
        got = f"n={_show_int(n)}, t={_show_int(t)}"
        need = "even n and 2 <= t <= n/2+1"
        raise Infeasible(n, t, REASON_PATTERN, f"tent needs {need}, got {got}")
    _check_cap(n, "a witness")
    pad = (n - (2 * t - 2)) // 2
    ascent = tuple(range(1, t + 1))
    # t-1..2, reusing the ascent's ints
    return CycleColoring._trusted(n, t, ascent + ascent[t - 2 : 0 : -1] + (1, 2) * pad)


def construct(n: int, t: int) -> CycleColoring:
    """Canonical witness for (n, t); raises Infeasible outside theta_cyclic(n).

    Equal parity of n and t selects the zigzag-staircase (this covers every
    even t for even n), otherwise the tent.  Pure and deterministic: the same
    input always yields the identical coloring.  A feasible n above
    MATERIALIZE_CAP is refused with ValueError, after the Infeasible checks.
    """
    chi, s = _split(n)
    if type(t) is not int:
        _require_int(t, "'t'")
    if not chi <= t <= n:
        raise Infeasible(n, t, REASON_RANGE)
    if (n - t) % 2 == 0:
        return zigzag_staircase(n, t)
    if t < s:
        return tent(n, t)
    raise Infeasible(n, t, REASON_FORBIDDEN)
