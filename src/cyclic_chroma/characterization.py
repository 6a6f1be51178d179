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
from bisect import bisect_left
from collections.abc import Set
from math import trunc

from .model import CycleColoring, _assign, _check_n, _Record, _require_int, _show_int

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

# Feasible sets and witnesses are materialized only up to this cycle size;
# use contains() for membership queries beyond it.
MATERIALIZE_CAP = 10**6

# The ints 0, 1, ..., k-1, grown on demand and then kept; the capped closed
# forms never grow it past MATERIALIZE_CAP + 1 ints (about 36 MiB on 64-bit
# CPython).  A closed-form set slices its members out of this tuple, sharing
# the int objects instead of allocating new ones.  Replaced whole, never
# mutated, so a racing reader still gets a valid tuple.
_INTS: tuple[int, ...] = ()


def _ints_through(k: int) -> tuple[int, ...]:
    """A tuple whose item i is the int i, for every i in [0, k]."""
    global _INTS
    ints = _INTS
    if len(ints) <= k:
        ints = tuple(range(max(k + 1, min(2 * len(ints), MATERIALIZE_CAP + 1))))
        _INTS = ints
    return ints


def _int_between(x: object, lo: int, hi: int) -> int | None:
    """The int in [lo, hi] that x equals, or None when there is none.

    O(1) for every x: only the bounds and one int are compared with it, so
    '3', None and Decimal('NaN') are answered without a scan, while 2.0,
    Fraction(4), 4+0j, True, numpy.int64(4), numpy.True_ and
    numpy.float32(4) stand for the int they equal.
    """
    if isinstance(x, complex):
        if x.imag:
            return None
        x = x.real
    try:
        if hasattr(x, "__index__"):
            x = operator.index(x)  # numpy.int64 defines no __trunc__
        if not lo <= x <= hi:
            return None
        # numpy.bool_ and numpy.float32 define neither __index__ nor
        # __trunc__; int() maps them, and the == below keeps int('3') out
        i = trunc(x) if hasattr(x, "__trunc__") else int(x)
    except (TypeError, ValueError, ArithmeticError):
        # x does not order against int (a str, None, a Decimal NaN)
        return None
    return i if type(i) is int and i == x else None


class ThetaSet(_Record):
    """A finite set of feasible color counts for one cycle size.

    Building one is O(len(members)): one built by hand has n and every
    member checked (plain ints only, no bool, as in CycleColoring), while
    the closed forms check nothing and slice their members out of one
    shared tuple of ints, allocating no int objects.
    ``in`` is a binary search, O(log n), after a probe that is not an int is
    mapped to the int it equals in O(1); iteration and ``len`` are those of
    the ``members`` tuple.
    """

    __slots__ = ("n", "members", "provenance")

    def __init__(self, n: int, members: tuple[int, ...], provenance: str) -> None:
        _check_n(n)
        members = tuple(members)
        # one C-level pass over the member types, as in CycleColoring; the
        # loop that names the first bad member runs only when one is bad
        if not {int}.issuperset(map(type, members)):
            for x in members:
                _require_int(x, "'members' entry")
        if provenance not in (PROVENANCE_FORMULA, PROVENANCE_SEARCH):
            raise ValueError(f"unknown provenance {provenance!r}")
        if any(b <= a for a, b in zip(members, members[1:])):
            raise ValueError("members must be strictly increasing")
        if members and not (2 <= members[0] and members[-1] <= n):
            raise ValueError(f"members must lie in [2, {_show_int(n)}]")
        _assign(self, "n", n)
        _assign(self, "members", members)
        _assign(self, "provenance", provenance)

    @classmethod
    def _of_ranges(cls, n: int, *parts: range) -> ThetaSet:
        """The closed-form set that is the union of ascending ranges.

        Checks nothing: its callers pass ranges in [2, n], each above the
        one before it, as _split makes them.  The only O(len) work is
        copying the members' slices of the shared ints, which takes no new
        int object.
        """
        ints = _ints_through(max((r[-1] for r in parts if r), default=0))
        members: tuple[int, ...] = ()
        for r in parts:
            members += ints[r.start : r.stop : r.step]
        self = object.__new__(cls)
        _assign(self, "n", n)
        _assign(self, "members", members)
        _assign(self, "provenance", PROVENANCE_FORMULA)
        return self

    def __contains__(self, t: object) -> bool:
        members = self.members
        if type(t) is not int:
            t = _int_between(t, members[0], members[-1]) if members else None
            if t is None:
                return False
        i = bisect_left(members, t)
        return i < len(members) and members[i] == t

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


def _set_operator(op):
    """A set operator for RangeSet: it works on a set of the members."""

    def forward(self, other):
        return op(set(self._range), other)

    def reflected(self, other):
        if not isinstance(other, (set, frozenset)):
            return NotImplemented
        return op(set(other), set(self._range))

    return forward, reflected


class RangeSet(Set):
    """A read-only set of the members of one ascending ``range``.

    ``in``, ``len`` and ``bool`` are O(1) and iteration is ascending.  ``==``
    against another Set is one size test and one C-level membership pass
    over the range, for any size; ``| & - ^`` return a plain ``set``.
    Unhashable, like ``set``.
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
            if x is None:
                return False
        return x in r

    def __iter__(self):
        return iter(self._range)

    def __len__(self) -> int:
        return len(self._range)

    def __bool__(self) -> bool:
        return bool(self._range)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RangeSet):
            return self._range == other._range
        if not isinstance(other, Set):
            return NotImplemented
        r = self._range  # len(r) overflows past sys.maxsize; size does not
        size = max(0, -((r.start - r.stop) // r.step))
        return len(other) == size and all(map(other.__contains__, r))

    __hash__ = None

    __or__, __ror__ = _set_operator(operator.or_)
    __and__, __rand__ = _set_operator(operator.and_)
    __sub__, __rsub__ = _set_operator(operator.sub)
    __xor__, __rxor__ = _set_operator(operator.xor)

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

    (2, n/2+2) for even n, (3, 3) for odd n; refuses a bad n.  A pair, not
    a range: building a range made contains() about 25% slower.
    """
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
        if t is None:
            return False
    if (n - t) % 2:
        return chi <= t < s
    return chi <= t <= n


def bounds_cyc(n: int) -> tuple[int, int]:
    """Least and greatest feasible color counts in cyclic mode, (chi'(n), n).

    Constant time for every n >= 3: unlike theta_cyclic, no cap applies.
    """
    return (chi_prime(n), n)


class Infeasible(Exception):
    """No coloring exists, or no pattern applies, for the requested (n, t).

    ``reason`` names the gate that failed: "range" when t falls outside
    [chi', n], "forbidden" when t sits in the parity gap, "pattern" when a
    specific builder was asked for parameters outside its shape.
    """

    def __init__(self, n: int, t: int, reason: str, message: str) -> None:
        super().__init__(message)
        self.n = n
        self.t = t
        self.reason = reason
        self.message = message


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
    _require_int(t, "'t'")
    if not chi <= t <= n:
        reason, where = REASON_RANGE, f"outside [{chi},{_show_int(n)}] for"
    elif (n - t) % 2 == 0:
        return zigzag_staircase(n, t)
    elif t < s:
        return tent(n, t)
    else:
        gap = _gap(n)
        # len() of a range longer than sys.maxsize overflows; its slice's does not
        members = gap if len(gap[:4]) <= 3 else (gap[0], gap[1], "...", gap[-1])
        shown = ",".join(map(_show_int, members))
        reason, where = REASON_FORBIDDEN, f"in forbidden set {{{shown}}} of"
    raise Infeasible(n, t, reason, f"t={_show_int(t)} {where} C({_show_int(n)})")
