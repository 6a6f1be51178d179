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
zigzag-staircase when n - t is even and the tent otherwise.  It is the one
place that raises ``Infeasible``, which means that no coloring exists; a
builder asked for a pair outside its own pattern refuses with ValueError,
since the other pattern may still cover it.
"""

from __future__ import annotations

import operator
from collections.abc import Set
from functools import partialmethod
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
    "Infeasible",
    "zigzag_staircase",
    "tent",
    "construct",
]

PROVENANCE_FORMULA = "formula"
PROVENANCE_SEARCH = "search"

REASON_RANGE = "range"
REASON_FORBIDDEN = "forbidden"

# The largest n whose feasible sets and witnesses are built, and the most
# members a ThetaSet materializes; beyond it, use contains() or ``in``.
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


class ThetaSet(_Record, Set):
    """A read-only set of feasible or forbidden color counts for one cycle size.

    Its parts are the maximal runs of one step that ``_runs`` cuts the
    members into, none empty.  A closed form builds them in O(1), unchecked,
    and ``members`` on its first read, refused past MATERIALIZE_CAP members.
    One built by hand checks n and every member (plain ints, no bool) in
    O(|members|) and keeps the checked tuple as ``members``: one part for a
    progression, about |members|/2 at worst (2, 3, 5, 8, 13 holds 3).
    A pickle or copy keeps n, the parts and provenance, checked in O(#parts).

    No comparison reads ``n`` or ``provenance``.  ``in`` maps a non-int
    probe to the int it equals, then takes O(1) per part.  ``== <= < >= >``
    compare sizes, which never overflow, then walk both sides' parts once
    against a ThetaSet, at any size, or pass once over the smaller side of
    another Set, stopping at its first member that the other side lacks.
    ``hash`` is the frozenset's, built on each call in O(|members|) and
    refused with TypeError past MATERIALIZE_CAP members, and ``| & - ^``
    return a plain ``set`` of ``members``.
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
        """The closed-form set over parts, less an empty last one; checks nothing:
        its callers pass the maximal runs in [2, n] that _split makes."""
        s = object.__new__(cls)
        set_n, set_parts, set_provenance, _ = cls._setters
        set_n(s, n)
        set_parts(s, parts if parts[-1] else parts[:-1])
        set_provenance(s, PROVENANCE_FORMULA)
        return s

    @classmethod
    def _of_parts(cls, n: int, parts: tuple[range, ...], provenance: str) -> ThetaSet:
        """The set a pickle or copy rebuilds: n and provenance checked as by
        hand, parts as nonempty ascending ranges in [2, n] and maximal runs:
        a run of one member comes last, and no run goes on into the next."""
        cls(n, (), provenance)  # refuses n and provenance as by hand
        ranges = type(parts) is tuple and all(
            type(p) is range and p and p.step > 0 for p in parts
        )
        maximal = ranges and all(
            p[1:2] and 0 < q[0] - p[-1] != p.step for p, q in zip(parts, parts[1:])
        )
        if not maximal or parts and not 2 <= parts[0][0] <= parts[-1][-1] <= n:
            raise ValueError(f"parts must be maximal runs in [2, {_show_int(n)}]")
        s = object.__new__(cls)
        set_n, set_parts, set_provenance, _ = cls._setters
        set_n(s, n)
        set_parts(s, parts)
        set_provenance(s, provenance)
        return s

    @property
    def members(self) -> tuple[int, ...]:
        try:
            return self._members
        except AttributeError:  # unset until a set not built by hand reads it
            pass
        _check_size(self, "materialize", ValueError)
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

    def _size(self) -> int:
        """The member count, from the parts' ends; len() overflows past sys.maxsize."""
        return sum([(p[-1] - p[0]) // p.step + 1 for p in self._parts])

    __len__ = _size

    def __bool__(self) -> bool:
        return bool(self._parts)

    def _compare(self, other: object, op, subset: bool):
        """self op other for == <= < (subset) or >= > (superset): equal
        sizes and a subset are equal sets."""
        if not isinstance(other, Set):
            return NotImplemented
        theta = isinstance(other, ThetaSet)
        if not op(self._size(), other._size() if theta else len(other)):
            return False
        small, large = (self, other) if subset else (other, self)
        if theta:
            return _within(small._parts, large._parts)
        return all(map(large.__contains__, small))

    __eq__ = partialmethod(_compare, op=operator.eq, subset=True)
    __le__ = partialmethod(_compare, op=operator.le, subset=True)
    __lt__ = partialmethod(_compare, op=operator.lt, subset=True)
    __ge__ = partialmethod(_compare, op=operator.ge, subset=False)
    __gt__ = partialmethod(_compare, op=operator.gt, subset=False)

    def __hash__(self) -> int:
        _check_size(self, "hash", TypeError)  # as for a value that has no hash
        return hash(frozenset(self))

    def _operate(self, other: object, op) -> set:
        return op(set(self.members), other)

    # | & ^ are symmetric, and set refuses an operand that set refuses
    __or__ = __ror__ = partialmethod(_operate, op=operator.or_)
    __and__ = __rand__ = partialmethod(_operate, op=operator.and_)
    __xor__ = __rxor__ = partialmethod(_operate, op=operator.xor)
    __sub__ = partialmethod(_operate, op=operator.sub)

    def __rsub__(self, other: object) -> set:
        if not isinstance(other, (set, frozenset)):
            return NotImplemented
        return set(other) - set(self.members)

    def __repr__(self) -> str:
        # one text at every size, the same for equal parts however built
        shown = ", ".join(map(_show_range, self._parts))
        if len(self._parts) == 1:
            shown += ","
        return (
            f"{type(self).__qualname__}(n={_show_int(self.n)}, parts=({shown}), "
            f"provenance={self.provenance!r})"
        )

    def __reduce__(self):
        return type(self)._of_parts, (self.n, self._parts, self.provenance)


def _check_size(s: ThetaSet, verb: str, error: type[Exception]) -> None:
    """Refuse to verb s with error when it holds more than MATERIALIZE_CAP members."""
    size = s._size()
    if size > MATERIALIZE_CAP:
        shown = f"a set of {_show_int(size)} members (cap {MATERIALIZE_CAP})"
        raise error(f"refusing to {verb} {shown}")


def _within(small: tuple[range, ...], large: tuple[range, ...]) -> bool:
    """Whether the parts small hold no member outside the parts large, in
    O(#small + #large): a member x of small in a part q of large brings its
    part's next members up to q's last when q's step divides their step;
    otherwise the next one must lie past q."""
    rest = iter(large)
    q = range(0)
    for p in small:
        x, step = p[0], p.step
        while x <= p[-1]:
            while not q or q[-1] < x:
                q = next(rest, None)
                if q is None:
                    return False
            if x not in q or step % q.step and x + step <= min(p[-1], q[-1]):
                return False
            x += ((q[-1] - x) // step + 1) * step  # the first past q
    return True


def _show_range(r: range) -> str:
    """r as range(first, last + 1[, step]), every int as _show_int shows it."""
    step = f", {_show_int(r.step)}" if r.step != 1 and r[1:2] else ""
    return f"range({_show_int(r[0])}, {_show_int(r[-1] + 1)}{step})"


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


def forbidden_set(n: int) -> ThetaSet:
    """Color counts in [chi', n] admitting no cyclic-mode coloring (n >= 3).

    Odd n: the even t in [4, n-1].  Even n: the odd t in [n/2+2, n-1].
    Both ranges are empty for n = 3 and 4, so the set is empty there.
    A ThetaSet of the one part _gap(n), O(1) to build for every n, uncapped.
    """
    return ThetaSet._of_ranges(n, _gap(n))


def theta_cyclic(n: int) -> ThetaSet:
    """All color counts admitting a cyclic-mode coloring of the n-edge cycle."""
    chi, s = _split(n)
    _check_cap(n, "a feasible set")
    if n % 2:  # no tent: the zigzags from chi are one run
        return ThetaSet._of_ranges(n, range(chi, n + 1, 2))
    # the tent's run [chi, s) takes in s when s is a zigzag (n - s even);
    # the other zigzags, every second t from there to n, make the second run
    end = s + 1 - (n - s) % 2
    return ThetaSet._of_ranges(n, range(chi, end), range(end + 1, n + 1, 2))


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
    """No coloring of C(n) uses exactly t colors; ``construct`` raises it.

    By the theorem there are two reasons, and ``reason`` names which: "range"
    when t falls outside [chi', n], "forbidden" when t sits in the parity
    gap.  Any other reason is refused with ValueError.  ``message``,
    ``str()``, ``repr()`` and ``args`` (``(message,)``) build the text from
    n, t and reason on each read, so a caller that reads only ``reason``
    formats nothing.  Pickling and copying keep n, t, reason and any note.
    """

    def __init__(self, n: int, t: int, reason: str) -> None:
        if reason not in (REASON_RANGE, REASON_FORBIDDEN):
            known = f"{REASON_RANGE!r} or {REASON_FORBIDDEN!r}"
            raise ValueError(f"reason must be {known}, got {reason!r}")
        self.n = n
        self.t = t
        self.reason = reason

    @property
    def message(self) -> str:
        return _refusal(self.n, self.t, self.reason)

    @property
    def args(self) -> tuple[str]:
        return (self.message,)

    def __str__(self) -> str:
        return self.message

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.message!r})"

    def __reduce__(self):
        return type(self), (self.n, self.t, self.reason), self.__dict__


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

    Requires chi'(n) <= t <= n with n-t even, then n at most
    MATERIALIZE_CAP; refuses any other pair with ValueError.
    """
    chi = _split(n)[0]
    _require_int(t, "'t'")
    if not (chi <= t <= n) or (n - t) % 2 != 0:
        need = f"{chi} <= t <= {_show_int(n)} with n-t even, got t={_show_int(t)}"
        raise ValueError(f"zigzag-staircase needs {need}")
    _check_cap(n, "a witness")
    pad = (n - t) // 2
    return CycleColoring._trusted(n, t, (1, 2) * pad + tuple(range(1, t + 1)))


def tent(n: int, t: int) -> CycleColoring:
    """Ascent 1..t, descent t-1..2, then alternating (1,2) padding.

    Requires even n and 2 <= t <= n/2+1, then n at most MATERIALIZE_CAP;
    refuses any other pair with ValueError.  The result is interval-valid.
    """
    chi, s = _split(n)
    _require_int(t, "'t'")
    if not chi <= t < s:
        got = f"n={_show_int(n)}, t={_show_int(t)}"
        need = "even n and 2 <= t <= n/2+1"
        raise ValueError(f"tent needs {need}, got {got}")
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
