"""Closed-form feasibility landscape for edge colorings of cycles.

The theorem is stated once, in ``_split(n) = (chi', s)``, which splits
[chi', n] at s.  chi' is the chromatic index: 2 for even n, 3 for odd n.
A tent coloring reaches every t in [chi', s): [2, n/2+1] for even n, none
for odd n, where s = chi' = 3.  From s to n, a t with n - t even has a
zigzag-staircase coloring and the others form the forbidden gap.  So
cyclic-mode colorings exist exactly for the tent t and the zigzag t, and
interval-mode colorings exactly for the tent t.
"""

from __future__ import annotations

from bisect import bisect_left

from .model import (
    RangeSet,
    _assign,
    _check_n,
    _int_between,
    _Record,
    _require_int,
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
]

PROVENANCE_FORMULA = "formula"
PROVENANCE_SEARCH = "search"

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


class ThetaSet(_Record):
    """A finite set of feasible color counts for one cycle size.

    Building one is O(len(members)): one built by hand has n and every
    member checked (plain ints only, no bool, as in CycleColoring), while
    the closed forms check only the ranges they are made of
    and slice their members out of one shared tuple of ints, allocating no
    int objects.
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
        _check_provenance(provenance)
        if any(b <= a for a, b in zip(members, members[1:])):
            raise ValueError("members must be strictly increasing")
        if members:
            _check_span(n, members[0], members[-1])
        _assign(self, "n", n)
        _assign(self, "members", members)
        _assign(self, "provenance", provenance)

    @classmethod
    def _of_ranges(cls, n: int, provenance: str, *parts: range) -> ThetaSet:
        """The union of ascending ranges, each above the one before it.

        Checks the ranges, not their members, so the only O(len) work is
        copying the members' slices of the shared ints, which takes no new
        int object.
        """
        _check_provenance(provenance)
        if any(r.step <= 0 for r in parts):
            raise ValueError("members must be strictly increasing")
        parts = tuple(r for r in parts if r)
        if any(a[-1] >= b[0] for a, b in zip(parts, parts[1:])):
            raise ValueError("members must be strictly increasing")
        members: tuple[int, ...] = ()
        if parts:
            _check_span(n, parts[0][0], parts[-1][-1])
            ints = _ints_through(parts[-1][-1])
            for r in parts:
                members += ints[r.start : r.stop : r.step]
        self = object.__new__(cls)
        _assign(self, "n", n)
        _assign(self, "members", members)
        _assign(self, "provenance", provenance)
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


def _check_provenance(provenance: str) -> None:
    if provenance not in (PROVENANCE_FORMULA, PROVENANCE_SEARCH):
        raise ValueError(f"unknown provenance {provenance!r}")


def _check_span(n: int, least: int, greatest: int) -> None:
    if not (2 <= least and greatest <= n):
        raise ValueError(f"members must lie in [2, {_show_int(n)}]")


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
    return ThetaSet._of_ranges(n, PROVENANCE_FORMULA, range(chi, s), zigzags)


def theta_interval(n: int) -> ThetaSet:
    """All color counts admitting an interval-mode coloring.

    [2, n/2+1] for even n; empty for odd n, since an interval coloring
    forces edge colors to alternate parity around the cycle.
    """
    chi, s = _split(n)
    _check_cap(n, "a feasible set")
    return ThetaSet._of_ranges(n, PROVENANCE_FORMULA, range(chi, s))


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
