"""Deterministic witness colorings for every feasible (n, t) pair.

Two canonical patterns cover the whole feasibility region:

* zigzag-staircase, when n and t have equal parity: alternate 1,2 for the
  first n-t edges, then ascend 1..t; both the seam and the wrap land on an
  admissible palette.
* tent, when n is even and t is odd: ascend 1..t, descend t-1..2, then
  alternate 1,2; every adjacent pair differs by exactly one, so the result
  is interval-valid as well.
"""

from __future__ import annotations

from .characterization import _check_cap, _gap, _split
from .model import CycleColoring, _require_int, _show_int

__all__ = [
    "REASON_RANGE",
    "REASON_FORBIDDEN",
    "REASON_PATTERN",
    "Infeasible",
    "zigzag_staircase",
    "tent",
    "construct",
]

REASON_RANGE = "range"
REASON_FORBIDDEN = "forbidden"
REASON_PATTERN = "pattern"


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
        raise Infeasible(
            n,
            t,
            REASON_PATTERN,
            f"zigzag-staircase needs {chi} <= t <= {_show_int(n)} with n-t even, "
            f"got t={_show_int(t)}",
        )
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
        raise Infeasible(
            n,
            t,
            REASON_PATTERN,
            "tent needs even n and 2 <= t <= n/2+1, "
            f"got n={_show_int(n)}, t={_show_int(t)}",
        )
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
