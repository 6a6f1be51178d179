"""Exhaustive ground truth by depth-first search, witness counts by formula,
plus a structure report.

The search (``exists_search``, ``enumerate_colorings``, ``theta_by_search``)
walks the color circle: after fixing the first edge, each further edge may
only take a color adjacent to its predecessor (consecutive, or the 1/t wrap
in cyclic mode), and the last edge must close back on the first.  An odd n
on a color graph whose steps are all odd (interval mode, t <= 2, or even t
in cyclic mode) is answered before the walk starts: every edge flips the
color's parity, so no closed walk of odd length exists.  Otherwise branches
die as soon as the unused-color count exceeds the edges left; the default
bound n <= 14 stays well under a second per query, but a raised bound can
still meet an exponential tree (an even n with a tent's t near n/2).  The
walk is an outer loop over the first color and one inner loop over the
nodes, with one fixed slot per depth for the color and one for the sibling
still to try, and no iterator per node.  It holds O(n + t) state, so a
raised bound is capped at MATERIALIZE_CAP.

``count_colorings`` runs no search.  A valid coloring is a closed n-step
walk that visits every vertex of the color graph, so the count is a sum of
binomials, taken in one pass over j in [0, n/2] with one running binomial:
O(n^2) bit operations and O(n) bits of state for any t (≈1 s at n = 10^5
on a 2-vCPU x86 VM, Python 3.11).  It answers under the same search bound
as the searches, and refuses an n above COUNT_CAP = 10^5 whatever the bound.
"""

from __future__ import annotations

import os
import re
import sys
from itertools import accumulate, compress, count, cycle, islice, repeat, starmap
from operator import add, eq, sub
from typing import Iterator, NamedTuple

from .characterization import MATERIALIZE_CAP, PROVENANCE_SEARCH, ThetaSet
from .model import (
    CycleColoring,
    _check_n,
    _check_t,
    _Record,
    _require_int,
    _show_int,
)
from .verifier import CYCLIC, _check_mode, _steps, verify

__all__ = [
    "DEFAULT_MAX_N",
    "MAX_N_ENV_VAR",
    "SearchBoundExceeded",
    "SearchConfig",
    "search_bound",
    "exists_search",
    "enumerate_colorings",
    "count_colorings",
    "theta_by_search",
    "ComponentSpan",
    "ProofDecomposition",
    "decompose",
]

DEFAULT_MAX_N = 14
MAX_N_ENV_VAR = "CYCLIC_CHROMA_MAX_N"
# count_colorings refuses a larger n whatever the search bound: its pass
# costs O(n^2) bit operations, ≈1 s at the cap and ≈135 s at MATERIALIZE_CAP
# on a 2-vCPU x86 VM
COUNT_CAP = 10**5

_PLAIN_INT = re.compile(r"^(0|[1-9][0-9]*)$")

# translations of decompose's edge marks (1 for color 1, 2 for color t):
# to 1 for either boundary color, and to 1 for color t only; and of its
# run-end bytes 2 + y to y
_KEPT = bytes.maketrans(b"\x02", b"\x01")
_TOP = bytes.maketrans(b"\x01\x02", b"\x00\x01")
_Y = bytes.maketrans(b"\x02\x03", b"\x00\x01")


class SearchBoundExceeded(Exception):
    """Raised when n exceeds the configured exhaustive-search bound."""


def search_bound() -> int:
    """Current search bound: CYCLIC_CHROMA_MAX_N (at most 10**6) when set, else 14."""
    raw = os.environ.get(MAX_N_ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_N
    if not _PLAIN_INT.fullmatch(raw):
        raise ValueError(
            f"{MAX_N_ENV_VAR} must be an unsigned integer without "
            f"leading zeros, got {raw!r}"
        )
    # a string with more digits than the cap is above it, and is never passed
    # to int(), which refuses one past Python's digit limit
    if len(raw) > len(str(MATERIALIZE_CAP)):
        shown = f"<a {len(raw)}-digit integer>"
    elif int(raw) <= MATERIALIZE_CAP:
        return int(raw)
    else:
        shown = raw
    raise ValueError(f"{MAX_N_ENV_VAR} must be at most {MATERIALIZE_CAP}, got {shown}")


class SearchConfig(_Record):
    """Enumeration options: mode, witness cap, and first-edge pinning.

    Pinning edge 1 to color 1 loses no answer to ``exists_search`` in
    either mode: a valid coloring uses color 1, and rotated along the
    cycle until an edge of that color comes first it stays valid.
    """

    __slots__ = ("mode", "limit", "fix_first_color")

    def __init__(
        self,
        mode: str = CYCLIC,
        limit: int | None = None,
        fix_first_color: bool = False,
    ) -> None:
        _check_mode(mode)
        if limit is not None:
            _require_int(limit, "limit")
            if limit < 1:
                shown = _show_int(limit)
                raise ValueError(f"limit must be >= 1 when given, got {shown}")
        if type(fix_first_color) is not bool:
            raise ValueError(f"fix_first_color must be a bool, got {fix_first_color!r}")
        set_mode, set_limit, set_fix_first_color = self._setters
        set_mode(self, mode)
        set_limit(self, limit)
        set_fix_first_color(self, fix_first_color)


def _successor_table(t: int, mode: str) -> list[list[int]]:
    """succ[a] lists the colors allowed next to a, ascending; index 0 unused.

    At most two of the steps land in [1, t] from any color, so the table
    takes O(t) work; the steps are taken in ascending order.
    """
    steps = sorted(_steps(t, mode))
    return [[]] + [[a + d for d in steps if 1 <= a + d <= t] for a in range(1, t + 1)]


def _check_search_args(n: int, t: int) -> None:
    # the public constructor's type rule, before the walk indexes by n and t
    _check_n(n)
    _require_int(t, "'t'")
    bound = search_bound()
    if n > bound:
        raise SearchBoundExceeded(
            f"n={_show_int(n)} exceeds the search bound {bound} "
            f"(set {MAX_N_ENV_VAR} to raise it)"
        )
    _check_t(n, t)


def _walks(n: int, t: int, cfg: SearchConfig) -> Iterator[tuple[int, ...]]:
    """Yield valid color sequences in lexicographic order.

    An outer loop over the first color, then one loop with no frame per
    edge: the walk stands at depth k with the color c to try on edge
    k + 1, and left[k] holds the one color it still has to try there (a
    color has at most two successors), or 0.  ``missing`` counts the colors
    seq does not use yet.  Each depth has one fixed slot in seq and in
    left, so the walk holds O(n + t) state and creates no iterator per
    node.  The last edge is decided at depth n - 2: each successor of
    seq[n - 2] that is also a successor of the first color, and that
    leaves no color missing, closes a coloring.

    Parity rule: when every allowed step is odd (interval mode, t <= 2, or
    even t in cyclic mode), each edge flips the parity of the color, so a
    closed walk has even length and an odd n yields nothing, at once.
    """
    if n % 2 and all(d % 2 for d in _steps(t, cfg.mode)):
        return
    succ = _successor_table(t, cfg.mode)
    # each list becomes a pair: the first successor, the second or 0
    for s in succ:
        s += (0, 0)[len(s):]
    seq = [0] * n
    seen = [0] * (t + 1)
    left = [0] * n
    end = n - 2
    for first in (1,) if cfg.fix_first_color else range(1, t + 1):
        seq[0] = first
        seen[first] = 1
        missing = t - 1
        closing = succ[first]
        k = 1
        c, left[1] = closing
        while k:
            if c:
                seq[k] = c
                s = seen[c]
                seen[c] = s + 1
                if not s:
                    missing -= 1
                if missing < n - k:
                    if k < end:
                        k += 1
                        c, left[k] = succ[c]
                        continue
                    # c has a successor, d; e may be the padding 0
                    d, e = succ[c]
                    if d in closing and not (missing and seen[d]):
                        seq[-1] = d
                        yield tuple(seq)
                    if e and e in closing and not (missing and seen[e]):
                        seq[-1] = e
                        yield tuple(seq)
            else:
                # depth k is done: back to its parent, which gives up its
                # color below (the first color too, when k reaches 0)
                k -= 1
                c = seq[k]
            s = seen[c] - 1
            seen[c] = s
            if not s:
                missing += 1
            c = left[k]
            left[k] = 0


def exists_search(
    n: int, t: int, mode: str = CYCLIC, fix_first_color: bool = False
) -> bool:
    """True when some valid coloring of (n, t) exists, by exhaustive search."""
    cfg = SearchConfig(mode=mode, fix_first_color=fix_first_color)
    _check_search_args(n, t)
    return next(_walks(n, t, cfg), None) is not None


def enumerate_colorings(
    n: int, t: int, config: SearchConfig | None = None
) -> list[CycleColoring]:
    """All valid colorings in lexicographic order, truncated at config.limit."""
    cfg = config if config is not None else SearchConfig()
    if not isinstance(cfg, SearchConfig):
        raise ValueError(f"config must be a SearchConfig, got {type(cfg).__name__}")
    _check_search_args(n, t)
    # no list holds more than sys.maxsize colorings: a larger limit cuts none
    walks = islice(_walks(n, t, cfg), min(cfg.limit or sys.maxsize, sys.maxsize))
    return [CycleColoring._trusted(n, t, colors) for colors in walks]


def count_colorings(n: int, t: int, mode: str = CYCLIC) -> int:
    """Total number of valid colorings; never applies symmetry fixing.

    Counted in closed form, not by search.  A coloring is a closed walk of
    n steps of +-1 on the color graph: the cycle C_t, or the path P_t in
    interval mode or when t <= 2.  With P(w) the closed walks on P_w summed
    over start vertices, the walks on P_t that reach both ends number
    P(t) - 2 P(t-1) + P(t-2).  A walk on C_t that misses a color covers an
    arc of w < t colors, which sits in t places; summed over w, those walks
    number t (P(t-1) - P(t-2)).
    """
    _check_mode(mode)
    _check_search_args(n, t)
    if n > COUNT_CAP:
        raise ValueError(f"refusing to count the colorings for n={n} (cap {COUNT_CAP})")
    cyclic = mode == CYCLIC and t >= 3
    widths = (t - 1, t - 2) if cyclic else (t, t - 1, t - 2)
    # P(w) = 0 when P_w has no edge (w <= 1), and on any path for odd n
    widths = [w for w in widths if w > 1 and n % 2 == 0]
    # reflection in the strip [1, w]: P(w) = (w+1) S(2w+2) - 2^n
    moduli = {2 * w + 2 for w in widths} | ({t} if cyclic else set())
    sums = _displacement_sums(n, moduli)

    def closed_on_path(w: int) -> int:
        return (w + 1) * sums[2 * w + 2] - 2**n if w in widths else 0

    if cyclic:
        # closed walks on C_t end a multiple of t from their start
        return t * sums[t] - t * (closed_on_path(t - 1) - closed_on_path(t - 2))
    return closed_on_path(t) - 2 * closed_on_path(t - 1) + closed_on_path(t - 2)


def _displacement_sums(n: int, moduli: set[int]) -> dict[int, int]:
    """S(m), for each m in moduli: the sum of C(n, j) over j with m | n - 2j.

    S(m) counts the n-step walks of +-1 (j steps down) that end a multiple
    of m from their start.  One pass keeps one running binomial and one sum
    per modulus, never a row of binomials.  C(n, j) = C(n, n - j), and
    n - 2j only changes sign under j -> n - j, so the pass stops at the
    middle and doubles.
    """
    sums = dict.fromkeys(moduli, 0)
    b = 1  # C(n, j)
    for j in range((n + 1) // 2):
        d = n - 2 * j
        for m in moduli:
            if d % m == 0:
                sums[m] += b
        b = b * (n - j) // (j + 1)
    # b is now C(n, n/2) for even n, at displacement 0, which every m divides
    middle = 0 if n % 2 else b
    return {m: 2 * s + middle for m, s in sums.items()}


def theta_by_search(n: int, mode: str = CYCLIC) -> ThetaSet:
    """Feasible color counts found by exhaustive search over t in [1, n]."""
    cfg = SearchConfig(mode=mode)
    _check_search_args(n, 1)
    members = tuple(
        t for t in range(1, n + 1) if next(_walks(n, t, cfg), None) is not None
    )
    return ThetaSet(n, members, PROVENANCE_SEARCH)


class ComponentSpan(NamedTuple):
    """One maximal run of boundary-colored edges, with its following gap.

    ``h_prime_size`` counts the gap edges plus the single boundary edge kept
    on each side of the gap.  No decomposition stores these:
    ``ProofDecomposition.components`` builds them from psi on each access.
    """

    index: int
    zeta: int
    eta: int
    h_size: int
    h_prime_size: int


class ProofDecomposition(_Record):
    """Structure of a valid coloring after removing interior-colored edges.

    Edges colored 1 or t ("boundary" edges) either form one connected block
    around the cycle (case A: y = psi = ()) or fall into m >= 2 runs
    H_1..H_m (case B).  Six fields are stored: n, t, u_size, rotation, and
    in case B

    * ``psi``, which alternates run and gap sizes |H_1|, |H'_1|, |H_2|, ...
      around an auxiliary 2m-cycle and sums to n + 2m; each run holds at
      least one edge and each gap at least one interior edge, so
      |H_q| >= 1 and |H'_q| >= 3;
    * ``y``, the 0/1 profile of run-end colors zeta_1, eta_1, zeta_2, ...
      (0 for color 1, 1 for color t).

    ``y`` and ``psi`` are stored as tuples, whatever sequence is given.

    The rest is read off these two: ``connected`` (psi is empty), ``m``
    (half the length of psi, or 1 in case A), ``components`` lists each
    run's span and following gap, ``horizontal`` marks the auxiliary edges
    joining equal profile values, and ``m1``/``m2`` list the runs whose gap
    region sees color 1 / t.  The last four are computed anew on each
    access in O(m) C-level passes, so a caller that reads one in a loop
    binds it once before the loop.  ``==``, ``hash``, ``repr`` and pickling
    follow the six stored fields.
    """

    __slots__ = ("n", "t", "u_size", "rotation", "y", "psi")

    def __init__(
        self,
        n: int,
        t: int,
        u_size: int,
        rotation: int,
        y: tuple[int, ...],
        psi: tuple[int, ...],
    ) -> None:
        y, psi = tuple(y), tuple(psi)
        if len(psi) % 2 or len(psi) == 2 or len(y) != len(psi):
            raise ValueError(
                "psi must be empty or have an even length >= 4, and y its "
                f"length; got {len(psi)} and {len(y)} entries"
            )
        if not {0, 1}.issuperset(y):
            raise ValueError("y entries must be 0 or 1")
        if psi:
            m = len(psi) // 2
            if sum(psi) != n + 2 * m:
                raise ValueError(f"psi must sum to n + 2m = {_show_int(n + 2 * m)}")
            if min(psi[0::2]) < 1:
                raise ValueError("every run size |H_q| must be >= 1")
            if min(psi[1::2]) < 3:
                raise ValueError("every gap size |H'_q| must be >= 3")
        set_n, set_t, set_u, set_rotation, set_y, set_psi = self._setters
        set_n(self, n)
        set_t(self, t)
        set_u(self, u_size)
        set_rotation(self, rotation)
        set_y(self, y)
        set_psi(self, psi)

    @property
    def m(self) -> int:
        return len(self.psi) // 2 or 1

    @property
    def connected(self) -> bool:
        return not self.psi

    def _runs(self) -> Iterator[tuple[int, int, int, int, int]]:
        """(q, zeta_q, eta_q, |H_q|, |H'_q|) per run, from psi in C-level passes."""
        h, gaps = self.psi[0::2], self.psi[1::2]
        # zeta_1 = 1 and zeta_{q+1} = zeta_q + |H_q| + |H'_q| - 2
        zeta = list(accumulate(map(sub, map(add, h, gaps), repeat(2)), initial=1))
        # eta_q = zeta_q + |H_q| - 1
        eta = map(sub, map(add, zeta, h), repeat(1))
        return zip(count(1), zeta, eta, h, gaps)

    @property
    def components(self) -> tuple[ComponentSpan, ...]:
        """Each run's span and following gap, in order; O(m) per access."""
        return tuple(starmap(ComponentSpan, self._runs()))

    @property
    def horizontal(self) -> tuple[bool, ...]:
        """Whether y_j == y_{j+1} around the 2m-cycle; O(m) per access."""
        y = self.y
        return tuple(map(eq, y, y[1:] + y[:1]))

    def _tops(self) -> Iterator[int]:
        # The gap after run q holds interior colors only, so it sees 1 or t
        # exactly when eta_q or zeta_{q+1} has it; tops counts how many of
        # those two edges have color t.
        y = self.y
        return map(add, y[1::2], y[2::2] + y[:1])

    @property
    def m1(self) -> frozenset[int]:
        """Runs whose gap region sees color 1; O(m) per access."""
        return frozenset(compress(count(1), map((2).__gt__, self._tops())))

    @property
    def m2(self) -> frozenset[int]:
        """Runs whose gap region sees color t; O(m) per access."""
        return frozenset(compress(count(1), self._tops()))

    @property
    def psi_sum(self) -> int:
        return sum(self.psi)

    def to_json_dict(self) -> dict:
        return {
            "case": "A" if self.connected else "B",
            "n": self.n,
            "t": self.t,
            "m": self.m,
            "connected": self.connected,
            "u_size": self.u_size,
            "rotation": self.rotation,
            "components": [
                {"index": q, "zeta": z, "eta": e, "h_size": h, "h_prime_size": g}
                for q, z, e, h, g in self._runs()
            ],
            "y": list(self.y),
            "psi": list(self.psi),
            "horizontal": list(self.horizontal),
            "m1": sorted(self.m1),
            "m2": sorted(self.m2),
            "psi_sum": self.psi_sum,
            # __init__ refuses a psi whose sum is not n + 2m
            "psi_identity_ok": True,
        }


def decompose(c: CycleColoring) -> ProofDecomposition:
    """Split a valid cyclic-mode coloring into boundary runs and gaps.

    Edges are numbered as if the coloring were rotated so that edge 1
    starts the first run and edge n carries an interior color; ``rotation``
    records the offset.  Raises ValueError when the coloring is not
    cyclic-mode valid.  The per-edge work is done in C-level passes over
    byte strings that mark the boundary edges.  The result stores psi and y
    and no per-run object; its ``components``, ``horizontal``, ``m1`` and
    ``m2`` are derived in O(m) on each access, so bind them once before a
    loop.
    """
    if not verify(c, CYCLIC).mode_satisfied:
        raise ValueError("decompose requires a valid cyclic-mode coloring")
    n, t, colors = c.n, c.t, c.colors
    # one byte per edge: 1 for color 1, 2 for color t, 0 for an interior color
    marks = bytes(map({1: 1, t: 2}.get, colors, repeat(0)))
    u_size = marks.count(0)
    kept = marks.translate(_KEPT)
    # runs start where a kept edge follows an interior one, around the cycle
    m = kept.count(b"\x00\x01") + (kept[0] > kept[-1])
    if m <= 1:
        # one run (or the whole cycle when no interior color exists)
        return ProofDecomposition(n, t, u_size, 0, (), ())
    offset = 0 if kept[0] > kept[-1] else kept.find(b"\x00\x01") + 1
    marks = marks[offset:] + marks[:offset]
    # A byte string of 0s and 1s read as one big-endian int and shifted
    # right by 8 bits is the same string moved one edge later, with 0 before
    # edge 1; so these are C-level passes over n bytes.
    kept = int.from_bytes(marks.translate(_KEPT), "big")
    top = int.from_bytes(marks.translate(_TOP), "big")
    # In the rotated order edge 1 is kept and edge n is not, so the edges
    # whose keeping differs from the edge before alternate: zeta_1,
    # eta_1 + 1, zeta_2, eta_2 + 1, ...  Cut at them, the cycle leaves an
    # empty piece before edge 1, then pieces of |H_1| - 1, |H'_1| - 3,
    # |H_2| - 1, ... edges: those after each change, up to the next one.
    changes = kept ^ kept >> 8
    pieces = changes.to_bytes(n, "big").split(b"\x01")
    psi = tuple(map(add, map(len, islice(pieces, 1, None)), cycle((1, 3))))
    # y holds 1 for each of zeta_1, eta_1, zeta_2, ... that has color t.  Of
    # a change edge and the edge before it, one is interior (top byte 0) and
    # the other is zeta_q or eta_q, so their OR reads y there.  Each change
    # edge gets byte 2 + y and every other edge 0 or 1, which is deleted.
    ends = (changes << 1 | top | top >> 8).to_bytes(n, "big")
    y = tuple(ends.translate(_Y, b"\x00\x01"))
    return ProofDecomposition(n, t, u_size, offset, y, psi)
