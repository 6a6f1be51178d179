"""Exhaustive ground truth by depth-first search, plus a structure report.

The search walks the color circle: after fixing the first edge, each further
edge may only take a color adjacent to its predecessor (consecutive, or the
1/t wrap in cyclic mode), and the last edge must close back on the first.
Branches die as soon as the unused-color count exceeds the edges left, so
the tree has at most t * 2^(n-1) nodes and the default bound n <= 14 stays
well under a second per query.  The walk is one loop over an explicit stack
holding O(n) state, so a raised bound is capped at MATERIALIZE_CAP.
"""

from __future__ import annotations

import os
import re
from itertools import compress, count, repeat
from operator import add, eq, ne, sub
from typing import Iterator, NamedTuple

from .characterization import MATERIALIZE_CAP, PROVENANCE_SEARCH, ThetaSet
from .model import (
    CycleColoring,
    _assign,
    _check_n,
    _check_t,
    _Record,
    _require_int,
    _show_int,
)
from .verifier import CYCLIC, _check_mode, _new_tuple, _steps, verify

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

_PLAIN_INT = re.compile(r"^(0|[1-9][0-9]*)$")


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
    """Enumeration options: mode, witness cap, and first-edge pinning."""

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
        if fix_first_color and mode != CYCLIC:
            raise ValueError("fix_first_color is only sound in cyclic mode")
        _assign(self, "mode", mode)
        _assign(self, "limit", limit)
        _assign(self, "fix_first_color", fix_first_color)


def _successor_table(t: int, mode: str) -> list[list[int]]:
    """succ[a] lists the colors allowed next to a, ascending; index 0 unused."""
    steps = _steps(t, mode)
    colors = range(1, t + 1)
    return [[]] + [[b for b in colors if b != a and b - a in steps] for a in colors]


def _check_search_args(n: int, t: int) -> None:
    # the public constructor's type rule, before the walk indexes by n and t
    _require_int(n, "'n'")
    _require_int(t, "'t'")
    _check_n(n)
    bound = search_bound()
    if n > bound:
        raise SearchBoundExceeded(
            f"n={_show_int(n)} exceeds the search bound {bound} "
            f"(set {MAX_N_ENV_VAR} to raise it)"
        )
    _check_t(n, t)


def _walks(n: int, t: int, cfg: SearchConfig) -> Iterator[tuple[int, ...]]:
    """Yield valid color sequences in lexicographic order.

    One loop, no frame per edge: stack[k] iterates the colors left to try on
    edge k + 1, and ``missing`` counts the colors seq does not use yet.
    """
    succ = _successor_table(t, cfg.mode)
    seq = [0] * n
    seen = [0] * (t + 1)
    missing = t
    stack = [iter((1,) if cfg.fix_first_color else range(1, t + 1))]
    while stack:
        k = len(stack) - 1
        old = seq[k]
        if old:
            seen[old] -= 1
            missing += seen[old] == 0
        c = seq[k] = next(stack[k], 0)
        if not c:
            stack.pop()
            continue
        seen[c] += 1
        missing -= seen[c] == 1
        if k + 1 == n:
            if missing == 0 and seq[0] in succ[c]:
                yield tuple(seq)
        elif missing < n - k:
            stack.append(iter(succ[c]))


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
    _check_search_args(n, t)
    out: list[CycleColoring] = []
    for colors in _walks(n, t, cfg):
        out.append(CycleColoring._trusted(n, t, colors))
        if cfg.limit is not None and len(out) >= cfg.limit:
            break
    return out


def count_colorings(n: int, t: int, mode: str = CYCLIC) -> int:
    """Total number of valid colorings; never applies symmetry fixing."""
    cfg = SearchConfig(mode=mode)
    _check_search_args(n, t)
    return sum(1 for _ in _walks(n, t, cfg))


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
    on each side of the gap.
    """

    index: int
    zeta: int
    eta: int
    h_size: int
    h_prime_size: int


class ProofDecomposition(_Record):
    """Structure of a valid coloring after removing interior-colored edges.

    Edges colored 1 or t ("boundary" edges) either form one connected block
    around the cycle (``connected``) or fall into m >= 2 runs.  In the latter
    case the report records, per run, its span and following gap; ``y`` holds
    the 0/1 profile of run-end colors (0 for color 1, 1 for color t); ``psi``
    alternates run and gap sizes around an auxiliary 2m-cycle and always sums
    to n + 2m; ``horizontal`` marks the auxiliary edges joining equal profile
    values; ``m1``/``m2`` list the runs whose gap region sees color 1 / t.
    """

    __slots__ = (
        "n",
        "t",
        "m",
        "connected",
        "u_size",
        "rotation",
        "components",
        "y",
        "psi",
        "horizontal",
        "m1",
        "m2",
    )

    def __init__(
        self,
        n: int,
        t: int,
        m: int,
        connected: bool,
        u_size: int,
        rotation: int,
        components: tuple[ComponentSpan, ...],
        y: tuple[int, ...],
        psi: tuple[int, ...],
        horizontal: tuple[bool, ...],
        m1: frozenset[int],
        m2: frozenset[int],
    ) -> None:
        if not connected:
            if len(psi) != 2 * m:
                raise ValueError(f"psi must have 2m = {_show_int(2 * m)} entries")
            if sum(psi) != n + 2 * m:
                raise ValueError(f"psi must sum to n + 2m = {_show_int(n + 2 * m)}")
            if horizontal.count(False) % 2:
                raise ValueError("non-horizontal edges must be even in number")
        _assign(self, "n", n)
        _assign(self, "t", t)
        _assign(self, "m", m)
        _assign(self, "connected", connected)
        _assign(self, "u_size", u_size)
        _assign(self, "rotation", rotation)
        _assign(self, "components", components)
        _assign(self, "y", y)
        _assign(self, "psi", psi)
        _assign(self, "horizontal", horizontal)
        _assign(self, "m1", m1)
        _assign(self, "m2", m2)

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
            "components": [s._asdict() for s in self.components],
            "y": list(self.y),
            "psi": list(self.psi),
            "horizontal": list(self.horizontal),
            "m1": sorted(self.m1),
            "m2": sorted(self.m2),
            "psi_sum": self.psi_sum,
            "psi_identity_ok": self.connected
            or self.psi_sum == self.n + 2 * self.m,
        }


def decompose(c: CycleColoring) -> ProofDecomposition:
    """Split a valid cyclic-mode coloring into boundary runs and gaps.

    Edges are numbered as if the coloring were rotated so that edge 1
    starts the first run and edge n carries an interior color; ``rotation``
    records the offset.  Raises ValueError when the coloring is not
    cyclic-mode valid.  The per-edge work is done in C-level passes over a
    byte string that marks the boundary edges; Python objects are made per
    run, not per edge.
    """
    if not verify(c, CYCLIC).mode_satisfied:
        raise ValueError("decompose requires a valid cyclic-mode coloring")
    return _decompose_verified(c)


def _decompose_verified(c: CycleColoring) -> ProofDecomposition:
    """decompose(c) for a coloring the caller has verified in cyclic mode."""
    n, t, colors = c.n, c.t, c.colors
    kept = bytes(map({1, t}.__contains__, colors))
    u_size = n - kept.count(1)
    # runs start where a kept edge follows an interior one, around the cycle
    m = kept.count(b"\x00\x01") + (kept[0] > kept[-1])
    if m <= 1:
        # one run (or the whole cycle when no interior color exists)
        return ProofDecomposition(
            n=n,
            t=t,
            m=1,
            connected=True,
            u_size=u_size,
            rotation=0,
            components=(),
            y=(),
            psi=(),
            horizontal=(),
            m1=frozenset(),
            m2=frozenset(),
        )
    offset = 0 if kept[0] > kept[-1] else kept.find(b"\x00\x01") + 1
    kept = kept[offset:] + kept[:offset]
    # In the rotated order edge 1 is kept and edge n is not, so the edges
    # where keeping changes alternate: zeta_1, eta_1 + 1, zeta_2, eta_2 + 1, ...
    bounds = list(compress(count(1), map(ne, kept, b"\x00" + kept[:-1])))
    # psi alternates |H_q| = eta_q - zeta_q + 1 and
    # |H'_q| = zeta_{q+1} - eta_q + 1, with zeta_{m+1} = n + 1.
    psi = list(map(sub, bounds[1:] + [n + 1], bounds))
    psi[1::2] = map(add, psi[1::2], repeat(2))
    bounds[1::2] = map(sub, bounds[1::2], repeat(1))
    # bounds now lists zeta_1, eta_1, zeta_2, ...; y is 0 where the color is
    # 1 and 1 where it is t.  Rotated edge k is colors[k - 1 + offset - n],
    # a valid index either way.
    at = map(colors.__getitem__, map(add, bounds, repeat(offset - n - 1)))
    y = list(map({1: 0, t: 1}.__getitem__, at))
    # The gap after run q holds interior colors only, so it sees 1 or t
    # exactly when eta_q or zeta_{q+1} has it; tops counts how many of those
    # two edges have color t.
    tops = list(map(add, y[1::2], y[2::2] + y[:1]))
    index = list(range(1, m + 1))
    # A list, unlike a tuple grown from an iterator, is not tracked anew by
    # the garbage collector at each resize while it grows.
    spans = list(
        map(
            _new_tuple,
            repeat(ComponentSpan),
            zip(index, bounds[0::2], bounds[1::2], psi[0::2], psi[1::2]),
        )
    )
    return ProofDecomposition(
        n=n,
        t=t,
        m=m,
        connected=False,
        u_size=u_size,
        rotation=offset,
        components=tuple(spans),
        y=tuple(y),
        psi=tuple(psi),
        horizontal=tuple(map(eq, y, y[1:] + y[:1])),
        m1=frozenset(compress(index, map((2).__gt__, tops))),
        m2=frozenset(compress(index, tops)),
    )
