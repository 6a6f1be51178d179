"""Exhaustive ground truth by depth-first search, plus a structure report.

The search walks the color circle: after fixing the first edge, each further
edge may only take a color adjacent to its predecessor (consecutive, or the
1/t wrap in cyclic mode), and the last edge must close back on the first.
Branches die as soon as the unused-color count exceeds the edges left, so
the tree has at most t * 2^(n-1) nodes and the default bound n <= 14 stays
well under a second per query.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Iterator

from .characterization import PROVENANCE_SEARCH, ThetaSet, _check_n
from .model import CycleColoring, rotate_edges, sgn_nat
from .verifier import CYCLIC, _check_mode, _steps, u_set, verify

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
    """Current search bound: CYCLIC_CHROMA_MAX_N when set, else 14."""
    raw = os.environ.get(MAX_N_ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_N
    if not _PLAIN_INT.fullmatch(raw):
        raise ValueError(
            f"{MAX_N_ENV_VAR} must be an unsigned integer without "
            f"leading zeros, got {raw!r}"
        )
    return int(raw)


@dataclass(frozen=True)
class SearchConfig:
    """Enumeration options: mode, witness cap, and first-edge pinning."""

    mode: str = CYCLIC
    limit: int | None = None
    fix_first_color: bool = False

    def __post_init__(self) -> None:
        _check_mode(self.mode)
        if self.limit is not None and self.limit < 1:
            raise ValueError(f"limit must be >= 1 when given, got {self.limit}")
        if self.fix_first_color and self.mode != CYCLIC:
            raise ValueError("fix_first_color is only sound in cyclic mode")


def _successor_table(t: int, mode: str) -> list[list[int]]:
    """succ[a] lists the colors allowed next to a, ascending; index 0 unused."""
    steps = _steps(t, mode)
    colors = range(1, t + 1)
    return [[]] + [[b for b in colors if b != a and b - a in steps] for a in colors]


def _check_search_args(n: int, t: int) -> None:
    _check_n(n)
    bound = search_bound()
    if n > bound:
        raise SearchBoundExceeded(
            f"n={n} exceeds the search bound {bound} "
            f"(set {MAX_N_ENV_VAR} to raise it)"
        )
    if not 1 <= t <= n:
        raise ValueError(f"color count must lie in [1, {n}], got t={t}")


def _walks(n: int, t: int, cfg: SearchConfig) -> Iterator[tuple[int, ...]]:
    """Yield valid color sequences in lexicographic order."""
    succ = _successor_table(t, cfg.mode)
    seq = [0] * n
    seen = [0] * (t + 1)
    for first in (1,) if cfg.fix_first_color else range(1, t + 1):
        seq[0] = first
        seen[first] = 1
        yield from _extend(succ, seq, seen, 1, t - 1)
        seen[first] = 0


def _extend(
    succ: list[list[int]], seq: list[int], seen: list[int], k: int, missing: int
) -> Iterator[tuple[int, ...]]:
    """Fill seq[k:] after seq[:k]; ``missing`` colors are still unused.

    A plain recursive generator, so an abandoned walk holds no reference
    cycle and is freed as soon as its last reference goes.
    """
    n = len(seq)
    if k == n:
        if missing == 0 and seq[0] in succ[seq[-1]]:
            yield tuple(seq)
        return
    if missing > n - k:
        return
    for c in succ[seq[k - 1]]:
        seq[k] = c
        seen[c] += 1
        yield from _extend(succ, seq, seen, k + 1, missing - (seen[c] == 1))
        seen[c] -= 1


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
        out.append(CycleColoring(n, t, colors))
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


@dataclass(frozen=True)
class ComponentSpan:
    """One maximal run of boundary-colored edges, with its following gap.

    ``h_prime_size`` counts the gap edges plus the single boundary edge kept
    on each side of the gap.
    """

    index: int
    zeta: int
    eta: int
    h_size: int
    h_prime_size: int


@dataclass(frozen=True)
class ProofDecomposition:
    """Structure of a valid coloring after removing interior-colored edges.

    Edges colored 1 or t ("boundary" edges) either form one connected block
    around the cycle (``connected``) or fall into m >= 2 runs.  In the latter
    case the report records, per run, its span and following gap; ``y`` holds
    the 0/1 profile of run-end colors (0 for color 1, 1 for color t); ``psi``
    alternates run and gap sizes around an auxiliary 2m-cycle and always sums
    to n + 2m; ``horizontal`` marks the auxiliary edges joining equal profile
    values; ``m1``/``m2`` list the runs whose gap region sees color 1 / t.
    """

    n: int
    t: int
    m: int
    connected: bool
    u_size: int
    rotation: int
    components: tuple[ComponentSpan, ...]
    y: tuple[int, ...]
    psi: tuple[int, ...]
    horizontal: tuple[bool, ...]
    m1: frozenset[int]
    m2: frozenset[int]

    def __post_init__(self) -> None:
        if not self.connected:
            if len(self.psi) != 2 * self.m:
                raise ValueError(f"psi must have 2m = {2 * self.m} entries")
            if sum(self.psi) != self.n + 2 * self.m:
                raise ValueError(f"psi must sum to n + 2m = {self.n + 2 * self.m}")
            if sum(1 for h in self.horizontal if not h) % 2:
                raise ValueError("non-horizontal edges must be even in number")

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
                {
                    "index": s.index,
                    "zeta": s.zeta,
                    "eta": s.eta,
                    "h_size": s.h_size,
                    "h_prime_size": s.h_prime_size,
                }
                for s in self.components
            ],
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

    The coloring is rotated internally so that edge 1 starts the first run
    and edge n carries an interior color; ``rotation`` records the offset
    used.  Raises ValueError when the coloring is not cyclic-mode valid.
    """
    if not verify(c, CYCLIC).mode_satisfied:
        raise ValueError("decompose requires a valid cyclic-mode coloring")
    n, t = c.n, c.t
    interior = u_set(c)
    kept = [x == 1 or x == t for x in c.colors]
    starts = [i for i in range(n) if kept[i] and not kept[i - 1]]
    if len(starts) <= 1:
        # one run (or the whole cycle when no interior color exists)
        return ProofDecomposition(
            n=n,
            t=t,
            m=1,
            connected=True,
            u_size=len(interior),
            rotation=0,
            components=(),
            y=(),
            psi=(),
            horizontal=(),
            m1=frozenset(),
            m2=frozenset(),
        )
    offset = starts[0]
    colors = rotate_edges(c, offset).colors
    kept = [x == 1 or x == t for x in colors]
    runs: list[tuple[int, int]] = []
    i = 0
    while i < n:
        if kept[i]:
            j = i
            while j + 1 < n and kept[j + 1]:
                j += 1
            runs.append((i + 1, j + 1))
            i = j + 2
        else:
            i += 1
    m = len(runs)
    components: list[ComponentSpan] = []
    y: list[int] = []
    psi: list[int] = []
    m1: set[int] = set()
    m2: set[int] = set()
    for q, (zeta, eta) in enumerate(runs, start=1):
        next_zeta = runs[q][0] if q < m else None
        h_size = eta - zeta + 1
        h_prime = (next_zeta - eta + 1) if next_zeta is not None else (n - eta + 2)
        components.append(ComponentSpan(q, zeta, eta, h_size, h_prime))
        y.append(sgn_nat(colors[zeta - 1] - 1))
        y.append(sgn_nat(colors[eta - 1] - 1))
        psi.append(h_size)
        psi.append(h_prime)
        if next_zeta is not None:
            gap_colors = colors[eta - 1 : next_zeta]
        else:
            gap_colors = colors[eta - 1 :] + colors[:1]
        if 1 in gap_colors:
            m1.add(q)
        if t in gap_colors:
            m2.add(q)
    two_m = 2 * m
    horizontal = tuple(y[j] == y[(j + 1) % two_m] for j in range(two_m))
    return ProofDecomposition(
        n=n,
        t=t,
        m=m,
        connected=False,
        u_size=len(interior),
        rotation=offset,
        components=tuple(components),
        y=tuple(y),
        psi=tuple(psi),
        horizontal=horizontal,
        m1=frozenset(m1),
        m2=frozenset(m2),
    )
