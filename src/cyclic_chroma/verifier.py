"""Checks deciding whether a coloring is proper, interval, or cyclically interval.

A vertex of a cycle sees exactly two edge colors.  In interval mode the two
colors must be consecutive integers; in cyclic mode they may instead be the
first and last colors, so the palette is consecutive on the color circle.
``_steps`` states that rule once; ``verify`` and the search read it there.
"""

from __future__ import annotations

from itertools import count
from operator import sub
from typing import NamedTuple

from .model import CycleColoring, _assign, _Record

__all__ = [
    "INTERVAL",
    "CYCLIC",
    "NOT_PROPER",
    "NOT_INTERVAL",
    "NOT_CYCLIC_INTERVAL",
    "Violation",
    "VerificationReport",
    "verify",
]

INTERVAL = "interval"
CYCLIC = "cyclic"
MODES = (INTERVAL, CYCLIC)

NOT_PROPER = "not-proper"
NOT_INTERVAL = "not-interval"
NOT_CYCLIC_INTERVAL = "not-cyclic-interval"

# Vertices per block in verify: the unit in which violations are searched.
_BLOCK = 256
# _new_tuple(cls, fields) builds a NamedTuple as ``cls._make(fields)`` does,
# without a Python-level call per object; building many violations or runs
# is dominated by that call otherwise.
_new_tuple = tuple.__new__


class Violation(NamedTuple):
    vertex: int
    palette: tuple[int, int]
    reason: str


class VerificationReport(_Record):
    """Structured verdict for one coloring under one mode."""

    __slots__ = (
        "proper",
        "surjective",
        "mode_satisfied",
        "violations",
        "missing_colors",
    )

    def __init__(
        self,
        proper: bool,
        surjective: bool,
        mode_satisfied: bool,
        violations: tuple[Violation, ...],
        missing_colors: frozenset[int],
    ) -> None:
        _assign(self, "proper", proper)
        _assign(self, "surjective", surjective)
        _assign(self, "mode_satisfied", mode_satisfied)
        _assign(self, "violations", violations)
        _assign(self, "missing_colors", missing_colors)

    def to_json_dict(self) -> dict:
        return {
            "proper": self.proper,
            "surjective": self.surjective,
            "valid": self.mode_satisfied,
            "violations": [
                {"vertex": v.vertex, "palette": list(v.palette), "reason": v.reason}
                for v in self.violations
            ],
            "missing_colors": sorted(self.missing_colors),
        }


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def _steps(t: int, mode: str) -> frozenset[int]:
    """Allowed differences b - a between the two colors a, b at a vertex.

    Interval mode: consecutive integers, {+1, -1}.  Cyclic mode: consecutive
    on the color circle 1..t, which adds the wrap {+(t-1), -(t-1)} once
    t >= 3.  Never contains 0, so equal colors fail the rule as well.
    """
    if mode == INTERVAL or t < 3:
        return frozenset((1, -1))
    return frozenset((1, -1, t - 1, 1 - t))


def verify(c: CycleColoring, mode: str = CYCLIC) -> VerificationReport:
    """Full verdict: properness, color coverage, and the per-vertex palette rule.

    Violations list every failing vertex in ascending order; surjectivity
    failures surface through ``missing_colors`` rather than per-vertex entries.
    The vertices are taken in blocks.  A C-level pass tests the differences
    b - a of a block against the rule, stopping at the first that breaks
    it, and only a block that fails is read again, vertex by vertex, to
    name its violations.
    """
    _check_mode(mode)
    n, t, colors = c.n, c.t, c.colors
    violations: list[Violation] = []
    proper = True
    steps = _steps(t, mode)
    reason = NOT_INTERVAL if mode == INTERVAL else NOT_CYCLIC_INTERVAL
    for lo in range(0, n, _BLOCK):
        hi = lo + _BLOCK
        # vertex i + 1 sees colors[i - 1] and colors[i]; in the last block
        # ``before`` may hold one color more, which map and zip ignore
        before = colors[lo - 1 : hi - 1] if lo else colors[-1:] + colors[: hi - 1]
        block = colors[lo:hi]
        if steps.issuperset(map(sub, block, before)):
            continue
        for v, x, y in zip(count(lo + 1), before, block):
            if x == y:
                proper = False
                violations.append(_new_tuple(Violation, (v, (x, y), NOT_PROPER)))
            elif y - x not in steps:
                violations.append(_new_tuple(Violation, (v, (x, y), reason)))
    seen = set(colors)
    missing = frozenset() if len(seen) == t else frozenset(range(1, t + 1)) - seen
    return VerificationReport(
        proper=proper,
        surjective=not missing,
        mode_satisfied=proper and not missing and not violations,
        violations=tuple(violations),
        missing_colors=missing,
    )
