"""Checks deciding whether a coloring is proper, interval, or cyclically interval.

A vertex of a cycle sees exactly two edge colors.  In interval mode the two
colors must be consecutive integers; in cyclic mode they may instead be the
first and last colors, so the palette is consecutive on the color circle.
``_steps`` states that rule once; ``verify`` and the search read it there,
``verify`` in C-level passes that leave only the failing vertices to Python.

A coloring that obeys the rule at every vertex is a closed walk on the
color graph: the circle C_t, or the path P_t in interval mode or for
t <= 2.  The steps b - a it takes decide whether it uses all t colors
(de Werra & Solot, SIAM J. Discrete Math. 4, 1991), so ``verify`` checks
coverage with no set of the colors:

* no wrap step +-(t-1): the walk stays on the path 1..t and uses an
  interval of it, every color exactly when it uses 1 and t;
* wraps in one direction only: its winding number is not 0, so it goes
  round C_t and uses every color;
* wraps in both directions, or a vertex that breaks the rule: one set of
  the colors decides, and 1..t is tested against it for the missing ones.

A read that finds no violation leaves the steps it found, and the colors
it found missing, in the coloring's private ``_walk`` memo.  A later
``verify`` of the same coloring in a mode that allows every remembered
step reads no color again, not even for 1 and t, and reports the
remembered missing colors; so a tent checked in both modes, or
``decompose`` after ``verify``, reads the walk once.  Only this read fills the memo: a
coloring fresh from a builder or a record holds None and is read in full.
Two threads that verify one coloring at once store the same value.
"""

from __future__ import annotations

from itertools import compress, count, filterfalse
from operator import sub
from typing import NamedTuple

from .model import CycleColoring, _Record

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
_BLOCK = 1024


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
        set_proper, set_surjective, set_satisfied, set_violations, set_missing = (
            self._setters
        )
        set_proper(self, proper)
        set_surjective(self, surjective)
        set_satisfied(self, mode_satisfied)
        set_violations(self, violations)
        set_missing(self, missing_colors)

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


# the steps of the path P_t: interval mode, and cyclic mode for t <= 2
_UNIT_STEPS = frozenset((1, -1))


def _steps(t: int, mode: str) -> frozenset[int]:
    """Allowed differences b - a between the two colors a, b at a vertex.

    Interval mode: consecutive integers, {+1, -1}.  Cyclic mode: consecutive
    on the color circle 1..t, which adds the wrap {+(t-1), -(t-1)} once
    t >= 3.  Never contains 0, so equal colors fail the rule as well.
    """
    if mode == INTERVAL or t < 3:
        return _UNIT_STEPS
    return frozenset((1, -1, t - 1, 1 - t))


def verify(c: CycleColoring, mode: str = CYCLIC) -> VerificationReport:
    """Full verdict: properness, color coverage, and the per-vertex palette rule.

    Violations list every failing vertex in ascending order; surjectivity
    failures surface through ``missing_colors`` rather than per-vertex entries.
    The vertices are taken in blocks of _BLOCK.  One C-level pass per block
    builds the set of its differences b - a; the sets of the blocks that
    keep the rule, unioned, are the steps that decide coverage as the
    module docstring says.  In a block whose set leaves the rule, a second
    C-level pass picks the vertices whose step lies outside it; each is
    ``not-proper`` when its two colors are equal and the mode's reason
    otherwise.
    Missing colors are those of 1..t that one set of the colors lacks.
    A read with no violation fills the ``c._walk`` memo of the module doc.
    """
    _check_mode(mode)
    n, t, colors = c.n, c.t, c.colors
    violations: list[Violation] = []
    proper = True
    steps = _steps(t, mode)
    walk = c._walk
    if walk is not None and walk[0] <= steps:
        # an earlier read found these steps and no violation, and this mode
        # allows them all: every vertex keeps the rule, so none is read,
        # and the colors it found missing are missing in this mode too
        missing = walk[1]
        return VerificationReport(True, not missing, not missing, (), missing)
    taken = set()
    reason = NOT_INTERVAL if mode == INTERVAL else NOT_CYCLIC_INTERVAL
    for lo in range(0, n, _BLOCK):
        hi = lo + _BLOCK
        # vertex i + 1 sees colors[i - 1] and colors[i]; in the last block
        # ``before`` may hold one color more, which map ignores
        before = colors[lo - 1 : hi - 1] if lo else colors[-1:] + colors[: hi - 1]
        block = colors[lo:hi]
        diffs = set(map(sub, block, before))
        if diffs <= steps:
            taken |= diffs
            continue
        # a violation lies in this block, so the walk's steps decide nothing
        bad = diffs - steps
        proper = proper and 0 not in bad
        for i in compress(count(lo), map(bad.__contains__, map(sub, block, before))):
            x, y = colors[i - 1], colors[i]
            why = NOT_PROPER if x == y else reason
            violations.append(Violation(i + 1, (x, y), why))
    # the wrap steps t - 1 and 1 - t taken, none in interval mode or for
    # t <= 2: one direction winds round C_t, none stays on the path 1..t
    wraps = taken - _UNIT_STEPS
    walk_covers = not violations and (
        len(wraps) == 1 if wraps else 1 in colors and t in colors
    )
    if walk_covers:
        missing = frozenset()
    else:
        seen = set(colors)
        missing = (
            frozenset()
            if len(seen) == t
            else frozenset(filterfalse(seen.__contains__, range(1, t + 1)))
        )
    if not violations:
        set_walk = c._setters[3]
        set_walk(c, (frozenset(taken), missing))
    return VerificationReport(
        proper=proper,
        surjective=not missing,
        mode_satisfied=not missing and not violations,
        violations=tuple(violations),
        missing_colors=missing,
    )
