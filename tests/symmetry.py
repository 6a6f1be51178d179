"""Symmetries of C(n) for tests to apply to colorings, and the parity epsilon.

Each symmetry builds its image through the checked public
``CycleColoring(...)`` constructor.  Library callers who need one write it
the same way: a slice of the colors, the modular shift, or ``1 - k % 2``.
"""

from cyclic_chroma import CycleColoring


def epsilon(k: int) -> int:
    """1 if k is even, 0 if k is odd, so that chi'(n) = 3 - epsilon(n)."""
    return 1 - k % 2


def rotate_edges(c: CycleColoring, offset: int) -> CycleColoring:
    """c relabelled so that its new edge 1 is its old edge offset + 1."""
    return CycleColoring(c.n, c.t, c.colors[offset:] + c.colors[:offset])


def shift_colors(c: CycleColoring, delta: int) -> CycleColoring:
    """c with every color advanced by delta around the color circle 1..t."""
    colors = tuple((x - 1 + delta) % c.t + 1 for x in c.colors)
    return CycleColoring(c.n, c.t, colors)
