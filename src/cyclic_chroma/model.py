"""Domain types and index conventions for edge colorings of simple cycles.

A cycle with n edges uses 1-based circular indexing: edge i joins vertices
i and i+1 (vertex n+1 wraps to vertex 1), so vertex i is incident to edges
i-1 and i (edge 0 wraps to edge n).  Colors are integers in [1, t].
All values are immutable and every operation is pure; a coloring's one
private memo, ``_walk``, is no field and changes no result.

The public ``CycleColoring(n, t, colors)`` constructor is the one strict
boundary: n, t and every color must be ints (int subclasses such as an
``IntEnum`` member pass, ``bool`` is refused), n >= 3, 1 <= t <= n since
a coloring uses all t colors on n edges (``_check_t``), there are n colors
and each lies in [1, t].  ``_check_n`` states the whole rule for n, int
and size, so every entry that takes a cycle size checks it with one call.
``CycleColoring._trusted(n, t, colors)`` skips every check and is for
builders whose output is right by construction: its caller guarantees
n >= 3, 1 <= t <= n, a tuple of length n and every color an int in [1, t].
Both build paths leave the private ``_walk`` memo empty (None): it is no
field, and only ``verifier.verify``'s own read of the colors fills it, so
no builder can vouch for its output's walk.

The package's record classes derive from ``_Record``: a frozen base with
slotted fields, written out so that importing the package loads no class
generator.
"""

from __future__ import annotations

import operator
from math import log10

__all__ = [
    "CycleColoring",
    "epsilon",
    "rotate_edges",
    "shift_colors",
]


_RECORD_FIELDS = {"n", "t", "colors"}

# a record's __init__ sets its fields with this, past the frozen __setattr__
_assign = object.__setattr__


def _require_int(value: object, label: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{label} must be an integer, got {value!r}")


def _require_ints(values: tuple, label: str) -> None:
    # one C-level pass over the types; the loop that names the first bad
    # value runs only when some value is not a plain int
    if not {int}.issuperset(map(type, values)):
        for x in values:
            _require_int(x, label)


def _show_int(x: object) -> str:
    """x for a message: str(x), or, for an int str() refuses, its digit count.

    From Python 3.10.7 on, str() refuses an int longer than
    sys.get_int_max_str_digits() digits; such an int is shown as, say,
    "<a 5001-digit integer>", so a refusal still reports its own message.
    """
    try:
        return str(x)
    except ValueError:
        pass
    m = abs(x)
    d = int(log10(m))  # floor(log10 m), or one off where the float rounds
    if 10**d > m:
        d -= 1
    elif 10 ** (d + 1) <= m:
        d += 1
    sign = "negative " if x < 0 else ""
    return f"<a {sign}{d + 1}-digit integer>"


def _check_n(n: int) -> None:
    # the whole rule for n; the closed forms call this on their hot path,
    # where a plain int costs one type test and one comparison
    if type(n) is not int:
        _require_int(n, "'n'")
    if n < 3:
        raise ValueError(f"cycle size must be >= 3, got {_show_int(n)}")


def _check_t(n: int, t: int) -> None:
    if not 1 <= t <= n:
        raise ValueError(
            f"color count must lie in [1, {_show_int(n)}], got t={_show_int(t)}"
        )


class _Record:
    """Base of the frozen record classes; the fields are the ``__slots__``.

    A subclass lists its fields in order in ``__slots__``, or in ``_names`` when
    one is no slot, and sets each in its own ``__init__`` with ``_assign``.
    Setting or deleting a field raises AttributeError.  ``==`` holds between
    two records of the same class whose fields are equal, ``hash`` is that of
    the tuple of fields, and ``repr`` names every field.  Pickling and copying
    rebuild a record through its ``__init__``, from its fields in order.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._names = getattr(cls, "_names", cls.__slots__)
        # one C-level call that reads every field into a tuple
        cls._fields = operator.attrgetter(*cls._names)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._fields(self)


class CycleColoring(_Record):
    """Colors 1..t assigned to the n edges of a simple cycle.

    ``colors[i]`` is the color of edge i+1.  ``_walk`` is no field: it is
    None, or, once ``verify`` has read the colors and found no violation,
    the pair of the frozenset of steps b - a they take and the frozenset
    of colors they miss, so a later ``verify`` whose mode allows those
    steps skips the read.  ``==``, ``hash``, ``repr``, pickling and
    copying see the three fields only.
    """

    __slots__ = ("n", "t", "colors", "_walk")
    _names = ("n", "t", "colors")

    def __init__(self, n: int, t: int, colors: tuple[int, ...]) -> None:
        _require_int(n, "'n'")
        _require_int(t, "'t'")
        colors = tuple(colors)
        _require_ints(colors, "'colors' entry")
        _check_n(n)
        _check_t(n, t)
        if len(colors) != n:
            raise ValueError(f"expected {_show_int(n)} edge colors, got {len(colors)}")
        if min(colors) < 1 or max(colors) > t:
            raise ValueError(f"edge colors must lie in [1, {t}]")
        _assign(self, "n", n)
        _assign(self, "t", t)
        _assign(self, "colors", colors)
        _assign(self, "_walk", None)

    @classmethod
    def _trusted(cls, n: int, t: int, colors: tuple[int, ...]) -> CycleColoring:
        """Build with no check; the caller guarantees what the module doc names."""
        c = object.__new__(cls)
        _assign(c, "n", n)
        _assign(c, "t", t)
        _assign(c, "colors", colors)
        _assign(c, "_walk", None)
        return c

    def to_record(self) -> dict:
        """Canonical interchange record, ready for JSON encoding."""
        return {"n": self.n, "t": self.t, "colors": list(self.colors)}

    @classmethod
    def from_record(cls, data: object) -> CycleColoring:
        """Parse the canonical record; unknown or missing fields are rejected."""
        if not isinstance(data, dict):
            raise ValueError("coloring record must be a JSON object")
        unknown = set(data) - _RECORD_FIELDS
        if unknown:
            raise ValueError(f"unknown fields in coloring record: {sorted(unknown)}")
        missing = _RECORD_FIELDS - set(data)
        if missing:
            raise ValueError(f"coloring record missing fields: {sorted(missing)}")
        n, t, colors = data["n"], data["t"], data["colors"]
        if not isinstance(colors, (list, tuple)):
            # a bad n or t is reported first, as the constructor does
            _require_int(n, "'n'")
            _require_int(t, "'t'")
            raise ValueError("'colors' must be an array of integers")
        return cls(n, t, colors)


def epsilon(k: int) -> int:
    """1 if k is even, 0 if k is odd (defined for integers k >= 1)."""
    if type(k) is not int:
        _require_int(k, "'k'")
    if k < 1:
        raise ValueError(f"epsilon is defined for k >= 1, got {_show_int(k)}")
    return 1 + k // 2 - (k + 1) // 2


def rotate_edges(c: CycleColoring, offset: int) -> CycleColoring:
    """Relabel edges so that the new edge 1 is the old edge offset+1, an int."""
    _require_int(offset, "'offset'")
    if not 0 <= offset < c.n:
        raise ValueError(
            f"rotation offset must lie in [0, {c.n - 1}], got {_show_int(offset)}"
        )
    if offset == 0:
        return c
    return CycleColoring._trusted(c.n, c.t, c.colors[offset:] + c.colors[:offset])


def shift_colors(c: CycleColoring, delta: int) -> CycleColoring:
    """Advance every color by delta around the color circle 1..t.

    delta must be an int, as rotate_edges' offset must (ValueError
    otherwise, bool included), so every color stays one.
    """
    _require_int(delta, "'delta'")
    d = delta % c.t
    if d == 0:
        return c
    colors = tuple((x - 1 + d) % c.t + 1 for x in c.colors)
    return CycleColoring._trusted(c.n, c.t, colors)
