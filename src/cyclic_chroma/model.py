"""Domain types and index conventions for edge colorings of simple cycles.

A cycle with n edges uses 1-based circular indexing: edge i joins vertices
i and i+1 (vertex n+1 wraps to vertex 1), so vertex i is incident to edges
i-1 and i (edge 0 wraps to edge n).  Colors are integers in [1, t].
All values are immutable and every operation is pure.  The package's two
private memos, a coloring's ``_walk`` and a ``ThetaSet``'s ``_members``,
which a set not built by hand fills on its first read, change no result;
each holds one value, so two threads that fill one at once store equal ones.

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
generator.  Its ``__setattr__`` refuses every write, so a record sets its
fields, and a coloring its memo, through the slots' own setters, which
``_Record`` binds once per class as ``_setters``.
"""

from __future__ import annotations

import operator
from math import log10

__all__ = ["CycleColoring"]


_RECORD_FIELDS = {"n", "t", "colors"}


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

    str() refuses an int longer than sys.get_int_max_str_digits() digits;
    such an int is shown as, say, "<a 5001-digit integer>", so a refusal
    still reports its own message.
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
    one is no slot.  ``_setters`` holds each slot's own ``__set__``, in
    ``__slots__`` order, and is how the subclass's ``__init__`` sets them.
    Setting or deleting any attribute raises AttributeError, which says
    "field" only for a name in ``_names``.  By default ``==`` holds between
    two records of the same class whose fields are equal, ``hash`` is that
    of the tuple of fields, ``repr`` names every field, and a pickle or copy
    is rebuilt through ``__init__`` from the fields in order.  A subclass may
    replace any of these four, as ThetaSet replaces all of them to act as a
    set; the frozen slots and ``_setters`` are what every record shares.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._names = getattr(cls, "_names", cls.__slots__)
        # one C-level call that reads every field into a tuple
        cls._fields = operator.attrgetter(*cls._names)
        # getattr, not cls.__dict__: a subclass of a record has no slots of
        # its own and sets its parent's
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        what = "field" if name in self._names else "attribute"
        raise AttributeError(f"cannot assign to {what} {name!r}")

    def __delattr__(self, name: str) -> None:
        what = "field" if name in self._names else "attribute"
        raise AttributeError(f"cannot delete {what} {name!r}")

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
        set_n, set_t, set_colors, set_walk = self._setters
        set_n(self, n)
        set_t(self, t)
        set_colors(self, colors)
        set_walk(self, None)

    @classmethod
    def _trusted(cls, n: int, t: int, colors: tuple[int, ...]) -> CycleColoring:
        """Build with no check; the caller guarantees what the module doc names."""
        c = object.__new__(cls)
        set_n, set_t, set_colors, set_walk = cls._setters
        set_n(c, n)
        set_t(c, t)
        set_colors(c, colors)
        set_walk(c, None)
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
