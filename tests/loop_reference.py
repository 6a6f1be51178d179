"""Loop references for ``verify``, ``decompose`` and the search walk.

The library checks a coloring and splits it into boundary runs with passes
that run in C (``map``, ``set``, ``bytes``, ``compress``).  These are the
plain loops they replaced, one edge or one run per Python step; the tests
require the library to return exactly what they return.  ``verify`` and
``decompose`` return plain mappings of a record's values (its stored
fields and its derived properties, five and twelve of them), so that they
share no code with the records.
``walks`` is the recursive generator the search's one-loop walk replaced,
one nested generator per edge; the walk must yield exactly its tuples, in
its order.
"""

from cyclic_chroma import (
    CYCLIC,
    INTERVAL,
    NOT_CYCLIC_INTERVAL,
    NOT_INTERVAL,
    NOT_PROPER,
    ComponentSpan,
    CycleColoring,
    VerificationReport,
    Violation,
)


def sgn_nat(k: int) -> int:
    """0 when k is 0, otherwise 1."""
    return 0 if k == 0 else 1


def u_set(c: CycleColoring) -> set[int]:
    """1-based indices of edges colored strictly between 1 and t."""
    return {i + 1 for i, x in enumerate(c.colors) if 1 < x < c.t}


def adjacent(a: int, b: int, t: int, mode: str) -> bool:
    """Two distinct colors of [1, t] may meet at a vertex under ``mode``.

    Written out from the definition rather than taken from the library's
    step set, so that the two cannot share a mistake.
    """
    return abs(a - b) == 1 or (mode == CYCLIC and {a, b} == {1, t})


def verify(c: CycleColoring, mode: str = CYCLIC) -> dict:
    """The report's five values by name: its two fields and three verdicts.

    Each verdict is read off the colors, not off the other values, so a
    library report that derives them must match every one.
    """
    n, t, colors = c.n, c.t, c.colors
    violations = []
    proper = True
    reason = NOT_INTERVAL if mode == INTERVAL else NOT_CYCLIC_INTERVAL
    prev = colors[-1]
    for i in range(n):
        cur = colors[i]
        if cur == prev:
            proper = False
            violations.append(Violation(i + 1, (prev, cur), NOT_PROPER))
        elif not adjacent(prev, cur, t, mode):
            violations.append(Violation(i + 1, (prev, cur), reason))
        prev = cur
    missing = frozenset(range(1, t + 1)) - frozenset(colors)
    return {
        "proper": proper,
        "surjective": not missing,
        "mode_satisfied": proper and not missing and not violations,
        "violations": tuple(violations),
        "missing_colors": missing,
    }


REPORT_VALUES = ("proper", "surjective", "mode_satisfied", "violations", "missing_colors")


def report_values(report: VerificationReport) -> dict:
    """A library report's five values, by the names ``verify`` returns."""
    return {name: getattr(report, name) for name in REPORT_VALUES}


def report_json(r: dict) -> dict:
    """The JSON object of ``check --json`` for the mapping ``verify`` returns."""
    return {
        "proper": r["proper"],
        "surjective": r["surjective"],
        "valid": r["mode_satisfied"],
        "violations": [
            {"vertex": v.vertex, "palette": list(v.palette), "reason": v.reason}
            for v in r["violations"]
        ],
        "missing_colors": sorted(r["missing_colors"]),
    }


def decompose(c: CycleColoring) -> dict:
    """Every field and derived property of the decomposition, by name.

    One Python step per edge and per run, as ``decompose`` was first written;
    the library stores only psi and y and derives the rest, and must match
    every value here.
    """
    if not verify(c, CYCLIC)["mode_satisfied"]:
        raise ValueError("decompose requires a valid cyclic-mode coloring")
    n, t = c.n, c.t
    interior = u_set(c)
    kept = [x == 1 or x == t for x in c.colors]
    starts = [i for i in range(n) if kept[i] and not kept[i - 1]]
    if len(starts) <= 1:
        return {
            "n": n,
            "t": t,
            "m": 1,
            "connected": True,
            "u_size": len(interior),
            "rotation": 0,
            "components": (),
            "y": (),
            "psi": (),
            "horizontal": (),
            "m1": frozenset(),
            "m2": frozenset(),
        }
    offset = starts[0]
    colors = c.colors[offset:] + c.colors[:offset]
    kept = [x == 1 or x == t for x in colors]
    runs = []
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
    components = []
    y = []
    psi = []
    m1 = set()
    m2 = set()
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
    return {
        "n": n,
        "t": t,
        "m": m,
        "connected": False,
        "u_size": len(interior),
        "rotation": offset,
        "components": tuple(components),
        "y": tuple(y),
        "psi": tuple(psi),
        "horizontal": horizontal,
        "m1": frozenset(m1),
        "m2": frozenset(m2),
    }


def decomposition_json(d: dict) -> dict:
    """The JSON object of ``decompose --json`` for the mapping ``decompose`` returns."""
    return {
        "case": "A" if d["connected"] else "B",
        **{k: d[k] for k in ("n", "t", "m", "connected", "u_size", "rotation")},
        "components": [s._asdict() for s in d["components"]],
        "y": list(d["y"]),
        "psi": list(d["psi"]),
        "horizontal": list(d["horizontal"]),
        "m1": sorted(d["m1"]),
        "m2": sorted(d["m2"]),
        "psi_sum": sum(d["psi"]),
        "psi_identity_ok": d["connected"] or sum(d["psi"]) == d["n"] + 2 * d["m"],
    }


def walks(n, t, mode=CYCLIC, fix_first_color=False):
    """Valid color sequences of (n, t) in lexicographic order, recursively."""
    colors = range(1, t + 1)
    succ = [[]] + [
        [b for b in colors if b != a and adjacent(a, b, t, mode)] for a in colors
    ]
    seq = [0] * n
    seen = [0] * (t + 1)
    for first in (1,) if fix_first_color else range(1, t + 1):
        seq[0] = first
        seen[first] = 1
        yield from _extend(succ, seq, seen, 1, t - 1)
        seen[first] = 0


def _extend(succ, seq, seen, k, missing):
    """Fill seq[k:] after seq[:k]; ``missing`` colors are still unused."""
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
