"""Closed-form witness counts, independent of the search in ``oracle``.

A valid coloring of C(n) with t colors is a closed walk of n steps that
visits every vertex of the color graph: the cycle C_t in cyclic mode, the
path P_t in interval mode.  Walks are counted with binomials; those that
miss a vertex stay on a shorter path and are removed by inclusion-exclusion
over the path widths w.
"""

from math import comb


def walk_counts(n: int, mode: str) -> list[int]:
    """counts[t] = number of valid colorings of (n, t), for t in [0, n]."""
    row = [comb(n, j) for j in range(n + 1)]

    def closed_on_path(w: int) -> int:
        # Closed walks on P_w, summed over start vertices: the reflection
        # principle in the strip [1, w] gives (w+1) * S - 2^n, where S sums
        # the binomials whose excess of up-steps over n/2 is a multiple of w+1.
        if w <= 0 or n % 2:
            return 0
        return (w + 1) * sum(row[n // 2 % (w + 1) :: w + 1]) - 2**n

    def covering_path(w: int) -> int:
        # closed walks on P_w that reach both ends, hence every vertex
        return closed_on_path(w) - 2 * closed_on_path(w - 1) + closed_on_path(w - 2)

    path = [covering_path(w) for w in range(n + 1)]
    if mode == "interval":
        return path
    counts = path[:3]  # t <= 2: the color circle is the path P_t
    missed = sum(path[:3])
    for t in range(3, n + 1):
        # closed walks on C_t (steps of +-1 with n - 2j = 0 mod t, j the
        # down-steps), minus those confined to one of the t proper arcs
        closed = t * sum(row[j] for j in range(n + 1) if (n - 2 * j) % t == 0)
        counts.append(closed - t * missed)
        missed += path[t]
    return counts
