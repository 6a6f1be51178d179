"""Closed-form witness counts, independent of the search in ``oracle``.

A valid coloring of C(n) with t colors is a closed walk of n steps that
visits every vertex of the color graph: the cycle C_t in cyclic mode, the
path P_t in interval mode.  Walks are counted with binomials; those that
miss a vertex stay on a shorter path and are removed by inclusion-exclusion
over the path widths w.

Both counts below read the binomials through total(m), the sum of C(n, j)
over the j in [0, n] with m | n - 2j: a walk with j down-steps ends n - 2j
from its start.  ``walk_counts`` sums each total over the row, O(n) big-int
sums per t; ``swept_walk_counts`` finds every total in one sweep.
"""

from math import comb


def _counts(n: int, total) -> dict[str, list[int]]:
    """counts[t] for t in [0, n] in both modes, from total(m), m in [3, 2n + 2]."""
    # Closed walks on P_w, summed over start vertices: the reflection
    # principle in the strip [1, w] gives (w+1) * S - 2^n, where S =
    # total(2(w+1)) sums the binomials whose excess of up-steps over n/2 is a
    # multiple of w+1.
    closed = [0] * (n + 1)  # none for odd n, nor on the empty path P_0
    if n % 2 == 0:
        closed[1:] = [(w + 1) * total(2 * (w + 1)) - 2**n for w in range(1, n + 1)]
    # closed walks on P_w that reach both ends, hence every vertex
    path = [
        closed[w] - 2 * closed[w - 1] + closed[w - 2] if w > 1 else closed[w]
        for w in range(n + 1)
    ]
    cyclic = path[:3]  # t <= 2: the color circle is the path P_t
    missed = sum(path[:3])
    for t in range(3, n + 1):
        # closed walks on C_t (steps of +-1 with n - 2j = 0 mod t, j the
        # down-steps), minus those confined to one of the t proper arcs
        cyclic.append(t * (total(t) - missed))
        missed += path[t]
    return {"cyclic": cyclic, "interval": path}


def walk_counts(n: int, mode: str) -> list[int]:
    """counts[t] = number of valid colorings of (n, t), for t in [0, n]."""
    row = [comb(n, j) for j in range(n + 1)]

    def total(m: int) -> int:
        return sum(c for j, c in enumerate(row) if (n - 2 * j) % m == 0)

    return _counts(n, total)[mode]


def divisor_lists(limit: int) -> list[list[int]]:
    """divisors[k] = the divisors of k, ascending, for every k in [1, limit]."""
    divisors = [[] for _ in range(limit + 1)]
    for m in range(1, limit + 1):
        for k in range(m, limit + 1, m):
            divisors[k].append(m)
    return divisors


def swept_walk_counts(n: int, divisors: list[list[int]]) -> dict[str, list[int]]:
    """walk_counts(n, mode) for both modes, from one sweep over the binomials.

    divisors is divisor_lists(N) for some N >= n.  The sweep over j < n/2
    adds C(n, j) to sums[m] for every divisor m of n - 2j >= 1; by the
    symmetry C(n, j) = C(n, n - j), total(m) is twice sums[m], plus C(n, n/2)
    for even n, whose n - 2j = 0 every m divides.
    """
    sums = [0] * (n + 1)
    c = 1  # C(n, j)
    for j in range((n + 1) // 2):
        for m in divisors[n - 2 * j]:
            sums[m] += c
        c = c * (n - j) // (j + 1)
    middle = 0 if n % 2 else c

    def total(m: int) -> int:
        return 2 * sums[m] + middle if m <= n else middle

    return _counts(n, total)
