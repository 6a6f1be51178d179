"""Host-speed probes.

A probe is a fixed piece of pure-Python work that does not touch the
package, with its time on the machine the benchmark was written on (a 2-vCPU
Xeon VM, Python 3.11.7) in a calm spell.  Other tenants of a shared host
slow everything on it, in spells from a fraction of a second to many
minutes; a probe's time over its reference says by how much, at the moment
it runs.  They slow different kinds of work by different amounts, so each
workload is probed with the kind of work it resembles (``Workload.HOST_PROBE``):

* ``churn`` makes and drops about 2,000 ints, a list and a set, like the
  library workloads (and set-up);
* ``walk`` descends recursive generators, like the search oracle;
* ``spawn`` starts a bare interpreter, like the CLI workload.
"""

from __future__ import annotations

import subprocess
import sys
import time


def _churn() -> int:
    xs = list(range(1000, 3000))
    seen = set(xs[::3])
    hits = 0
    for x in xs:
        if x in seen or x % 7 == 0:
            hits += 1
    return hits


def _leaves(depth: int):
    if depth == 0:
        yield 1
        return
    for _ in (0, 1):
        yield from _leaves(depth - 1)


def _walk() -> int:
    return sum(_leaves(8))


def _spawn() -> int:
    return subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True).returncode


PROBES = {"churn": (_churn, 100_000), "walk": (_walk, 125_000), "spawn": (_spawn, 10_000_000)}


def probe(kind: str) -> float:
    """How many times slower than its reference the probe ran just now."""
    work, reference_ns = PROBES[kind]
    t0 = time.perf_counter_ns()
    work()
    return (time.perf_counter_ns() - t0) / reference_ns
