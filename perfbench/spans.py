"""Spans around the benchmark's calls into each layer, and what they add up to.

Every public call the benchmark makes into the package, or every CLI process
it starts, goes through ``tracer.call(name, fn, *args)``.  The name is
``<layer>.<function>``; the layers are named after the package's modules.
Spans live in memory as ``[name, start_ns, end_ns, parent, op_id, error]``
and are written out once the run ends.  The benchmark's own work (input
generation, answer checks, glue between calls) sits in ``bench.*`` spans,
so the self time of those spans is what the trace cannot attribute to a
layer.

The untraced run uses ``NullTracer``, whose ``call`` only forwards.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from stats import median

LAYERS = (
    "characterization",
    "constructor",
    "model",
    "verifier",
    "oracle.search",
    "oracle.decompose",
    "cli",
)

CLI_KINDS = (
    "theta",
    "make_check",
    "make_refused",
    "oracle",
    "table",
    "decompose",
    "malformed",
)


def _members(args, result):
    return {"characterization.members_out": len(result)}


def _search_count(args, result):
    return {"oracle.search.t_decided": 1, "oracle.search.witnesses_out": result}


# Work counts read off each call's arguments and result.  They depend only on
# the inputs, so for a fixed seed and op count they repeat exactly.
_COUNTERS = {
    "characterization.theta_cyclic": _members,
    "characterization.theta_interval": _members,
    "characterization.forbidden_set": _members,
    "characterization.bounds_cyc": _members,
    "constructor.construct": lambda a, r: {"constructor.edges_out": r.n},
    "model.CycleColoring": lambda a, r: {"model.edges": r.n},
    "verifier.verify": lambda a, r: {
        "verifier.edges_checked": a[0].n,
        "verifier.violations_out": len(r.violations),
    },
    "oracle.search.theta_by_search": lambda a, r: {"oracle.search.t_decided": a[0]},
    "oracle.search.count_colorings": _search_count,
    "oracle.search.exists_search": lambda a, r: {"oracle.search.t_decided": 1},
    "oracle.search.enumerate_colorings": lambda a, r: {
        "oracle.search.t_decided": 1,
        "oracle.search.witnesses_out": len(r),
    },
    "oracle.decompose.decompose": lambda a, r: {
        "oracle.decompose.edges": a[0].n,
        "oracle.decompose.runs_out": r.m,
    },
}
for _kind in CLI_KINDS:
    _COUNTERS[f"cli.{_kind}"] = lambda a, r: {
        "cli.spawns": r.spawns,
        "cli.bytes_in": r.bytes_in,
        "cli.bytes_out": len(r.out),
    }


class NullTracer:
    """Tracing off: calls are forwarded and nothing is recorded."""

    enabled = False

    def call(self, name, fn, *args):
        return fn(*args)

    def add(self, key, value=1):
        pass


class Tracer:
    """Tracing on: one span per call, kept in memory."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.parent = -1
        self.op_id = -1

    def open_op(self) -> int:
        """Open the root span of the next op."""
        self.op_id += 1
        return self.open("bench.op")

    def open(self, name: str) -> int:
        self.spans.append([name, time.perf_counter_ns(), 0, self.parent, self.op_id, None])
        self.parent = len(self.spans) - 1
        return self.parent

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter_ns()
        self.parent = span[3]

    def call(self, name, fn, *args):
        error = None
        start = time.perf_counter_ns()
        try:
            result = fn(*args)
        except Exception as exc:
            error = type(exc).__name__
            raise
        finally:
            self.spans.append(
                [name, start, time.perf_counter_ns(), self.parent, self.op_id, error]
            )
        counter = _COUNTERS.get(name)
        if counter is not None:
            self.counts.update(counter(args, result))
        return result

    def add(self, key, value=1):
        self.counts[key] += value


def layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0]


def _covered(spans) -> list[int]:
    """For each span, the time its direct children cover."""
    covered = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return covered


def busy_and_self(spans) -> tuple[dict, dict]:
    """Per-layer busy time and self time in ns.

    Self time is a span's duration minus the time its direct children cover;
    spans of one process never overlap, so the children's durations add up.
    """
    covered = _covered(spans)
    busy: dict = defaultdict(int)
    own: dict = defaultdict(int)
    for i, (name, start, end, _, _, _) in enumerate(spans):
        layer = layer_of(name)
        busy[layer] += end - start
        own[layer] += end - start - covered[i]
    return dict(busy), dict(own)


def per_layer_metrics(tracer: Tracer, extra: dict) -> dict:
    """The per-layer metrics of one traced phase; ``extra`` adds what the
    worker measured outside the spans (CLI baselines, tracing overhead)."""
    spans = tracer.spans
    counts = tracer.counts
    busy, own = busy_and_self(spans)
    calls: Counter = Counter(layer_of(s[0]) for s in spans)

    def ms(ns):
        return ns / 1e6

    def per(ns, work):
        return ns / work if work else 0.0

    def raised(layer, error):
        return [s[2] - s[1] for s in spans if layer_of(s[0]) == layer and s[5] == error]

    refused = raised("constructor", "Infeasible")
    refusal_ns = sum(refused)
    m = {}
    c = "characterization"
    m[f"{c}.calls"] = calls[c]
    m[f"{c}.busy_ms"] = ms(busy.get(c, 0))
    m[f"{c}.members_out"] = counts[f"{c}.members_out"]
    m[f"{c}.ns_per_member"] = per(busy.get(c, 0), counts[f"{c}.members_out"])
    c = "constructor"
    m[f"{c}.calls"] = calls[c]
    m[f"{c}.busy_ms"] = ms(busy.get(c, 0))
    m[f"{c}.edges_out"] = counts[f"{c}.edges_out"]
    m[f"{c}.ns_per_edge"] = per(busy.get(c, 0) - refusal_ns, counts[f"{c}.edges_out"])
    m[f"{c}.refusals"] = len(refused)
    m[f"{c}.refusal_busy_ms"] = ms(refusal_ns)
    c = "model"
    m[f"{c}.colorings_built"] = calls[c]
    m[f"{c}.busy_ms"] = ms(busy.get(c, 0))
    m[f"{c}.ns_per_edge"] = per(busy.get(c, 0), counts[f"{c}.edges"])
    c = "verifier"
    m[f"{c}.calls"] = calls[c]
    m[f"{c}.busy_ms"] = ms(busy.get(c, 0))
    m[f"{c}.edges_checked"] = counts[f"{c}.edges_checked"]
    m[f"{c}.ns_per_edge"] = per(busy.get(c, 0), counts[f"{c}.edges_checked"])
    m[f"{c}.violations_out"] = counts[f"{c}.violations_out"]
    c = "oracle.search"
    m[f"{c}.calls"] = calls[c]
    m[f"{c}.busy_ms"] = ms(busy.get(c, 0))
    m[f"{c}.t_decided"] = counts[f"{c}.t_decided"]
    m[f"{c}.witnesses_out"] = counts[f"{c}.witnesses_out"]
    m[f"{c}.bound_refusals"] = len(raised(c, "SearchBoundExceeded"))
    c = "oracle.decompose"
    m[f"{c}.calls"] = calls[c]
    m[f"{c}.busy_ms"] = ms(busy.get(c, 0))
    m[f"{c}.ns_per_edge"] = per(busy.get(c, 0), counts[f"{c}.edges"])
    m[f"{c}.runs_out"] = counts[f"{c}.runs_out"]
    m["cli.spawns"] = counts["cli.spawns"]
    for kind in CLI_KINDS:
        durations = [s[2] - s[1] for s in spans if s[0] == f"cli.{kind}"]
        m[f"cli.{kind}.p50_ms"] = ms(median(durations)) if durations else 0.0
    m["cli.startup_ms"] = extra.get("cli.startup_ms", 0.0)
    m["cli.import_ms"] = extra.get("cli.import_ms", 0.0)
    m["cli.bytes_in"] = counts["cli.bytes_in"]
    m["cli.bytes_out"] = counts["cli.bytes_out"]
    m["cli.exit_mismatches"] = counts["cli.exit_mismatches"]
    m["bench.self_ms"] = ms(own.get("bench", 0))
    m["bench.glue_ms"] = ms(sum(
        end - start - covered
        for (name, start, end, *_), covered in zip(spans, _covered(spans))
        if name == "bench.run"
    ))
    m["bench.ops"] = sum(1 for s in spans if s[0] == "bench.op")
    m["trace.overhead_frac"] = extra.get("trace.overhead_frac", 0.0)
    return m


PER_LAYER_UNITS = {
    "calls": "count", "busy_ms": "ms", "members_out": "count", "ns_per_member": "ns",
    "edges_out": "count", "ns_per_edge": "ns", "refusals": "count",
    "refusal_busy_ms": "ms", "colorings_built": "count", "edges_checked": "count",
    "violations_out": "count", "t_decided": "count", "witnesses_out": "count",
    "bound_refusals": "count", "runs_out": "count", "spawns": "count",
    "p50_ms": "ms", "startup_ms": "ms", "import_ms": "ms", "bytes_in": "bytes",
    "bytes_out": "bytes", "exit_mismatches": "count", "self_ms": "ms", "glue_ms": "ms",
    "ops": "count",
    "overhead_frac": "ratio",
}


def unit_of(metric: str) -> str:
    return PER_LAYER_UNITS[metric.rsplit(".", 1)[1]]
