"""One fresh benchmark process: set up one workload, then time it.

    python3 perfbench/worker.py --workload W --seed N --t0 T --role ROLE
        [--seconds S] [--ops K] [--trace-out PATH]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide), so set-up time includes interpreter
start.  Roles:

* ``setup``: set up, print the set-up time, stop;
* ``run``: set up, then time ops untraced for S seconds (or K ops);
* ``trace``: set up, run the same ops untraced and then traced (K ops, or
  whole passes lasting about S/2 each), print the per-layer metrics and
  write the spans to PATH.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict

import spans as tracing
import workloads
from probes import probe
from stats import beyond, highest_tail_percentile, median, percentile

MAX_REPORTED_FAILURES = 5
# Probes timed in set-up, between the imports and the warm-up, and left out
# of the set-up time.  Timed after the warm-up instead, they read 1.3 in some
# `feasibility` processes and 2.1-2.4 in others started within the same
# minute, while the set-up times stayed within 10%.
SETUP_PROBES = 21
# A timed run makes at least this many rounds, however slow the program is.
MIN_ROUNDS = 2
class Phase:
    """What one timed phase measured."""

    def __init__(self) -> None:
        self.latency_ns: list[float] = []
        self.cpu_ns: list[float] = []
        self.probes: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.props: dict = defaultdict(Counter)
        self.slowdowns = [1.0]
        self.timed_ns = 0.0  # summed latency before scaling

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(message)

    def slowdown(self) -> float:
        """The mean of the probes timed after the ops; 1 when there were none."""
        return sum(self.probes) / len(self.probes) if self.probes else 1.0

    @classmethod
    def pooled(cls, rounds: list[Phase]) -> Phase:
        """Merge rounds into one sample of op runs, each op run's latency
        and CPU time divided by the slowdown of its round."""
        merged = cls()
        merged.slowdowns = [r.slowdown() for r in rounds]
        for r, slowdown in zip(rounds, merged.slowdowns):
            merged.latency_ns += [x / slowdown for x in r.latency_ns]
            merged.cpu_ns += [x / slowdown for x in r.cpu_ns]
            merged.timed_ns += sum(r.latency_ns)
        merged.attempted = sum(r.attempted for r in rounds)
        merged.failed = sum(r.failed for r in rounds)
        merged.failures = [f for r in rounds for f in r.failures][:MAX_REPORTED_FAILURES]
        merged.props = rounds[0].props
        return merged

    def summary(self) -> dict:
        lat = self.latency_ns
        busy = sum(lat)
        count = len(lat)
        return {
            "ops": count,
            "ops_per_s": count / (busy / 1e9) if busy else 0.0,
            "op_p50_ms": percentile(lat, 50) / 1e6 if lat else 0.0,
            "op_p90_ms": percentile(lat, 90) / 1e6 if lat else 0.0,
            "p90_beyond": beyond(90, count) if lat else 0,
            "highest_tail_percentile": highest_tail_percentile(count),
            "op_cpu_ms": sum(self.cpu_ns) / count / 1e6 if count else 0.0,
            "slowdowns": self.slowdowns,
            "timed_ops_per_s": count / (self.timed_ns / 1e9) if self.timed_ns else 0.0,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "inputs": {
                key: {value: n / sum(c.values()) for value, n in sorted(c.items())}
                for key, c in sorted(self.props.items())
            },
        }


def run_phase(wl, stream, tracer, ops, phase=None, check=True, probing=False) -> Phase:
    """Closed loop: generate, time the op, check, repeat, ``ops`` times.

    The clock that the latency, CPU and throughput figures use runs only
    around ``wl.run``; input generation and the O(n) checks (skipped when
    ``check`` is false) happen with it stopped.  With ``probing``, the
    workload's probe is timed after each op.  Results are added to ``phase``
    when given.

    Traced, each op is a ``bench.op`` span with children ``bench.gen``,
    ``bench.run`` (whose children are the layer calls) and ``bench.check``.
    """
    phase = Phase() if phase is None else phase
    traced = tracer.enabled
    for _ in range(ops):
        if traced:
            root = tracer.open_op()
            span = tracer.open("bench.gen")
        p = next(stream)
        if traced:
            tracer.close(span)
            span = tracer.open("bench.run")
        phase.attempted += 1
        for key, value in p.props.items():
            phase.props[key][value] += 1
        result = error = None
        c0 = wl.cpu_ns()
        w0 = time.perf_counter_ns()
        try:
            result = wl.run(p, tracer)
        except Exception as exc:
            error = exc
        w1 = time.perf_counter_ns()
        phase.cpu_ns.append(wl.cpu_ns() - c0)
        phase.latency_ns.append(w1 - w0)
        if probing:
            phase.probes.append(probe(wl.HOST_PROBE))
        if traced:
            tracer.close(span)
            span = tracer.open("bench.check")
        if error is None and check:
            try:
                wl.check(p, result)
            except Exception as exc:
                error = exc
        if traced:
            tracer.close(span)
            tracer.close(root)
        if error is not None:
            phase.fail(_describe(p, error))
    return phase


def _describe(p, error: Exception) -> str:
    if isinstance(error, workloads.WrongAnswer):
        return f"{p}: {error}"
    if isinstance(error, subprocess.TimeoutExpired):
        return f"{p}: timed out after {error.timeout} s"
    return f"{p}: unexpected {''.join(traceback.format_exception_only(error)).strip()}"


def run_rounds(wl, make_stream, seconds=None, ops=None) -> Phase:
    """The untraced timed phase: rounds over one fixed list of ops.

    The first round runs ``ops`` ops, by default ``wl.PASSES`` whole passes,
    with every check; later rounds replay exactly the same ops, keeping the
    O(1) checks inside the op but not repeating the O(n) ones.  Rounds are
    added while the next one, as long as the last, still ends within
    ``seconds`` of the start (MIN_ROUNDS at least, and exactly that many
    when ``ops`` is given).

    Other tenants of a shared machine slow everything on it down, in spells
    from a fraction of a second to many minutes.  The probe timed after
    every op measures how much, and each round's op times are divided by
    its mean slowdown (``Phase.pooled``), so the figures read as if the
    host had run at the reference speed throughout.
    """
    count = ops if ops is not None else wl.PASSES * wl.SLOTS * wl.STRATA
    begin = time.perf_counter()
    rounds = [run_phase(wl, make_stream(), tracing.NullTracer(), count, probing=True)]
    last = time.perf_counter() - begin
    while len(rounds) < MIN_ROUNDS or (
        ops is None and time.perf_counter() - begin + last <= seconds
    ):
        start = time.perf_counter()
        rounds.append(
            run_phase(wl, make_stream(), tracing.NullTracer(), count, check=False, probing=True)
        )
        last = time.perf_counter() - start
    return Phase.pooled(rounds)


def warm_up(wl) -> list[str]:
    """Run each warm-up op once, untimed, with its checks."""
    phase = run_phase(wl, iter(wl.warmup()), tracing.NullTracer(), len(wl.warmup()))
    return phase.failures


def cli_baselines(wl, repeats: int = 5) -> dict:
    """Interpreter start, and the import of the CLI module on top of it."""

    def spawn_ms(code: str) -> float:
        times = []
        for _ in range(repeats):
            start = time.perf_counter_ns()
            subprocess.run(
                [sys.executable, "-c", code],
                env=wl.env,
                check=True,
                stdout=subprocess.DEVNULL,
                timeout=workloads.CLI_TIMEOUT_S,
            )
            times.append(time.perf_counter_ns() - start)
        return median(times) / 1e6

    startup = spawn_ms("pass")
    return {
        "cli.startup_ms": startup,
        "cli.import_ms": spawn_ms("import cyclic_chroma.cli") - startup,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--role", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--ops", type=int, default=None)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]()

    def stream():
        return wl.stream(random.Random(f"{args.workload}:{args.seed}"))

    probed = time.monotonic()
    setup_slowdown = median([probe(wl.HOST_PROBE) for _ in range(SETUP_PROBES)])
    probed = time.monotonic() - probed
    failures = warm_up(wl)
    out: dict = {
        "setup_s": time.monotonic() - args.t0 - probed,
        "setup_slowdown": setup_slowdown,
        "warmup_failures": failures,
    }
    if args.role == "run":
        phase = run_rounds(wl, stream, args.seconds, args.ops)
        out.update(phase.summary())
        out["peak_rss_mb"] = wl.peak_rss_kib() / 1024
    elif args.role == "trace":
        # Untraced and traced runs of the same ops alternate pass by pass,
        # so that both see the machine in the same state.
        if args.ops is None:
            pass_ops = wl.SLOTS * wl.STRATA
            chunks = [pass_ops] * max(1, round(wl.TRACE_RATE * args.seconds / 2 / pass_ops))
        else:
            chunks = [args.ops]
        plain, traced, tracer = Phase(), Phase(), tracing.Tracer()
        plain_stream, traced_stream = stream(), stream()
        for chunk in chunks:
            run_phase(wl, plain_stream, tracing.NullTracer(), ops=chunk, phase=plain)
            run_phase(wl, traced_stream, tracer, ops=chunk, phase=traced)
        plain_s, traced_s = plain.summary(), traced.summary()
        extra = cli_baselines(wl) if isinstance(wl, workloads.Cli) else {}
        base = plain_s["ops_per_s"]
        extra["trace.overhead_frac"] = (base - traced_s["ops_per_s"]) / base if base else 0.0
        out.update(traced_s)
        out["attempted"] = plain.attempted + traced.attempted
        out["failed"] = plain.failed + traced.failed
        out["failures"] = (plain.failures + traced.failures)[:MAX_REPORTED_FAILURES]
        out["layers"] = {
            name: {"value": value, "unit": tracing.unit_of(name)}
            for name, value in tracing.per_layer_metrics(tracer, extra).items()
        }
        busy, own = tracing.busy_and_self(tracer.spans)
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                json.dump(
                    {
                        "workload": args.workload,
                        "seed": args.seed,
                        "span_fields": ["name", "start_ns", "end_ns", "parent", "op_id", "error"],
                        "spans": tracer.spans,
                        "busy_ms": {k: v / 1e6 for k, v in sorted(busy.items())},
                        "self_ms": {k: v / 1e6 for k, v in sorted(own.items())},
                        "metrics": out["layers"],
                        "inputs": out["inputs"],
                    },
                    fh,
                )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
