"""cyclic-chroma benchmark: seeded closed-loop workloads, end to end and per layer.

    python3 perfbench/run.py --workload {witness,feasibility,search,cli}
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --smoke

Run from anywhere; the package is imported from ``src/`` next to this
directory, with no install.  With ``--trace 0`` the workload runs untraced
for S seconds and the end-to-end metrics are reported; set-up time is the
median over several fresh processes.  With ``--trace 1`` a fixed number of
ops, scaled from S, runs untraced and then traced, and the per-layer metrics
are reported; the spans go to ``.perfbench/``.  ``--smoke`` runs every
workload for a handful of ops, both ways.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every answer was right; 2 means the benchmark
refused to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from stats import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "cyclic_chroma" / "__init__.py"
MAX_N_ENV_VAR = "CYCLIC_CHROMA_MAX_N"
WORKLOADS = ("witness", "feasibility", "search", "cli")

END_TO_END = {
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "op_cpu_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# Fresh processes whose set-up time is measured; the last one also runs.
SETUPS = 5
SMOKE_OPS = 8
WORKER_TIMEOUT_S = 170


def refuse(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    try:
        click_version = metadata.version("click")
    except metadata.PackageNotFoundError:
        click_version = None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "click": click_version,
        "commit": git_commit(),
        "loadavg": list(os.getloadavg()),
    }


def steal_s() -> float | None:
    """CPU time the host took from this machine so far (all CPUs), if known.

    A loaded host slows every op of a run at once; the steal over the run
    tells such a run apart from a slower program.
    """
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def spawn(workload: str, seed: int, role: str, **extra) -> dict:
    """Start one worker process, wait for it, return its JSON result."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--role", role]
    for key, value in extra.items():
        if value is not None:
            argv += [f"--{key.replace('_', '-')}", str(value)]
    argv += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} worker ({role}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(result: dict) -> list[str]:
    lines = [f"inputs {json.dumps(result['inputs'], sort_keys=True)}"]
    for failure in result["warmup_failures"] + result["failures"]:
        lines.append(f"FAILED {failure}")
    attempted, failed = result["attempted"], result["failed"]
    lines.append(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} op runs)")
    return lines


def measure(workload: str, seed: int, seconds: int, ops: int | None) -> tuple[dict, dict, list[str]]:
    setups = [spawn(workload, seed, "setup") for _ in range(SETUPS - 1)]
    result = spawn(workload, seed, "run", seconds=seconds, ops=ops)
    setups.append(result)
    scaled = sorted(s["setup_s"] / s["setup_slowdown"] for s in setups)
    lines = report(result)
    timed = ", ".join(f"{s['setup_s']:.4f}" for s in setups)
    slowdowns = ", ".join(f"{s['setup_slowdown']:.3f}" for s in setups)
    lines.append(
        f"setup_s over {SETUPS} fresh processes, as timed: {timed}; "
        f"host slowdown in each: {slowdowns}"
    )
    result["setup_s"] = median(scaled)
    slowdowns = ", ".join(f"{s:.3f}" for s in result["slowdowns"])
    lines.append(
        f"host slowdown in each of {len(result['slowdowns'])} rounds: {slowdowns}; "
        f"ops_per_s as timed: {result['timed_ops_per_s']:.6g}"
    )
    tail = result["highest_tail_percentile"]
    lines.append(
        f"op_p90_ms rests on {result['ops']} op runs, {result['p90_beyond']} beyond it; "
        f"highest percentile with >= 10 beyond: {'none' if tail is None else f'p{tail:g}'}"
    )
    metrics = {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END.items()}
    for name, m in metrics.items():
        lines.append(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    return result, metrics, lines


def trace(workload: str, seed: int, seconds: int, ops: int | None) -> tuple[dict, dict, list[str]]:
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    result = spawn(workload, seed, "trace", seconds=seconds, ops=ops, trace_out=path)
    lines = report(result)
    lines.append(f"spans written to {path.relative_to(ROOT)}")
    metrics = result["layers"]
    for name, m in metrics.items():
        lines.append(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    return result, metrics, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=None,
                    help="run exactly this many ops per phase instead of --seconds")
    ap.add_argument("--smoke", action="store_true",
                    help=f"run every workload for {SMOKE_OPS} ops, untraced and traced")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    if MAX_N_ENV_VAR in os.environ:
        return refuse(
            f"{MAX_N_ENV_VAR} is set; it changes what the search and cli workloads "
            "measure, so unset it"
        )
    if not PACKAGE.is_file():
        return refuse(f"package source not found at {PACKAGE.relative_to(ROOT)}")
    print(f"env {json.dumps(environment(), sort_keys=True)}")
    runs = []
    steal0, wall0 = steal_s(), time.monotonic()
    try:
        if args.smoke:
            for workload in WORKLOADS:
                runs.append(measure(workload, args.seed, args.seconds, SMOKE_OPS))
                runs.append(trace(workload, args.seed, args.seconds, SMOKE_OPS))
        else:
            print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
            step = trace if args.trace else measure
            runs.append(step(args.workload, args.seed, args.seconds, args.ops))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r, _, _ in runs)
    failed = sum(r["failed"] for r, _, _ in runs)
    correct = failed == 0 and not any(r["warmup_failures"] for r, _, _ in runs)
    steal1 = steal_s()
    if steal0 is not None and steal1 is not None:
        print(f"host steal {steal1 - steal0:.2f} s over {time.monotonic() - wall0:.1f} s wall")
    for _, _, lines in runs:
        print("\n".join(lines))
    metrics = runs[0][1] if len(runs) == 1 else {}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
