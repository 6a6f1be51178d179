"""The four benchmark workloads: seeded inputs, the timed operation, its checks.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned.  A workload turns ``--seed`` into an
endless stream of operation parameters.  The stream comes in passes of
``SLOTS * STRATA`` ops (``cells``): slots fix the exact share of each
variant (parity of n, decompose, invalid verify, refusal reason, CLI
command), strata spread sizes and color counts evenly.  A timed run replays
a fixed number of whole passes.  The program receives only the generated
inputs.

``run`` makes the program calls and the O(1) checks on their answers; it is
the timed part.  ``check`` holds the O(n) checks against references written
here, independently of the package; the clock is stopped while it runs.
Both raise ``WrongAnswer``.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import cyclic_chroma as cc
from spans import CLI_KINDS

ROOT = Path(__file__).resolve().parent.parent
CYCLIC, INTERVAL = "cyclic", "interval"
CLI_TIMEOUT_S = 60


class WrongAnswer(Exception):
    """The program returned an answer the benchmark knows to be wrong."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise WrongAnswer(message)


# ---------------------------------------------------------------------------
# Reference answers, restated from the closed forms in the paper.


def ref_feasible(n: int, t: int, mode: str = CYCLIC) -> bool:
    if mode == INTERVAL:
        return n % 2 == 0 and 2 <= t <= n // 2 + 1
    if n % 2:
        return t % 2 == 1 and 3 <= t <= n
    return 2 <= t <= n // 2 + 1 or (t % 2 == 0 and 2 <= t <= n)


def ref_theta(n: int, mode: str = CYCLIC) -> tuple[int, ...]:
    if mode == INTERVAL:
        return tuple(range(2, n // 2 + 2)) if n % 2 == 0 else ()
    if n % 2:
        return tuple(range(3, n + 1, 2))
    low = range(2, n // 2 + 2)
    return tuple(low) + tuple(range(low.stop + low.stop % 2, n + 1, 2))


def ref_adjacent(a: int, b: int, t: int, mode: str) -> bool:
    d = abs(a - b)
    return d == 1 or (mode == CYCLIC and d == t - 1)


def ref_valid(colors, t: int, mode: str) -> bool:
    """Proper, surjective, and every vertex palette adjacent in ``mode``."""
    if len(set(colors)) != t or min(colors) < 1 or max(colors) > t:
        return False
    prev = colors[-1]
    for cur in colors:
        if not ref_adjacent(prev, cur, t, mode):
            return False
        prev = cur
    return True


def ref_runs(colors, t: int) -> int:
    """Number of maximal runs of edges colored 1 or t around the cycle."""
    kept = [x == 1 or x == t for x in colors]
    return sum(1 for i in range(len(kept)) if kept[i] and not kept[i - 1])


# ---------------------------------------------------------------------------
# Seeded sampling.


def cells(rng, slots: int, strata: int):
    """Endless stratified passes of (slot, u_n, u_t), with u_n, u_t in [0, 1).

    A pass holds ``slots * strata`` ops in shuffled order.  Each slot sees
    each of the ``strata`` equal bands of u_n once, at its own place inside
    the bands, and the places of the slots are staggered so that the u_n of
    a whole pass lie one per step of an even grid.  The u_t of a slot cover
    the same bands once, paired with the u_n bands by a rotation, at the
    same staggered places.  Places and pairing turn from pass to pass but do
    not depend on the seed; the seed moves the odd places up inside their
    grid step and the even ones down by as much, and orders the pass.  So
    the sizes and color counts a run asks for, and the work they make,
    hardly depend on the seed: drawing them at random, even by bands, left
    a 15-20% spread in throughput between seeds.
    """
    turn = round(slots * (math.sqrt(5) - 1) / 2)  # places move by a golden step
    for p in itertools.count():
        v, w = rng.random(), rng.random()
        batch = []
        for s in range(slots):
            k = (s + p * turn) % slots
            off_n = (k + (v if k % 2 else 1 - v)) / slots
            off_t = (k + (w if k % 2 else 1 - w)) / slots
            batch += [
                (s, (j + off_n) / strata, ((j + s + p) % strata + off_t) / strata)
                for j in range(strata)
            ]
        rng.shuffle(batch)
        yield from batch


def log_scale(u: float, lo: int, hi: int, parity: int | None = None) -> int:
    """Map u in [0, 1) log-uniformly onto [lo, hi], optionally forcing parity."""
    a, b = math.log(lo), math.log(hi + 1)
    n = min(hi, max(lo, int(math.exp(a + (b - a) * u))))
    if parity is not None and n % 2 != parity:
        n = n + 1 if n < hi else n - 1
    return n


def feasible_t(n: int, u: float) -> int:
    """The element at quantile u of the cyclic feasible set of C(n)."""
    if n % 2:
        return 3 + 2 * int(u * ((n - 1) // 2))
    low = n // 2  # [2, n/2 + 1]
    start = n // 2 + 2 + n // 2 % 2  # first even t above the low block
    high = (n - start) // 2 + 1 if start <= n else 0
    k = int(u * (low + high))
    return 2 + k if k < low else start + 2 * (k - low)


def forbidden_t(n: int, u: float) -> int:
    """The element at quantile u of the parity gap of C(n), n >= 5."""
    if n % 2:
        lo = 4
    else:
        lo = n // 2 + 2
        lo += lo % 2 == 0
    return lo + 2 * int(u * ((n - 1 - lo) // 2 + 1))


def out_of_range_t(rng, n: int) -> int:
    chi = 3 if n % 2 else 2
    return rng.randint(1, chi - 1) if rng.random() < 0.5 else rng.randint(n + 1, 2 * n)


def size_bucket(n: int) -> str:
    return f"1e{int(math.log10(n))}"


# ---------------------------------------------------------------------------
# Workloads.


class Workload:
    name = ""
    SLOTS = STRATA = 1
    # Ops per second on a 2-core x86 box: sizes a traced run, which makes a
    # fixed number of whole passes so that its counts repeat exactly.
    TRACE_RATE = 100
    HOST_PROBE = "churn"  # the kind of work of the host-speed probe (probes.PROBES)
    # Passes in the list of ops a timed run replays round after round: at
    # least 100 ops, so that op_p90_ms has ten samples beyond it, and few
    # enough that several rounds fit in a run.
    PASSES = 4

    def cpu_ns(self) -> int:
        return time.process_time_ns()

    def peak_rss_kib(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # Each workload also defines warmup() -> list of ops, stream(rng) ->
    # endless ops, run(op, tracer) -> result (timed) and check(op, result).


@dataclass(frozen=True)
class WitnessOp:
    n: int
    t: int
    decompose: bool = False
    edge: int | None = None  # 0-based edge to recolor, for the invalid verify
    color: int = 0  # new color for that edge (bumped when it equals the old one)

    @property
    def props(self) -> dict:
        return {
            "n_size": size_bucket(self.n),
            "n_parity": "odd" if self.n % 2 else "even",
            "witness": "zigzag" if (self.n - self.t) % 2 == 0 else "tent",
            "verify": "invalid" if self.edge is not None else "valid",
            "decompose": "yes" if self.decompose else "no",
        }


class Witness(Workload):
    """construct + verify of feasible pairs, a share decomposed, a share
    recolored at one edge and verified again."""

    name = "witness"
    N_MAX = 2 * 10**5
    # Parity of n is slot % 2; variant slot // 2 is 0 for decompose, 1-2 for
    # the invalid verify, 3-7 for plain construct + verify.
    SLOTS = 16
    STRATA = 8
    TRACE_RATE = 100

    def warmup(self):
        n = self.N_MAX
        # t = 3 gives the most boundary runs, so decompose peaks in memory
        # here and peak RSS does not depend on which sizes the seed draws.
        return [WitnessOp(n, 3, decompose=True, edge=n // 3, color=2)]

    def stream(self, rng):
        for slot, un, ut in cells(rng, self.SLOTS, self.STRATA):
            n = log_scale(un, 3, self.N_MAX, parity=slot % 2)
            t = feasible_t(n, ut)
            variant = slot // 2
            if variant in (1, 2):
                yield WitnessOp(n, t, False, rng.randrange(n), rng.randint(1, t))
            else:
                yield WitnessOp(n, t, variant == 0)

    def run(self, p, tr):
        c = tr.call("constructor.construct", cc.construct, p.n, p.t)
        rep = tr.call("verifier.verify", cc.verify, c, CYCLIC)
        expect(rep.mode_satisfied, f"witness for ({p.n},{p.t}) fails cyclic verify")
        if (p.n - p.t) % 2:
            rep = tr.call("verifier.verify", cc.verify, c, INTERVAL)
            expect(rep.mode_satisfied, f"tent for ({p.n},{p.t}) fails interval verify")
        d = tr.call("oracle.decompose.decompose", cc.decompose, c) if p.decompose else None
        bad = bad_rep = None
        if p.edge is not None:
            colors = list(c.colors)
            colors[p.edge] = p.color if p.color != colors[p.edge] else p.color % p.t + 1
            bad = tr.call("model.CycleColoring", cc.CycleColoring, p.n, p.t, colors)
            bad_rep = tr.call("verifier.verify", cc.verify, bad, CYCLIC)
        return c, d, bad, bad_rep

    def check(self, p, result):
        c, d, bad, bad_rep = result
        expect((c.n, c.t) == (p.n, p.t), f"witness has shape ({c.n},{c.t})")
        expect(ref_valid(c.colors, p.t, CYCLIC), f"witness for ({p.n},{p.t}) is invalid")
        if (p.n - p.t) % 2:
            expect(ref_valid(c.colors, p.t, INTERVAL), "tent is not interval-valid")
        if d is not None:
            runs = ref_runs(c.colors, p.t)
            expect(d.connected == (runs <= 1), f"decompose connected={d.connected}, runs={runs}")
            if runs > 1:
                expect(d.m == runs, f"decompose m={d.m}, expected {runs}")
                expect(d.psi_sum == p.n + 2 * d.m, "psi does not sum to n + 2m")
        if bad is not None:
            colors, n, t, e = bad.colors, p.n, p.t, p.edge
            # Vertex v sees edges v-1 and v; recoloring edge e+1 touches
            # vertices e+1 and e+2 only, so only they can violate.
            expected = []
            for v, a, b in (
                (e + 1, colors[e - 1], colors[e]),
                ((e + 1) % n + 1, colors[e], colors[(e + 1) % n]),
            ):
                if a == b:
                    expected.append((v, (a, b), cc.NOT_PROPER))
                elif not ref_adjacent(a, b, t, CYCLIC):
                    expected.append((v, (a, b), cc.NOT_CYCLIC_INTERVAL))
            got = [(v.vertex, tuple(v.palette), v.reason) for v in bad_rep.violations]
            expect(got == sorted(expected), f"violations {got}, expected {sorted(expected)}")
            missing = frozenset(range(1, t + 1)) - frozenset(colors)
            expect(bad_rep.missing_colors == missing, "wrong missing colors")
            expect(
                bad_rep.mode_satisfied == (not expected and not missing),
                "wrong verdict on a recolored witness",
            )


@dataclass(frozen=True)
class FeasibilityOp:
    n: int
    probes: tuple[int, ...]  # t values for contains
    t_bad: int
    reason: str

    @property
    def props(self) -> dict:
        return {
            "n_size": size_bucket(self.n),
            "n_parity": "odd" if self.n % 2 else "even",
            "refusal": self.reason,
        }


class Feasibility(Workload):
    """Every closed form for one n, contains probes, and one refused construct."""

    name = "feasibility"
    N_MAX = cc.MATERIALIZE_CAP
    # Parity of n is slot % 2; slot // 2 == 0 refuses an out-of-range t, the
    # other three a t in the forbidden gap.
    SLOTS = 8
    STRATA = 16
    PASSES = 1
    TRACE_RATE = 20
    PROBES = 32

    def warmup(self):
        n = self.N_MAX
        return [
            FeasibilityOp(n, (2, 3, n - 1, n), n - 1, cc.REASON_FORBIDDEN),
            FeasibilityOp(n - 1, (2, 3, n - 2), n, cc.REASON_RANGE),
        ]

    def stream(self, rng):
        for slot, un, ut in cells(rng, self.SLOTS, self.STRATA):
            n = log_scale(un, 5, self.N_MAX, parity=slot % 2)
            probes = tuple(rng.randint(1, n + 1) for _ in range(self.PROBES))
            if slot // 2 == 0:
                yield FeasibilityOp(n, probes, out_of_range_t(rng, n), cc.REASON_RANGE)
            else:
                yield FeasibilityOp(n, probes, forbidden_t(n, ut), cc.REASON_FORBIDDEN)

    def run(self, p, tr):
        n = p.n
        chi = tr.call("characterization.chi_prime", cc.chi_prime, n)
        th_c = tr.call("characterization.theta_cyclic", cc.theta_cyclic, n)
        th_i = tr.call("characterization.theta_interval", cc.theta_interval, n)
        forbidden = tr.call("characterization.forbidden_set", cc.forbidden_set, n)
        bounds = tr.call("characterization.bounds_cyc", cc.bounds_cyc, n)
        found = [tr.call("characterization.contains", cc.contains, n, t) for t in p.probes]
        try:
            tr.call("constructor.construct", cc.construct, n, p.t_bad)
        except cc.Infeasible as exc:
            expect(exc.reason == p.reason, f"construct({n},{p.t_bad}) refused as {exc.reason}")
        else:
            raise WrongAnswer(f"construct({n},{p.t_bad}) built a witness")
        return chi, th_c, th_i, forbidden, bounds, found

    def check(self, p, result):
        chi, th_c, th_i, forbidden, bounds, found = result
        n = p.n
        expect(chi == (3 if n % 2 else 2), f"chi_prime({n}) = {chi}")
        expect(th_c.members == ref_theta(n, CYCLIC), f"theta_cyclic({n}) is wrong")
        expect(th_i.members == ref_theta(n, INTERVAL), f"theta_interval({n}) is wrong")
        expect(
            forbidden == set(range(chi, n + 1)).difference(th_c.members),
            f"forbidden_set({n}) is not [chi', n] minus theta",
        )
        expect(bounds == (th_c.members[0], th_c.members[-1]), f"bounds_cyc({n}) = {bounds}")
        expect(
            found == [ref_feasible(n, t) for t in p.probes], f"contains({n}, .) is wrong"
        )


@dataclass(frozen=True)
class SearchOp:
    n: int
    mode: str
    t: int
    limit: int | None = None  # set: also enumerate up to this many colorings

    @property
    def props(self) -> dict:
        return {
            "n_parity": "odd" if self.n % 2 else "even",
            "mode": self.mode,
            "t_feasible": "yes" if ref_feasible(self.n, self.t, self.mode) else "no",
            "enumerate": "yes" if self.limit else "no",
        }


class Search(Workload):
    """Exhaustive search against the closed forms for n in [3, 14]."""

    name = "search"
    N_MIN, N_MAX = 3, cc.DEFAULT_MAX_N
    # A pass asks about every (n, t) with t in [1, n] once in each mode, so
    # every seed searches the same mix of sizes; the seed orders the pass and
    # picks which quarter of the t of each (n, mode) also enumerate, and with
    # what limit.
    SLOTS = 2  # modes
    STRATA = sum(range(N_MIN, N_MAX + 1))  # (n, t) pairs
    PASSES = 1
    TRACE_RATE = 100
    HOST_PROBE = "walk"
    LIMIT = 32

    def warmup(self):
        n = self.N_MAX
        return [SearchOp(n, CYCLIC, 7, 16), SearchOp(n, INTERVAL, 5, 16)]

    def stream(self, rng):
        while True:
            batch = []
            for mode in (CYCLIC, INTERVAL):
                for n in range(self.N_MIN, self.N_MAX + 1):
                    for k, t in enumerate(rng.sample(range(1, n + 1), n)):
                        limit = rng.randint(1, self.LIMIT) if k < round(n / 4) else None
                        batch.append(SearchOp(n, mode, t, limit))
            rng.shuffle(batch)
            yield from batch

    def run(self, p, tr):
        n, t, mode = p.n, p.t, p.mode
        theta = tr.call("oracle.search.theta_by_search", cc.theta_by_search, n, mode)
        count = tr.call("oracle.search.count_colorings", cc.count_colorings, n, t, mode)
        exists = None
        if mode == CYCLIC:
            exists = tr.call(
                "oracle.search.exists_search", cc.exists_search, n, t, mode, True
            )
            expect(exists == (count > 0), f"exists_search({n},{t}) disagrees with count")
        found = None
        if p.limit:
            config = cc.SearchConfig(mode=mode, limit=p.limit)
            found = tr.call(
                "oracle.search.enumerate_colorings", cc.enumerate_colorings, n, t, config
            )
        return theta, count, found

    def check(self, p, result):
        theta, count, found = result
        n, t, mode = p.n, p.t, p.mode
        formula = cc.theta_cyclic(n) if mode == CYCLIC else cc.theta_interval(n)
        expect(theta.members == formula.members, f"theta_by_search({n},{mode}) != formula")
        expect((count > 0) == (t in formula.members), f"count({n},{t},{mode}) = {count}")
        if found is not None:
            expect(len(found) == min(p.limit, count), f"enumerated {len(found)} of {count}")
            for c in found:
                expect(cc.verify(c, mode).mode_satisfied, "enumerated an invalid coloring")
            expect(len({c.colors for c in found}) == len(found), "enumerated duplicates")


@dataclass
class CliResult:
    codes: tuple[int, ...]
    out: bytes
    err: bytes
    spawns: int
    bytes_in: int


@dataclass(frozen=True)
class CliOp:
    kind: str
    argv: tuple[str, ...]
    stdin: bytes = b""
    codes: tuple[int, ...] = (0,)  # expected exit code of each process
    n: int = 0
    t: int = 0
    detail: str = ""  # malformed variant, or refusal reason
    coloring: object = field(default=None, compare=False)

    @property
    def props(self) -> dict:
        props = {"command": self.kind}
        if self.n:
            props["n_size"] = size_bucket(self.n)
        if self.detail:
            props["detail"] = self.detail
        return props


_MALFORMED = {
    "not_json": b'{"n": 3, "t": 3, "colors": [1, 2',
    "unknown_field": b'{"n": 3, "t": 3, "colors": [1, 2, 3], "extra": 1}',
    "missing_field": b'{"n": 3, "t": 3}',
    "float_color": b'{"n": 3, "t": 3, "colors": [1, 2.5, 3]}',
    "string_n": b'{"n": "3", "t": 3, "colors": [1, 2, 3]}',
    "not_object": b"[1, 2, 3]",
}


class Cli(Workload):
    """One CLI invocation (or one make | check pipe) per op, run as a fresh
    ``python -m cyclic_chroma.cli`` process."""

    name = "cli"
    N_MAX = 2 * 10**4
    KINDS = CLI_KINDS
    SLOTS = len(KINDS)
    STRATA = 16
    PASSES = 1
    TRACE_RATE = 10
    HOST_PROBE = "spawn"

    def __init__(self) -> None:
        self.command = [sys.executable, "-m", "cyclic_chroma.cli"]
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def cpu_ns(self) -> int:
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        return int((ru.ru_utime + ru.ru_stime) * 1e9)

    def peak_rss_kib(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def warmup(self):
        return [CliOp("theta", ("theta", "6", "--json"), n=6, detail=CYCLIC)]

    def stream(self, rng):
        for slot, un, ut in cells(rng, self.SLOTS, self.STRATA):
            kind = self.KINDS[slot]
            n = log_scale(un, 5, self.N_MAX)
            if kind == "theta":
                mode = rng.choice((CYCLIC, INTERVAL))
                yield CliOp(kind, ("theta", str(n), "--mode", mode, "--json"), n=n, detail=mode)
            elif kind == "make_check":
                t = feasible_t(n, ut)
                yield CliOp(kind, ("make", str(n), str(t)), codes=(0, 0), n=n, t=t)
            elif kind == "make_refused":
                if rng.random() < 0.25:
                    t, reason = out_of_range_t(rng, n), cc.REASON_RANGE
                else:
                    t, reason = forbidden_t(n, ut), cc.REASON_FORBIDDEN
                yield CliOp(kind, ("make", str(n), str(t), "--json"), codes=(1,), n=n, t=t, detail=reason)
            elif kind == "oracle":
                yield CliOp(kind, ("oracle", "12", "--count", "--assert-theorem", "--json"))
            elif kind == "table":
                yield CliOp(kind, ("table", "100", "--format", "csv"))
            elif kind == "decompose":
                t = feasible_t(n, ut)
                base = cc.construct(n, t).colors
                shift, turn = rng.randrange(t), rng.randrange(n)
                colors = [(x - 1 + shift) % t + 1 for x in base[turn:] + base[:turn]]
                coloring = cc.CycleColoring(n, t, colors)
                record = json.dumps(coloring.to_record()).encode()
                yield CliOp(kind, ("decompose", "--json"), record, n=n, t=t, coloring=coloring)
            else:
                variant = rng.choice(sorted(_MALFORMED))
                yield CliOp(kind, ("check", "--json"), _MALFORMED[variant], codes=(2,), detail=variant)

    def _spawn(self, p):
        if p.kind == "make_check":
            return self._pipe(p)
        with subprocess.Popen(
            self.command + list(p.argv),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self.env,
            cwd=ROOT,
        ) as proc:
            try:
                out, err = proc.communicate(p.stdin, timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
        return CliResult((proc.returncode,), out, err, 1, len(p.stdin))

    def _pipe(self, p):
        check = self.command + ["check", "--json"]
        with subprocess.Popen(
            self.command + list(p.argv),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=self.env,
            cwd=ROOT,
        ) as make:
            with subprocess.Popen(
                check, stdin=make.stdout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=self.env, cwd=ROOT,
            ) as chk:
                make.stdout.close()
                try:
                    out, err = chk.communicate(timeout=CLI_TIMEOUT_S)
                    make.wait(timeout=CLI_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    make.kill()
                    chk.kill()
                    chk.communicate()
                    raise
        return CliResult((make.returncode, chk.returncode), out, err, 2, 0)

    def run(self, p, tr):
        result = tr.call(f"cli.{p.kind}", self._spawn, p)
        if result.codes != p.codes:
            tr.add("cli.exit_mismatches")
            raise WrongAnswer(f"{p.kind} {' '.join(p.argv)}: exit {result.codes}, expected {p.codes}")
        return result

    def check(self, p, result):
        if p.kind == "malformed":
            expect(result.out == b"", f"malformed input ({p.detail}) produced output")
            expect(result.err.startswith(b"error:"), f"malformed input ({p.detail}): no error line")
            return
        if p.kind == "table":
            expected = _table_csv(100)
            expect(result.out.decode() == expected, "table 100 differs from the library")
            return
        try:
            got = json.loads(result.out)
        except ValueError:
            raise WrongAnswer(f"{p.kind}: stdout is not JSON") from None
        if p.kind == "theta":
            ts = cc.theta_cyclic(p.n) if p.detail == CYCLIC else cc.theta_interval(p.n)
            expected = {"n": p.n, "mode": p.detail, "members": list(ts.members), "provenance": ts.provenance}
            if ts.members:
                expected.update(w=ts.members[0], W=ts.members[-1])
        elif p.kind == "make_check":
            expected = cc.verify(cc.construct(p.n, p.t), CYCLIC).to_json_dict()
        elif p.kind == "make_refused":
            try:
                cc.construct(p.n, p.t)
                raise WrongAnswer(f"library builds ({p.n},{p.t}), expected a refusal")
            except cc.Infeasible as exc:
                expect(exc.reason == p.detail, f"library refuses ({p.n},{p.t}) as {exc.reason}")
                expected = {"n": p.n, "t": p.t, "feasible": False, "reason": exc.reason, "message": exc.message}
        elif p.kind == "oracle":
            expected = _oracle_json(12)
        else:
            expected = cc.decompose(p.coloring).to_json_dict()
        expect(got == expected, f"{p.kind} {' '.join(p.argv)}: JSON differs from the library")


@functools.cache
def _table_csv(nmax: int) -> str:
    lines = ["n,chi,theta,forbidden"]
    for n in range(3, nmax + 1):
        theta = ";".join(map(str, cc.theta_cyclic(n).members))
        gap = ";".join(map(str, sorted(cc.forbidden_set(n)))) if n >= 5 else ""
        lines.append(f"{n},{cc.chi_prime(n)},{theta},{gap}")
    return "\n".join(lines) + "\n"


@functools.cache
def _oracle_json(n: int) -> dict:
    rows = [
        {
            "t": t,
            "exists": cc.exists_search(n, t),
            "count": cc.count_colorings(n, t),
            "formula": cc.contains(n, t),
        }
        for t in range(1, n + 1)
    ]
    return {"n": n, "mode": CYCLIC, "rows": rows, "agree": True}


WORKLOADS = {w.name: w for w in (Witness, Feasibility, Search, Cli)}
