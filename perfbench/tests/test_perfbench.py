"""Tests of the benchmark itself: its statistics, its failure accounting, its
input generator, and that a wrong answer from the package fails the command.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import probes  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from run import END_TO_END  # noqa: E402
from stats import beyond, highest_tail_percentile, percentile  # noqa: E402
from worker import MIN_ROUNDS, Phase, run_phase  # noqa: E402


def run_bench(args, cwd=ROOT):
    env = {k: v for k, v in os.environ.items() if k != "CYCLIC_CHROMA_MAX_N"}
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=170,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# --- percentile rule ------------------------------------------------------


def test_nearest_rank_percentile():
    samples = list(range(1, 101))
    random.Random(0).shuffle(samples)
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90
    assert percentile([7], 90) == 7
    assert beyond(90, 100) == 10
    assert beyond(90, 99) == 9


@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_highest_percentile_with_ten_beyond(count, expected):
    assert highest_tail_percentile(count) == expected


# --- failure accounting ---------------------------------------------------


class FakeWorkload(workloads.Workload):
    """Ops named by what they do: ok, refused (an expected refusal), wrong
    (caught in run), badcheck (caught in check), crash (unexpected error)."""

    def run(self, p, tr):
        if p == "wrong":
            raise workloads.WrongAnswer("wrong")
        if p == "crash":
            raise KeyError("boom")
        if p == "refused":
            try:
                tr.call("constructor.construct", workloads.cc.construct, 6, 5)
            except workloads.cc.Infeasible as exc:
                workloads.expect(exc.reason == "forbidden", "wrong reason")
        return p

    def check(self, p, result):
        workloads.expect(result != "badcheck", "bad")


class Op(str):
    props = {}


def test_failed_frac_counts_wrong_answers_and_crashes_only():
    ops = [Op(x) for x in ("ok", "refused", "wrong", "badcheck", "crash", "ok")]
    phase = run_phase(FakeWorkload(), iter(ops), spans.NullTracer(), ops=len(ops))
    assert phase.attempted == 6
    assert phase.failed == 3
    assert len(phase.latency_ns) == 6
    summary = phase.summary()
    assert summary["failed"] / summary["attempted"] == 0.5
    assert any("KeyError" in f for f in phase.failures)


# --- host-speed scaling -----------------------------------------------------


def test_rounds_are_scaled_by_their_own_probes():
    calm, slow = Phase(), Phase()
    calm.latency_ns, calm.cpu_ns, calm.probes = [10e6, 30e6], [8e6, 24e6], [1.0, 1.0]
    slow.latency_ns, slow.cpu_ns, slow.probes = [20e6, 60e6], [16e6, 48e6], [1.5, 2.5]
    merged = Phase.pooled([calm, slow])
    assert merged.slowdowns == [1.0, 2.0]
    assert merged.latency_ns == [10e6, 30e6, 10e6, 30e6]
    summary = merged.summary()
    assert summary["ops_per_s"] == pytest.approx(4 / 0.08)
    assert summary["timed_ops_per_s"] == pytest.approx(4 / 0.12)
    assert summary["op_p90_ms"] == pytest.approx(30.0)
    assert summary["op_cpu_ms"] == pytest.approx(16.0)


def test_probes_read_a_positive_slowdown():
    for kind in probes.PROBES:
        assert probes.probe(kind) > 0


# --- generator and references ---------------------------------------------


def test_quantile_maps_cover_the_feasible_set_and_the_gap():
    for n in range(3, 80):
        theta = workloads.ref_theta(n)
        assert theta == tuple(t for t in range(1, n + 1) if workloads.ref_feasible(n, t))
        assert theta == workloads.cc.theta_cyclic(n).members
        grid = [k / (8 * n) for k in range(8 * n)]
        assert sorted({workloads.feasible_t(n, u) for u in grid}) == list(theta)
        if n >= 5:
            gap = {workloads.forbidden_t(n, u) for u in grid}
            assert gap == workloads.cc.forbidden_set(n)


def test_same_seed_same_inputs():
    for name, cls in workloads.WORKLOADS.items():
        if name == "cli":
            continue
        a = cls().stream(random.Random(f"{name}:3"))
        b = cls().stream(random.Random(f"{name}:3"))
        assert [next(a) for _ in range(50)] == [next(b) for _ in range(50)]


def test_a_round_has_enough_ops_for_p90():
    for cls in workloads.WORKLOADS.values():
        assert highest_tail_percentile(cls.PASSES * cls.SLOTS * cls.STRATA) >= 90


def test_traced_counts_repeat_exactly():
    def counts():
        tracer = spans.Tracer()
        wl = workloads.Search()
        phase = run_phase(wl, wl.stream(random.Random("search:5")), tracer, ops=24)
        assert phase.failed == 0
        m = spans.per_layer_metrics(tracer, {})
        return {k: v for k, v in m.items() if not k.endswith(("_ms", "ns_per_edge", "ns_per_member"))}

    assert counts() == counts()


def test_self_time_subtracts_direct_children():
    trace = [
        ["bench.op", 0, 100, -1, 0, None],
        ["verifier.verify", 10, 40, 0, 0, None],
        ["bench.check", 50, 90, 0, 0, None],
        ["characterization.theta_cyclic", 60, 70, 2, 0, None],
    ]
    busy, own = spans.busy_and_self(trace)
    assert busy == {"bench": 140, "verifier": 30, "characterization": 10}
    assert own == {"bench": 60, "verifier": 30, "characterization": 10}


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    names = spans.per_layer_metrics(spans.Tracer(), {})
    assert [m["name"] for m in spec["per_layer"]] == list(names)
    assert all(m["unit"] == spans.unit_of(m["name"]) for m in spec["per_layer"])


# --- the command ----------------------------------------------------------


def test_smoke_runs_every_workload_both_ways():
    proc = run_bench(["--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0
    for name in workloads.WORKLOADS:
        assert f"{name} ops_per_s = " in proc.stdout
        assert f"{name} bench.self_ms = " in proc.stdout


def test_wrong_answer_fails_the_command(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    init = tmp_path / "src" / "cyclic_chroma" / "__init__.py"
    init.write_text(
        init.read_text()
        + "\n_real_theta_by_search = theta_by_search\n\n"
        "def theta_by_search(n, mode=CYCLIC):\n"
        "    found = _real_theta_by_search(n, mode)\n"
        "    return ThetaSet(n, found.members[:-1], found.provenance)\n"
    )
    proc = run_bench(["--workload", "search", "--seed", "1", "--ops", "4"], cwd=tmp_path)
    assert proc.returncode == 1
    result = last_json(proc.stdout)
    assert result["correct"] is False
    assert result["attempted"] == 4 * MIN_ROUNDS
    assert result["failed"] >= 1
    assert "theta_by_search" in proc.stdout


def test_refuses_when_search_bound_is_overridden():
    env = dict(os.environ, CYCLIC_CHROMA_MAX_N="20")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "CYCLIC_CHROMA_MAX_N" in proc.stderr


def test_refuses_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "witness", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
