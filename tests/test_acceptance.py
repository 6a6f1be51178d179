"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from cli_runner import CliRunner
from naive_oracle import count_naive
from symmetry import epsilon, rotate_edges, shift_colors

from cyclic_chroma import (
    CYCLIC,
    INTERVAL,
    CycleColoring,
    Infeasible,
    bounds_cyc,
    construct,
    contains,
    count_colorings,
    decompose,
    exists_search,
    forbidden_set,
    tent,
    theta_by_search,
    theta_cyclic,
    theta_interval,
    verify,
)
from cyclic_chroma.cli import main

GOLDEN = Path(__file__).parent / "data" / "table8.csv"


@contextmanager
def criterion(num, title, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {title}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[PASS] criterion {num}: {title} ({elapsed:.1f}s)")
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"criterion {num} took {elapsed:.1f}s"


def test_criterion_1_search_matches_formula_everywhere():
    with criterion(1, "exists_search == contains for n in [3,12], t in [1,n]", 60):
        for n in range(3, 13):
            for t in range(1, n + 1):
                assert exists_search(n, t, CYCLIC) == contains(n, t), (n, t)


def test_criterion_2_interval_feasibility_by_search():
    with criterion(2, "interval-mode search matches [2, k+1] / empty", 30):
        for k in range(2, 7):
            got = theta_by_search(2 * k, INTERVAL).members
            assert got == tuple(range(2, k + 2)), k
        for n in range(3, 12, 2):
            assert theta_by_search(n, INTERVAL).members == (), n


def test_criterion_3_constructor_sound_and_total():
    with criterion(3, "construct total and sound on n in [3,500]", 30):
        for n in range(3, 501):
            for t in range(1, n + 1):
                if contains(n, t):
                    witness = construct(n, t)
                    assert verify(witness, CYCLIC).mode_satisfied, (n, t)
                else:
                    with pytest.raises(Infeasible):
                        construct(n, t)
            if n % 2 == 0:
                for t in theta_interval(n).members:
                    assert verify(tent(n, t), INTERVAL).mode_satisfied, (n, t)


def test_criterion_4_spot_values():
    with criterion(4, "spot values for theta, forbidden set, bounds"):
        assert theta_cyclic(5).members == (3, 5)
        assert theta_cyclic(6).members == (2, 3, 4, 6)
        assert theta_cyclic(7).members == (3, 5, 7)
        assert theta_cyclic(8).members == (2, 3, 4, 5, 6, 8)
        assert forbidden_set(10) == {7, 9}
        for n in range(3, 101):
            assert bounds_cyc(n) == (3 - epsilon(n), n), n


def test_criterion_5_counts_match_naive_enumeration():
    with criterion(5, "oracle counts reproduced by naive full enumeration"):
        for (n, t), frozen in [((3, 3), 6), ((4, 3), 12), ((4, 4), 8)]:
            naive = count_naive(n, t, CYCLIC)
            assert naive == frozen, (n, t)
            assert count_colorings(n, t, CYCLIC) == frozen, (n, t)


def test_criterion_6_decomposition_identity(coloring_pool):
    with criterion(6, "psi sums to n+2m and non-horizontal edge count is even"):
        seen_multi = 0
        for (n, _t), pool in coloring_pool.items():
            if n < 4:
                continue
            for c in pool:
                d = decompose(c)
                if d.connected:
                    continue
                seen_multi += 1
                assert d.m >= 2
                assert len(d.psi) == 2 * d.m
                assert d.psi_sum == n + 2 * d.m, c.colors
                assert sum(1 for h in d.horizontal if not h) % 2 == 0, c.colors
        assert seen_multi > 100


def test_criterion_7_symmetries_preserve_validity(coloring_pool):
    with criterion(7, "1000 sampled colorings stay valid under all symmetries"):
        rng = random.Random(20260808)
        flat = [c for pool in coloring_pool.values() for c in pool]
        samples = rng.choices(flat, k=1000)
        for c in samples:
            transformed = [
                shift_colors(c, rng.randrange(c.t)),
                rotate_edges(c, rng.randrange(c.n)),
                CycleColoring(c.n, c.t, tuple(reversed(c.colors))),
                CycleColoring(c.n, c.t, tuple(c.t + 1 - x for x in c.colors)),
            ]
            for image in transformed:
                assert verify(image, CYCLIC).mode_satisfied, (c.colors, image.colors)


def test_criterion_8_cli_contract():
    with criterion(8, "make|check round trips, oracle agreement, golden table"):
        runner = CliRunner()
        rng = random.Random(1728)
        feasible = [
            (n, t)
            for n in range(3, 61)
            for t in range(1, n + 1)
            if contains(n, t)
        ]
        for n, t in rng.sample(feasible, 50):
            made = runner.invoke(main, ["make", str(n), str(t)])
            assert made.exit_code == 0, (n, t)
            checked = runner.invoke(
                main, ["check", "--mode", "cyclic"], input=made.output
            )
            assert checked.exit_code == 0, (n, t)
        for n in range(3, 13):
            result = runner.invoke(main, ["oracle", str(n), "--assert-theorem"])
            assert result.exit_code == 0, n
        result = runner.invoke(
            main, ["table", "8", "--oracle-upto", "8", "--format", "csv"]
        )
        assert result.exit_code == 0
        assert result.output == GOLDEN.read_text(encoding="utf-8")
