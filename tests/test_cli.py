import importlib.metadata
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from cli_runner import CliRunner
from recolor import recolor

from cyclic_chroma import MATERIALIZE_CAP, cli, oracle, verifier
from cyclic_chroma.cli import _require_printable, main

GOLDEN = Path(__file__).parent / "data" / "table8.csv"
DECOMPOSE_GOLDEN = Path(__file__).parent / "data" / "decompose"
CHECK_GOLDEN = Path(__file__).parent / "data" / "check"
PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"
SRC = Path(__file__).parents[1] / "src"


@pytest.fixture
def runner():
    return CliRunner()


class TestTheta:
    def test_cyclic_line(self, runner):
        result = runner.invoke(main, ["theta", "6"])
        assert result.exit_code == 0
        assert result.output == "Θ(C(6)) = {2,3,4,6}  w_cyc=2 W_cyc=6\n"

    def test_interval_mode(self, runner):
        result = runner.invoke(main, ["theta", "6", "--mode", "interval"])
        assert result.exit_code == 0
        assert "{2,3,4}" in result.output

    def test_interval_empty_for_odd(self, runner):
        result = runner.invoke(main, ["theta", "5", "--mode", "interval"])
        assert result.exit_code == 0
        assert result.output == "θ(C(5)) = {}\n"

    def test_too_small(self, runner):
        result = runner.invoke(main, ["theta", "2"])
        assert result.exit_code == 2

    def test_json(self, runner):
        result = runner.invoke(main, ["theta", "6", "--json"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data == {
            "n": 6,
            "mode": "cyclic",
            "members": [2, 3, 4, 6],
            "provenance": "formula",
            "w": 2,
            "W": 6,
        }


class TestMake:
    def test_witness_record(self, runner):
        result = runner.invoke(main, ["make", "5", "3"])
        assert result.exit_code == 0
        assert result.output == '{"n":5,"t":3,"colors":[1,2,1,2,3]}\n'

    def test_tent_witness(self, runner):
        result = runner.invoke(main, ["make", "6", "3"])
        assert result.exit_code == 0
        assert json.loads(result.output) == {"n": 6, "t": 3, "colors": [1, 2, 3, 2, 1, 2]}

    def test_infeasible(self, runner):
        result = runner.invoke(main, ["make", "6", "5"])
        assert result.exit_code == 1
        assert "infeasible: t=5 in forbidden set {5} of C(6)" in result.output

    def test_infeasible_json(self, runner):
        result = runner.invoke(main, ["make", "6", "5", "--json"])
        assert result.exit_code == 1
        data = json.loads(result.output)
        assert data["feasible"] is False
        assert data["reason"] == "forbidden"

    def test_bad_n(self, runner):
        result = runner.invoke(main, ["make", "2", "2"])
        assert result.exit_code == 2

    def test_witness_above_cap_refused(self, runner):
        result = runner.invoke(main, ["make", str(MATERIALIZE_CAP + 1), "3"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: refusing to materialize a witness")


class TestCheck:
    def test_valid_from_stdin(self, runner):
        result = runner.invoke(
            main, ["check"], input='{"n":4,"t":3,"colors":[1,2,1,3]}'
        )
        assert result.exit_code == 0
        assert "valid (cyclic): yes" in result.output

    def test_invalid(self, runner):
        result = runner.invoke(
            main, ["check"], input='{"n":4,"t":4,"colors":[1,3,2,4]}'
        )
        assert result.exit_code == 1
        assert "v2" in result.output

    def test_missing_colors_line(self, runner):
        result = runner.invoke(main, ["check"], input='{"n":4,"t":4,"colors":[1,2,1,2]}')
        assert result.exit_code == 1
        assert result.stdout == (
            "proper: yes\nsurjective: no\nmissing colors: {3,4}\nvalid (cyclic): no\n"
        )

    @pytest.mark.parametrize(
        "record, message",
        [
            ('{"n":3,"t":3,"colors":"123"}', "'colors' must be an array of integers"),
            ('{"n":"3","t":3,"colors":5}', "'n' must be an integer, got '3'"),
        ],
    )
    def test_colors_not_an_array(self, runner, record, message):
        result = runner.invoke(main, ["check"], input=record)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"error: bad coloring record: {message}\n"

    def test_length_mismatch_is_parse_error(self, runner):
        result = runner.invoke(main, ["check"], input='{"n":4,"t":3,"colors":[1,2,1]}')
        assert result.exit_code == 2
        assert "bad coloring record" in result.stderr

    def test_unknown_field_is_parse_error(self, runner):
        result = runner.invoke(
            main, ["check"], input='{"n":4,"t":3,"colors":[1,2,1,3],"note":"x"}'
        )
        assert result.exit_code == 2

    def test_malformed_json(self, runner):
        result = runner.invoke(main, ["check"], input="{nope")
        assert result.exit_code == 2
        assert "not valid JSON" in result.stderr

    def test_deeply_nested_json(self, runner):
        result = runner.invoke(main, ["check"], input="[" * 100_000 + "]" * 100_000)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: input is not valid JSON: ")
        assert result.stderr.count("\n") == 1

    def test_int_literal_past_the_digit_limit(self, runner):
        record = '{"n":4,"t":3,"colors":[1,2,1,' + "3" * 5000 + "]}"
        result = runner.invoke(main, ["check"], input=record)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1

    def test_more_colors_than_edges_refused(self, runner):
        # t is compared with n, not enumerated, whatever its size
        result = runner.invoke(
            main,
            ["check", "--json"],
            input='{"n":3,"t":1000000000000000000,"colors":[1,2,3]}',
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            "error: bad coloring record: color count must lie in [1, 3], "
            "got t=1000000000000000000\n"
        )

    @pytest.mark.parametrize("command", ["check", "decompose"])
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_undecodable_input(self, runner, tmp_path, source, command):
        undecodable = b"\xff\xfe{}"
        if source == "stdin":
            result = runner.invoke(main, [command], input=undecodable)
        else:
            path = tmp_path / "coloring.json"
            path.write_bytes(undecodable)
            result = runner.invoke(main, [command, str(path)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: cannot read input: 'utf-8' codec")

    def test_file_input(self, runner, tmp_path):
        path = tmp_path / "coloring.json"
        path.write_text('{"n":5,"t":3,"colors":[1,2,1,2,3]}')
        result = runner.invoke(main, ["check", str(path)])
        assert result.exit_code == 0

    def test_missing_file(self, runner, tmp_path):
        result = runner.invoke(main, ["check", str(tmp_path / "none.json")])
        assert result.exit_code == 2

    def test_interval_mode(self, runner):
        result = runner.invoke(
            main, ["check", "--mode", "interval"], input='{"n":4,"t":4,"colors":[1,2,3,4]}'
        )
        assert result.exit_code == 1
        assert "not-interval" in result.output

    def test_json_report(self, runner):
        result = runner.invoke(
            main, ["check", "--json"], input='{"n":4,"t":4,"colors":[1,3,2,4]}'
        )
        assert result.exit_code == 1
        data = json.loads(result.output)
        assert set(data) == {"proper", "surjective", "valid", "violations", "missing_colors"}
        assert data["valid"] is False
        assert data["violations"][0]["vertex"] == 2

    def test_round_trip_with_make(self, runner):
        made = runner.invoke(main, ["make", "8", "5"])
        assert made.exit_code == 0
        checked = runner.invoke(main, ["check", "--mode", "cyclic"], input=made.output)
        assert checked.exit_code == 0


class TestOracle:
    def test_assert_theorem(self, runner):
        result = runner.invoke(main, ["oracle", "6", "--assert-theorem"])
        assert result.exit_code == 0
        assert "theorem agreement: ok" in result.output

    def test_counts(self, runner):
        result = runner.invoke(main, ["oracle", "4", "--count"])
        assert result.exit_code == 0
        assert "t=3 yes count=12" in result.output
        assert "t=4 yes count=8" in result.output

    def test_count_keeps_exists_from_the_search(self, runner, monkeypatch):
        # the count is a formula; exists stays a search, so --assert-theorem
        # holds the theorem to an exhaustive search with --count too
        searched = []

        def searching(n, t, mode):
            searched.append(t)
            return oracle.exists_search(n, t, mode)

        monkeypatch.setattr(cli, "exists_search", searching)
        result = runner.invoke(
            main, ["oracle", "6", "--count", "--assert-theorem", "--json"]
        )
        assert result.exit_code == 0
        assert searched == [1, 2, 3, 4, 5, 6]
        rows = json.loads(result.output)["rows"]
        assert [r["exists"] for r in rows] == [r["count"] > 0 for r in rows]

    @pytest.mark.skipif(
        not sys.get_int_max_str_digits(),
        reason="this interpreter converts ints of any length",
    )
    @pytest.mark.parametrize("extra", [[], ["--json"]])
    def test_count_past_the_digit_limit_refused(self, runner, extra):
        # the count has ≈4,500 digits: found at once, never printed
        result = runner.invoke(
            main,
            ["oracle", "15000", "--tmin", "4", "--tmax", "4", "--count", *extra],
            env={"CYCLIC_CHROMA_MAX_N": "20000"},
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            f"error: the count for t=4 has more than the "
            f"{sys.get_int_max_str_digits()} digits this interpreter converts\n"
        )

    def test_printable_up_to_the_digit_limit(self, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 40)
        _require_printable(10**40 - 1, "x")
        _require_printable(2**120, "x")  # more than 3 * 40 bits, 37 digits
        with pytest.raises(ValueError, match="^x has more than the 40 digits"):
            _require_printable(10**40, "x")

    def test_bound_exceeded(self, runner):
        result = runner.invoke(main, ["oracle", "20"])
        assert result.exit_code == 2

    def test_env_bound(self, runner):
        result = runner.invoke(
            main, ["oracle", "12"], env={"CYCLIC_CHROMA_MAX_N": "10"}
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("extra", [[], ["--count"]])
    def test_malformed_env_bound_refused(self, runner, extra):
        result = runner.invoke(
            main, ["oracle", "5", *extra], env={"CYCLIC_CHROMA_MAX_N": "abc"}
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            "error: CYCLIC_CHROMA_MAX_N must be an unsigned integer without "
            "leading zeros, got 'abc'\n"
        )
        assert result.exception is None or isinstance(result.exception, SystemExit)

    def test_env_bound_at_the_ceiling(self, runner):
        result = runner.invoke(
            main,
            ["oracle", "500", "--tmin", "2", "--tmax", "2", "--count"],
            env={"CYCLIC_CHROMA_MAX_N": "500"},
        )
        assert result.exit_code == 0
        assert result.output == "t=2 yes count=2\n"

    def test_env_bound_above_the_ceiling_refused(self, runner):
        # the walk holds O(n) state, capped at MATERIALIZE_CAP like the rest
        result = runner.invoke(
            main,
            ["oracle", "5", "--tmin", "2", "--tmax", "2"],
            env={"CYCLIC_CHROMA_MAX_N": str(MATERIALIZE_CAP + 1)},
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            "error: CYCLIC_CHROMA_MAX_N must be at most 1000000, got 1000001\n"
        )

    def test_walk_deeper_than_the_recursion_limit(self, runner):
        result = runner.invoke(
            main,
            ["oracle", "5000", "--tmin", "2", "--tmax", "2", "--count"],
            env={"CYCLIC_CHROMA_MAX_N": "5000"},
        )
        assert result.exit_code == 0
        assert result.output == "t=2 yes count=2\n"

    def test_interval_set_above_cap_refused(self, runner):
        # no mode materializes anything: the search bound refuses n first
        for mode in ("cyclic", "interval"):
            result = runner.invoke(
                main,
                ["oracle", str(MATERIALIZE_CAP + 1), "--mode", mode],
                env={"CYCLIC_CHROMA_MAX_N": None},
            )
            assert result.exit_code == 2, mode
            assert result.stdout == ""
            assert result.stderr == (
                "error: n=1000001 exceeds the search bound 14 "
                "(set CYCLIC_CHROMA_MAX_N to raise it)\n"
            ), mode

    def test_interval_mode_builds_no_members_tuple(self, runner):
        argv = ["oracle", str(MATERIALIZE_CAP), "--mode", "interval"]
        runner.invoke(main, argv)  # warm up: imports and caches of its own
        tracemalloc.start()
        try:
            result = runner.invoke(main, argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.exit_code == 2
        assert result.stderr.startswith(
            f"error: n={MATERIALIZE_CAP} exceeds the search bound"
        )
        assert peak < 2**20

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_small_n_refused_like_the_library(self, runner, n):
        result = runner.invoke(main, ["oracle", str(n)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"error: cycle size must be >= 3, got {n}\n"

    def test_trange_validation(self, runner):
        result = runner.invoke(main, ["oracle", "6", "--tmin", "4", "--tmax", "2"])
        assert result.exit_code == 2
        result = runner.invoke(main, ["oracle", "6", "--tmax", "7"])
        assert result.exit_code == 2

    def test_trange_subset(self, runner):
        result = runner.invoke(main, ["oracle", "6", "--tmin", "2", "--tmax", "3"])
        assert result.exit_code == 0
        assert result.output == "t=2 yes\nt=3 yes\n"

    def test_interval_mode_with_theorem(self, runner):
        result = runner.invoke(
            main, ["oracle", "8", "--mode", "interval", "--assert-theorem"]
        )
        assert result.exit_code == 0

    def test_json(self, runner):
        result = runner.invoke(main, ["oracle", "5", "--assert-theorem", "--json"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["agree"] is True
        assert {r["t"]: r["exists"] for r in data["rows"]} == {
            1: False, 2: False, 3: True, 4: False, 5: True,
        }

    @pytest.mark.parametrize(
        "argv, agree, exists",
        [
            (["999", "--mode", "interval", "--assert-theorem"], True, False),
            (["999", "--tmin", "4", "--tmax", "4"], None, False),
        ],
    )
    def test_odd_n_on_bipartite_color_graph_answers_at_once(self, argv, agree, exists):
        # every step of P_t, and of C_t for even t, flips the color's parity,
        # so an odd cycle has no coloring and the search stops before its
        # tree; a real process with a timeout, so a search that walks the
        # tree fails the test instead of hanging it
        proc = subprocess.run(
            [sys.executable, "-m", "cyclic_chroma.cli", "oracle", *argv, "--json"],
            env=dict(os.environ, PYTHONPATH=str(SRC), CYCLIC_CHROMA_MAX_N="1000"),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert data.get("agree") is agree
        assert {r["exists"] for r in data["rows"]} == {exists}
        if agree is None:  # the one row, byte for byte
            assert proc.stdout == '{"n":999,"mode":"cyclic","rows":[{"t":4,"exists":false}]}\n'


class TestTable:
    def test_golden_csv(self, runner):
        result = runner.invoke(
            main, ["table", "8", "--oracle-upto", "8", "--format", "csv"]
        )
        assert result.exit_code == 0
        assert result.output == GOLDEN.read_text(encoding="utf-8")

    def test_csv_deterministic(self, runner):
        args = ["table", "8", "--oracle-upto", "8", "--format", "csv"]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output

    def test_markdown_row(self, runner):
        result = runner.invoke(main, ["table", "5", "--format", "markdown"])
        assert result.exit_code == 0
        assert "5 | 3 | {3,5} | {4}" in result.output

    def test_oracle_columns_blank_above_cutoff(self, runner):
        result = runner.invoke(
            main, ["table", "6", "--oracle-upto", "4", "--format", "csv"]
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[1] == "3,3,3,,3,true"
        assert lines[4].endswith(",,")

    def test_too_small(self, runner):
        # the size refusal theta, make and oracle give
        result = runner.invoke(main, ["table", "2"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "error: cycle size must be >= 3, got 2\n"

    def test_oracle_above_the_search_bound_refused(self, runner):
        argv = ["table", "16", "--oracle-upto", "16"]
        result = runner.invoke(main, argv, env={"CYCLIC_CHROMA_MAX_N": None})
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            "error: n=15 exceeds the search bound 14 "
            "(set CYCLIC_CHROMA_MAX_N to raise it)\n"
        )

    def test_above_cap_refused(self, runner):
        result = runner.invoke(main, ["table", str(cli.TABLE_CAP + 1)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            f"error: refusing to build a table for NMAX={cli.TABLE_CAP + 1} "
            f"(cap {cli.TABLE_CAP})\n"
        )

    def test_above_cap_builds_no_row(self, runner, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "theta_cyclic", lambda n: calls.append(n))
        result = runner.invoke(main, ["table", str(10**30), "--json"])
        assert result.exit_code == 2
        assert calls == []

    def test_cap_accepted(self, runner):
        result = runner.invoke(main, ["table", str(cli.TABLE_CAP)])
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert len(lines) == cli.TABLE_CAP - 1
        assert lines[-1].startswith(f"{cli.TABLE_CAP},2,")

    def test_json(self, runner):
        result = runner.invoke(main, ["table", "4", "--json"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["rows"][0] == {"n": 3, "chi": 3, "theta": [3], "forbidden": []}


class TestDecompose:
    def test_case_b(self, runner):
        result = runner.invoke(
            main, ["decompose"], input='{"n":7,"t":5,"colors":[1,2,1,2,3,4,5]}'
        )
        assert result.exit_code == 0
        assert "m=2, Σψ=11=7+4 ✓" in result.output

    def test_case_a_empty_interior(self, runner):
        result = runner.invoke(
            main, ["decompose"], input='{"n":6,"t":2,"colors":[1,2,1,2,1,2]}'
        )
        assert result.exit_code == 0
        assert "case A: H₀ connected (U empty)" in result.output

    def test_case_a_single_run(self, runner):
        result = runner.invoke(
            main, ["decompose"], input='{"n":4,"t":4,"colors":[1,2,3,4]}'
        )
        assert result.exit_code == 0
        assert "case A" in result.output

    def test_invalid_coloring(self, runner):
        result = runner.invoke(
            main, ["decompose"], input='{"n":4,"t":4,"colors":[1,3,2,4]}'
        )
        assert result.exit_code == 1
        assert result.output == (
            "not a valid cyclic-mode coloring:\n"
            "violation: v2 palette (1,3) not-cyclic-interval\n"
            "violation: v4 palette (2,4) not-cyclic-interval\n"
        )

    def test_invalid_coloring_json(self, runner):
        result = runner.invoke(
            main, ["decompose", "--json"], input='{"n":5,"t":5,"colors":[1,1,2,3,4]}'
        )
        assert result.exit_code == 1
        assert result.output == (
            '{"proper":false,"surjective":false,"valid":false,"violations":['
            '{"vertex":1,"palette":[4,1],"reason":"not-cyclic-interval"},'
            '{"vertex":2,"palette":[1,1],"reason":"not-proper"}],'
            '"missing_colors":[5]}\n'
        )

    def test_valid_coloring_verified_once(self, runner, monkeypatch):
        # the CLI's verify reads each vertex's step once and fills the
        # coloring's memo, so the library's decompose reads none again
        reads = []

        def sub(b, a):
            reads.append(None)
            return b - a

        monkeypatch.setattr(verifier, "sub", sub)
        result = runner.invoke(
            main, ["decompose"], input='{"n":7,"t":5,"colors":[1,2,1,2,3,4,5]}'
        )
        assert result.exit_code == 0
        assert len(reads) == 7

    def test_invalid_coloring_verified_once(self, runner, monkeypatch):
        calls = []

        def counting(c, mode):
            calls.append(mode)
            return verifier.verify(c, mode)

        monkeypatch.setattr(cli, "verify", counting)
        monkeypatch.setattr(oracle, "verify", counting)
        result = runner.invoke(
            main, ["decompose"], input='{"n":4,"t":4,"colors":[1,3,2,4]}'
        )
        assert result.exit_code == 1
        assert calls == ["cyclic"]

    def test_json(self, runner):
        result = runner.invoke(
            main, ["decompose", "--json"], input='{"n":7,"t":5,"colors":[1,2,1,2,3,4,5]}'
        )
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["case"] == "B"
        assert data["m"] == 2
        assert data["psi"] == [1, 5, 2, 3]
        assert data["psi_sum"] == 11
        assert data["psi_identity_ok"] is True


@pytest.mark.parametrize(
    "case",
    # case A with U empty, case A with one run, `make 11 5` (case B, m = 4),
    # and tent(14, 5) rotated by 5 edges and shifted by 3 colors (m = 5)
    ["make-6-2", "make-7-7", "make-11-5", "tent-14-5-rotated"],
)
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_decompose_golden(runner, case, as_json):
    # tests/data/decompose holds the exact bytes of each report;
    # tests/test_processes.py compares the same files with the output of
    # real processes
    if case.startswith("make-"):
        made = runner.invoke(main, case.split("-"))
        assert made.exit_code == 0
        record = made.stdout
    else:
        record = (DECOMPOSE_GOLDEN / f"{case}.record").read_text("utf-8")
    argv = ["decompose", "--json"] if as_json else ["decompose"]
    result = runner.invoke(main, argv, input=record)
    assert result.exit_code == 0
    assert result.stderr == ""
    golden = DECOMPOSE_GOLDEN / f"{case}.{'json' if as_json else 'txt'}"
    assert result.stdout.encode("utf-8") == golden.read_bytes()


# (n, t, edge, color) of each golden check report: the only edge of color 3
# in a zigzag's ascent; the edges either side of vertex 4097, the first
# vertex of a block of 1,024, 2,048 or 4,096 vertices; and the only edge of
# color t in a tent longer than such a block.  The first and last leave a
# color missing.
CHECK_CASES = [
    (11, 5, 9, 1),
    (5000, 3, 4096, 1),
    (5000, 4, 4097, 4),
    (12000, 2001, 2001, 1),
]


def case_name(n: int, t: int, edge: int, color: int) -> str:
    return f"make-{n}-{t}-edge{edge}-color{color}"


@pytest.mark.parametrize(
    "case", CHECK_CASES, ids=[case_name(*c) for c in CHECK_CASES]
)
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_check_golden(runner, case, as_json):
    # tests/data/check holds the exact bytes of check's report on `make N T`
    # with one edge recolored; tests/test_processes.py compares the same
    # files with the output of real processes
    n, t, edge, color = case
    made = runner.invoke(main, ["make", str(n), str(t)])
    assert made.exit_code == 0
    argv = ["check", "--json"] if as_json else ["check"]
    result = runner.invoke(main, argv, input=recolor(made.stdout, edge, color))
    assert result.exit_code == 1
    assert result.stderr == ""
    golden = CHECK_GOLDEN / f"{case_name(*case)}.{'json' if as_json else 'txt'}"
    assert result.stdout.encode("utf-8") == golden.read_bytes()


def test_check_goldens_are_the_listed_cases():
    # tests/test_processes.py reads its cases from the golden file names
    names = {p.name for p in CHECK_GOLDEN.iterdir()}
    listed = {case_name(*c) + ext for c in CHECK_CASES for ext in (".txt", ".json")}
    assert names == listed


@pytest.mark.parametrize("argv", [["theta", "2"], ["make", "2", "2"], ["oracle", "2"]])
def test_cycle_too_small_refused_by_the_library(runner, argv):
    result = runner.invoke(main, argv)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == "error: cycle size must be >= 3, got 2\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["theta", "6", "--js"],  # no abbreviated options
        ["oracle", "6", "--tmin", "4", "--tmax", "2"],
        ["theta", "6", "--mode", "bogus"],
        ["theta", "-6"],
        ["theta", "6", "7"],
        ["theta"],
        ["bogus"],
        [],
    ],
    ids=lambda argv: " ".join(argv) or "no command",
)
def test_usage_errors(runner, argv):
    result = runner.invoke(main, argv)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("usage: cyclic-chroma")
    assert "Traceback" not in result.stderr


def test_main_gives_each_stream_its_encoding_back(monkeypatch):
    # main writes UTF-8 to an ASCII stream, then leaves it ASCII, with its
    # error handler, whether it returns or exits
    out = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    err = io.TextIOWrapper(io.BytesIO(), encoding="ascii", errors="backslashreplace")
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    assert main(["theta", "6"]) == 0
    with pytest.raises(SystemExit):
        main(["theta"])
    assert (out.encoding, out.errors) == ("ascii", "strict")
    assert (err.encoding, err.errors) == ("ascii", "backslashreplace")
    assert out.buffer.getvalue() == "Θ(C(6)) = {2,3,4,6}  w_cyc=2 W_cyc=6\n".encode()
    assert err.buffer.getvalue().startswith(b"usage: cyclic-chroma theta")


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_1_without_a_traceback(unbuffered):
    # the reader left before the first write, as `head` does after its
    # lines; buffered output meets the closed pipe when it is flushed
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cyclic_chroma.cli", "theta", "6"],
            env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED=unbuffered),
            stdout=write, stderr=subprocess.PIPE, timeout=60,
        )
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr == b""


class TestNumericParsing:
    @pytest.mark.parametrize("bad", ["06", "+6", "-6", "6.0", "0x6", ""])
    def test_rejects_decorated_integers(self, runner, bad):
        result = runner.invoke(main, ["theta", bad])
        assert result.exit_code == 2

    def test_digits_past_the_int_limit_refused(self, runner):
        result = runner.invoke(main, ["theta", "1" * 5000])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1

    def test_digit_limit_refusal_names_the_argument(self, runner):
        result = runner.invoke(main, ["theta", "1" * 5000])
        assert result.exit_code == 2
        assert "N has 5000 digits" in result.stderr
        assert "sys." not in result.stderr

    def test_plain_zero_parses_but_fails_range(self, runner):
        result = runner.invoke(main, ["theta", "0"])
        assert result.exit_code == 2


class TestVersion:
    def test_matches_pyproject(self, runner, monkeypatch):
        def no_lookup(name):
            raise AssertionError(f"looked up the version of {name!r}")

        monkeypatch.setattr(importlib.metadata, "version", no_lookup)
        declared = re.search(r'^version = "([^"]+)"$', PYPROJECT.read_text(), re.M)
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert result.output == f"cyclic-chroma, version {declared.group(1)}\n"
