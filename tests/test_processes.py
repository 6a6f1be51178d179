"""The CLI as a real process: ``python -m cyclic_chroma.cli`` with its own
argv, stdin, environment and exit code.

Every check compares with fixed bytes, digests or counts, never with the
library: the goldens in ``tests/data``, refusal texts, sha256 digests of the
largest feasible sets, witnesses at the materialization cap, and searches
and counts under a raised ``CYCLIC_CHROMA_MAX_N``.  A command that reads
another's output gets it as its stdin bytes, as a shell pipe would pass it.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from recolor import recolor
from walk_count import walk_counts

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parents[1] / "src"


def run(*argv, stdin=b"", env=None, timeout=60):
    """Run the CLI with argv and stdin bytes; env entries override the
    inherited environment.  Returns (exit code, stdout bytes, stderr bytes)."""
    proc = subprocess.run(
        [sys.executable, "-m", "cyclic_chroma.cli", *map(str, argv)],
        input=stdin, capture_output=True, timeout=timeout,
        env=dict(os.environ, PYTHONPATH=str(SRC), **(env or {})),
    )
    return proc.returncode, proc.stdout, proc.stderr


def made(n, t):
    """The record `make N T` prints, which exits 0."""
    code, out, err = run("make", n, t)
    assert code == 0, err
    return out


def test_golden_table():
    code, out, _ = run("table", 8, "--oracle-upto", 8, "--format", "csv")
    assert (code, out) == (0, (DATA / "table8.csv").read_bytes())


# two case-A colorings, make 11 5 (case B) and a rotated, color-shifted
# tent with m = 5, text and JSON
@pytest.mark.parametrize("name", ["make-6-2", "make-7-7", "make-11-5", "tent-14-5-rotated"])
def test_golden_decompose_reports(name):
    golden = DATA / "decompose" / name
    if name.startswith("make-"):
        record = made(*name.split("-")[1:])
    else:
        record = golden.with_suffix(".record").read_bytes()
    for flag, ext in [((), ".txt"), (("--json",), ".json")]:
        code, out, _ = run("decompose", *flag, stdin=record)
        assert (code, out) == (0, golden.with_suffix(ext).read_bytes()), ext


# the text is UTF-8 whatever the locale, as the goldens hold it: Θ in theta's
# line and Σψ and ✓ in decompose's last line
@pytest.mark.parametrize(
    "env",
    [{"PYTHONIOENCODING": "ascii"}, {"LC_ALL": "C", "PYTHONUTF8": "0"}],
    ids=["ascii-io", "c-locale"],
)
def test_text_is_utf8_under_any_locale(env):
    theta = "Θ(C(6)) = {2,3,4,6}  w_cyc=2 W_cyc=6\n".encode("utf-8")
    assert run("theta", 6, env=env) == (0, theta, b"")
    golden = (DATA / "decompose" / "make-11-5.txt").read_bytes()
    assert run("decompose", stdin=made(11, 5), env=env) == (0, golden, b"")


# each golden is named make-N-T-edgeE-colorC: make N T with edge E recolored
# C; check exits 1, says nothing on stderr and prints the golden's bytes
@pytest.mark.parametrize("name", sorted(p.stem for p in (DATA / "check").glob("*.txt")))
def test_golden_check_reports_on_recolored_witnesses(name):
    n, t, edge, color = re.findall(r"\d+", name)
    record = recolor(made(n, t).decode(), int(edge), int(color)).encode()
    for flag, ext in [((), ".txt"), (("--json",), ".json")]:
        got = run("check", *flag, stdin=record)
        assert got == (1, (DATA / "check" / (name + ext)).read_bytes(), b""), ext


# closed walks that wrap both ways (winding 0) or never wrap leave colors
# unused; check --json exits 1 and names them
@pytest.mark.parametrize(
    "record, missing",
    [
        ('{"n":6,"t":5,"colors":[1,5,1,5,1,5]}', "[2,3,4]"),
        ('{"n":8,"t":5,"colors":[1,5,4,5,1,2,1,2]}', "[3]"),
        ('{"n":6,"t":4,"colors":[1,2,3,2,1,2]}', "[4]"),
    ],
    ids=["6-5", "8-5", "6-4"],
)
def test_proper_colorings_that_miss_colors(record, missing):
    code, out, _ = run("check", "--json", stdin=record.encode() + b"\n")
    assert code == 1
    assert out == (
        '{"proper":true,"surjective":false,"valid":false,"violations":[],'
        f'"missing_colors":{missing}}}\n'
    ).encode()


def test_dense_violations():
    # t = 1 on C(3000): every vertex sees its color twice, so all 3,000 are
    # not proper, named once each in vertex order
    record = json.dumps({"n": 3000, "t": 1, "colors": [1] * 3000}) + "\n"
    code, out, _ = run("check", "--json", stdin=record.encode())
    assert code == 1
    d = json.loads(out)
    assert d["proper"] is False
    got = [(v["vertex"], v["reason"]) for v in d["violations"]]
    assert got == [(v, "not-proper") for v in range(1, 3001)]


def test_mixed_violations():
    # (1,2)*1500 with the edge after 1023 copied and edge 2048 set to 3: a
    # not-proper pair at the start of the second block and a not-interval
    # pair at its end and past it
    c = [1, 2] * 1500
    c[1024], c[2047] = c[1023], 3
    record = json.dumps({"n": 3000, "t": 3, "colors": c}) + "\n"
    code, out, _ = run("check", "--mode", "interval", stdin=record.encode())
    assert code == 1
    assert out == (
        b"proper: no\nsurjective: yes\n"
        b"violation: v1025 palette (2,2) not-proper\n"
        b"violation: v1026 palette (2,2) not-proper\n"
        b"violation: v2048 palette (1,3) not-interval\n"
        b"violation: v2049 palette (3,1) not-interval\n"
        b"valid (interval): no\n"
    )


@pytest.mark.parametrize(
    "argv, stdin, max_n, shows",
    [
        (["oracle", 5], b"", "abc", ""),
        (["table", 1001], b"", None, ""),
        (["table", 2], b"", None, r"^error: cycle size must be >= 3, got 2$"),
        # t is compared with n, never enumerated: no memory grows with it
        (["check"], b'{"n":3,"t":1000000000000000000,"colors":[1,2,3]}\n', None, ""),
        # the search bound is capped at MATERIALIZE_CAP = 10^6
        (["oracle", 5], b"", "1000001", ""),
        # more digits than int() converts: refused by its length, never converted
        (["oracle", 5], b"", "9" * 5000, "must be at most 1000000"),
    ],
    ids=["bad-bound", "table-1001", "table-2", "huge-t", "bound-past-cap", "bound-5000-digits"],
)
def test_refusals_exit_2_without_a_traceback(argv, stdin, max_n, shows):
    env = None if max_n is None else {"CYCLIC_CHROMA_MAX_N": max_n}
    code, _, err = run(*argv, stdin=stdin, env=env)
    assert code == 2
    assert b"Traceback" not in err
    assert re.search(shows, err.decode(), re.M), err


# N = 10^3999 + 1, 4,000 digits: its gap is the even t in [4, N - 1]
@pytest.mark.parametrize(
    "n, t, reason, message",
    [
        (8, 9, "range", "t=9 outside [2,8] for C(8)"),
        (15, 8, "forbidden", "t=8 in forbidden set {4,6,...,14} of C(15)"),
        (10**3999 + 1, 4, "forbidden",
         f"t=4 in forbidden set {{4,6,...,{10**3999}}} of C({10**3999 + 1})"),
    ],
    ids=["range", "forbidden", "forbidden-4000-digits"],
)
def test_refusal_messages_byte_for_byte(n, t, reason, message):
    # make exits 1 on an infeasible (N, T) and prints one line, text or JSON
    json_line = f'{{"n":{n},"t":{t},"feasible":false,"reason":"{reason}","message":"{message}"}}'
    for flag, want in [((), f"infeasible: {message}"), (("--json",), json_line)]:
        code, out, _ = run("make", n, t, *flag)
        assert (code, out) == (1, f"{want}\n".encode()), flag


def test_the_closed_forms_agree_with_the_search():
    # every n up to the default search bound, in both modes; the runs wait
    # on their processes, so as many run at once as there are CPUs
    argvs = [
        ("oracle", n, "--mode", mode, "--assert-theorem", "--json")
        for mode in ("cyclic", "interval")
        for n in range(3, 15)
    ]
    with ThreadPoolExecutor(os.cpu_count() or 1) as pool:
        results = list(pool.map(lambda argv: run(*argv), argvs))
    failed = [
        (argv, code, out)
        for argv, (code, out, _) in zip(argvs, results)
        if code != 0 or b'"agree":true' not in out
    ]
    assert failed == []


def test_a_deep_search():
    # the walk keeps one slot per depth, so a bound far past the interpreter's
    # recursion limit is answered; exists is searched (about 0.15 s) and the
    # count summed in closed form at its cap, n = 10^5 (about 1 s on a 2-vCPU
    # x86 VM, O(n^2) bit operations for any t)
    code, out, err = run("oracle", 100000, "--tmin", 2, "--tmax", 2, "--count",
                         env={"CYCLIC_CHROMA_MAX_N": "100000"}, timeout=30)
    assert (code, out) == (0, b"t=2 yes count=2\n"), err


@pytest.mark.parametrize("n", [100001, 1000000])
def test_a_count_past_its_cap(n):
    # refused before any search, whatever the search bound
    code, out, err = run("oracle", n, "--tmin", 3, "--tmax", 3, "--count",
                         env={"CYCLIC_CHROMA_MAX_N": "1000000"}, timeout=10)
    message = f"error: refusing to count the colorings for n={n} (cap 100000)\n"
    assert (code, out, err) == (2, b"", message.encode())


def test_a_count_past_the_search_reach():
    # the search cannot count n = 1000 with t = 3; the closed form of
    # count_colorings must equal the binomial rows of tests/walk_count.py
    code, out, err = run("oracle", 1000, "--tmin", 3, "--tmax", 3, "--count", "--json",
                         env={"CYCLIC_CHROMA_MAX_N": "1000"})
    assert code == 0, err
    assert json.loads(out)["rows"][0]["count"] == walk_counts(1000, "cyclic")[3]


# n = 10^6 is MATERIALIZE_CAP: t = 3 builds a zigzag, t = 500001 a tent
@pytest.mark.parametrize("t", [3, 500001])
def test_witnesses_at_the_cap(t):
    code, out, err = run("check", "--json", stdin=made(1000000, t))
    assert code == 0, err
    assert b'"valid":true' in out


# theta 1000000 at MATERIALIZE_CAP, the largest sets, whose members the
# closed forms build on their first read: the sha256 of the output and,
# under --json, the member count, w and W
@pytest.mark.parametrize(
    "args, digest, sizes",
    [
        ((), "53c60d5e89da5b68271d17ec920bcda835817031affb413a67b90495be37bbbe", None),
        (("--json",), "3c8fd761628bc617f51c84999ec1682f1348381e6bd16ea12a005f00a64497fb",
         [750000, 2, 1000000]),
        (("--mode", "interval"),
         "3b27aeaf5764a39a03021cafb4aa6405515eb2120ba3e4ba4d93f05bb153d646", None),
        (("--mode", "interval", "--json"),
         "70fbb8d71b35f3bab4d380b346b417a3d0adeaee73ec1bb915744ab34ee85f92",
         [500000, 2, 500001]),
    ],
    ids=["cyclic", "cyclic-json", "interval", "interval-json"],
)
def test_feasible_sets_at_the_cap(args, digest, sizes):
    code, out, err = run("theta", 1000000, *args)
    assert code == 0, err
    assert hashlib.sha256(out).hexdigest() == digest
    if sizes:
        d = json.loads(out)
        assert [len(d["members"]), d["w"], d["W"]] == sizes
