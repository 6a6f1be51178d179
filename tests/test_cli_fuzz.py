"""Property test of the CLI contract over drawn argv, stdin and search bound.

Every run ends with exit 0, 1 or 2 and no uncaught exception.  An exit-2
refusal is either argparse's usage error or exactly one ``error:`` line on
standard error, with nothing on standard output either way.  Runtime is
bounded by the caps the CLI enforces: CYCLIC_CHROMA_MAX_N is drawn only
malformed or at most 14, since a higher bound admits exponential searches.
"""

import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cli_runner import CliRunner

from cyclic_chroma import DEFAULT_MAX_N, MATERIALIZE_CAP, MAX_N_ENV_VAR
from cyclic_chroma.cli import TABLE_CAP, main

TESTS = Path(__file__).parent

EDGES = [DEFAULT_MAX_N, TABLE_CAP, MATERIALIZE_CAP]
sizes = st.one_of(
    st.integers(0, 16),
    st.sampled_from([*EDGES, *(e + 1 for e in EDGES), 10**18]),
).map(str)
malformed_sizes = st.sampled_from(["", "-1", "+3", "07", "3.0", "abc", "1e3", "٣"])
size_args = st.one_of(sizes, malformed_sizes)
modes = st.lists(st.sampled_from(["cyclic", "interval"]), max_size=1).map(
    lambda m: ["--mode", *m] if m else []
)
flag = st.booleans()

colors = st.one_of(
    st.integers(-2, 6),
    st.sampled_from([10**30, 2.5, 3.0, "3", True, False, None, [2], [[1]], {}]),
)
records = st.fixed_dictionaries(
    {},
    optional={
        "n": st.one_of(st.integers(0, 8), st.sampled_from([10**18, "4", 4.0, None])),
        "t": st.one_of(st.integers(0, 8), st.sampled_from([10**18, "3", True])),
        "colors": st.one_of(st.lists(colors, max_size=8), st.sampled_from([{}, "1,2"])),
        "note": st.just("x"),
    },
)
stdins = st.one_of(
    records.map(json.dumps),
    st.sampled_from(
        [
            "",
            "{nope",
            '{"n":4,"t":3,"colors":[1,2',
            "[1,2,3]",
            "null",
            '{"n":4,"t":3,"colors":[1,2,1,3]}',
            '{"n":4,"t":4,"colors":[1,3,2,4]}',
            '{"n":7,"t":5,"colors":[1,2,1,2,3,4,5]}',
            '{"n":3,"t":1000000000000000000,"colors":[1,2,3]}',
            '{"n":4,"t":3,"colors":[1,2,1,' + "9" * 5000 + "]}",
            "[" * 50_000 + "]" * 50_000,
        ]
    ),
)
record_sources = st.sampled_from(
    [
        [],
        ["-"],
        [str(TESTS / "no-such-record.json")],
        [str(TESTS)],
        [str(TESTS / "data" / "table8.csv")],
    ]
)
commands = st.sampled_from(["theta", "make", "check", "oracle", "table", "decompose"])


@st.composite
def invocations(draw):
    command = draw(commands)
    argv = [command]
    if command in ("check", "decompose"):
        argv += draw(record_sources)
    else:
        argv.append(draw(size_args))
    if command == "make":
        argv.append(draw(size_args))
    if command in ("theta", "check", "oracle"):
        argv += draw(modes)
    if command == "oracle":
        for option in ("--tmin", "--tmax"):
            if draw(flag):
                argv += [option, draw(st.integers(0, 16).map(str))]
        argv += [f for f in ("--count", "--assert-theorem") if draw(flag)]
    if command == "table":
        if draw(flag):
            argv += ["--oracle-upto", draw(size_args)]
        argv += ["--format", draw(st.sampled_from(["csv", "markdown"]))]
    if draw(flag):
        argv.append("--json")
    return argv


bounds = st.one_of(
    st.none(),
    st.integers(0, DEFAULT_MAX_N).map(str),
    st.sampled_from(["", "abc", "-1", "07", " 5", "5 ", "1e3", "14.0", "٣"]),
)


@settings(max_examples=150, deadline=None)
@given(argv=invocations(), stdin=stdins, bound=bounds)
def test_every_input_is_answered_or_refused(argv, stdin, bound):
    result = CliRunner().invoke(main, argv, input=stdin, env={MAX_N_ENV_VAR: bound})
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.exit_code in (0, 1, 2)
    if result.exit_code == 2:
        assert result.stdout == ""
        if not result.stderr.startswith("usage:"):
            assert result.stderr.startswith("error: ")
            assert result.stderr.count("\n") == 1
