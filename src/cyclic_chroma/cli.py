"""Command-line surface: membership, witnesses, verification, search, tables.

Exit codes are uniform across commands: 0 for success or a valid coloring,
1 for infeasible / invalid / theorem disagreement, 2 for a refusal.  Every
refusal is one ``error:`` line on standard error and exit 2: a cap, the
search bound, a malformed coloring record, a malformed CYCLIC_CHROMA_MAX_N,
or a witness count with more digits than str() converts.  Bad arguments
get argparse's ``usage:`` and ``error:`` lines, also exit 2.
With --json every command prints a single JSON object on standard output;
diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .characterization import (
    Infeasible,
    chi_prime,
    construct,
    forbidden_set,
    theta_cyclic,
    theta_interval,
)
from .model import CycleColoring, _check_n
from .oracle import (
    _PLAIN_INT,
    SearchBoundExceeded,
    _decompose_verified,
    count_colorings,
    exists_search,
    theta_by_search,
)
from .verifier import CYCLIC, MODES, verify


def _int_digit_limit() -> int:
    """The most digits int() and str() convert; 0 for no limit (before 3.10.7)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _require_printable(value: int, label: str) -> None:
    """Refuse an int that str() and json.dumps would refuse for its length."""
    limit = _int_digit_limit()
    # 10**limit > 2**(3 * limit): a shorter int needs no power of ten built
    if limit and value.bit_length() > 3 * limit and value >= 10**limit:
        raise ValueError(
            f"{label} has more than the {limit} digits this interpreter converts"
        )


def _plain_int(name: str):
    """The argparse type of integer argument NAME: unsigned, no leading zeros.

    More digits than int() converts raise OverflowError, which argparse
    passes on to ``main``; a ValueError would become a usage error.
    """

    def convert(text: str) -> int:
        if not _PLAIN_INT.fullmatch(text):
            raise argparse.ArgumentTypeError(
                f"{text!r} is not an unsigned integer without leading zeros"
            )
        limit = _int_digit_limit()
        if limit and len(text) > limit:
            raise OverflowError(
                f"{name} has {len(text)} digits, "
                f"more than the {limit} this interpreter converts"
            )
        return int(text)

    return convert


# `table` refuses NMAX above this: its time, memory and output grow as NMAX².
TABLE_CAP = 1000


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _braced(values) -> str:
    return "{" + ",".join(str(v) for v in values) + "}"


def _semis(values) -> str:
    return ";".join(str(v) for v in values)


# `table` formats: member formatter, line start, cell separator, line end
_TABLE_STYLES = {
    "csv": (_semis, "", ",", ""),
    "markdown": (_braced, "| ", " | ", " |"),
}


def _table_cells(row: dict, members, with_oracle: bool) -> list[str]:
    cells = [str(row["n"]), str(row["chi"])]
    cells += [members(row["theta"]), members(row["forbidden"])]
    if with_oracle:
        if "oracle" in row:
            cells += [members(row["oracle"]), str(row["agree"]).lower()]
        else:
            cells += ["", ""]
    return cells


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _read_coloring(src: str | None) -> CycleColoring:
    """Read a coloring record from a file path, '-', or standard input."""
    try:
        if src is None or src == "-":
            # strict like a file: text stdin may use surrogateescape
            text = sys.stdin.buffer.read().decode("utf-8")
        else:
            with open(src, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read input: {exc}") from exc
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers an int literal past the digit limit;
        # RecursionError, arrays or objects nested too deep
        raise ValueError(f"input is not valid JSON: {exc}") from exc
    try:
        return CycleColoring.from_record(data)
    except ValueError as exc:
        raise ValueError(f"bad coloring record: {exc}") from exc


def _echo_violations(report) -> None:
    for v in report.violations:
        print(
            f"violation: v{v.vertex} palette ({v.palette[0]},{v.palette[1]}) {v.reason}"
        )
    if report.missing_colors:
        print(f"missing colors: {_braced(sorted(report.missing_colors))}")


def theta(n: int, mode: str, as_json: bool) -> int:
    """Print every feasible color count for the N-edge cycle."""
    ts = theta_cyclic(n) if mode == CYCLIC else theta_interval(n)
    members = ts.members
    if as_json:
        obj = dict(n=n, mode=mode, members=list(members), provenance=ts.provenance)
        if members:
            obj.update(w=members[0], W=members[-1])
        print(_dumps(obj))
        return 0
    label, tag = ("Θ", "cyc") if mode == CYCLIC else ("θ", "int")
    line = f"{label}(C({n})) = {_braced(members)}"
    if members:
        line += f"  w_{tag}={members[0]} W_{tag}={members[-1]}"
    print(line)
    return 0


def make(n: int, t: int, as_json: bool) -> int:
    """Emit the canonical witness coloring for (N, T), or why none exists."""
    try:
        coloring = construct(n, t)
    except Infeasible as exc:
        if as_json:
            d = dict(n=n, t=t, feasible=False, reason=exc.reason, message=exc.message)
            print(_dumps(d))
        else:
            print(f"infeasible: {exc.message}")
        return 1
    print(_dumps(coloring.to_record()))
    return 0


def check(src: str | None, mode: str, as_json: bool) -> int:
    """Verify a coloring record (file path, '-', or stdin)."""
    coloring = _read_coloring(src)
    report = verify(coloring, mode)
    if as_json:
        print(_dumps(report.to_json_dict()))
    else:
        print(f"proper: {_yn(report.proper)}")
        print(f"surjective: {_yn(report.surjective)}")
        _echo_violations(report)
        print(f"valid ({mode}): {_yn(report.mode_satisfied)}")
    return 0 if report.mode_satisfied else 1


def oracle(
    n: int,
    tmin: int,
    tmax: int | None,
    mode: str,
    count: bool,
    assert_theorem: bool,
    as_json: bool,
) -> int:
    """Exhaustively decide feasibility for each T in [TMIN, TMAX]."""
    _check_n(n)
    if tmax is None:
        tmax = n
    if not 1 <= tmin <= tmax <= n:
        raise argparse.ArgumentError(None, "need 1 <= tmin <= tmax <= N")
    rows: list[dict] = []
    for t in range(tmin, tmax + 1):
        # the count first, so an n above its cap is refused before any
        # search; exists by search even with --count, whose count is a
        # formula, so --assert-theorem always holds the theorem to a search
        if count:
            number = count_colorings(n, t, mode)
            _require_printable(number, f"the count for t={t}")
        row: dict = {"t": t, "exists": exists_search(n, t, mode)}
        if count:
            row["count"] = number
        rows.append(row)
    agree = None
    if assert_theorem:
        # after the search, so an n above the search bound is refused first
        ts = theta_cyclic(n) if mode == CYCLIC else theta_interval(n)
        for r in rows:
            r["formula"] = r["t"] in ts
        agree = all(r["exists"] == r["formula"] for r in rows)
    if as_json:
        obj: dict = {"n": n, "mode": mode, "rows": rows}
        if agree is not None:
            obj["agree"] = agree
        print(_dumps(obj))
    else:
        for r in rows:
            line = f"t={r['t']} {_yn(r['exists'])}"
            if count:
                line += f" count={r['count']}"
            if assert_theorem:
                line += f" formula={_yn(r['formula'])}"
                if r["formula"] != r["exists"]:
                    line += " MISMATCH"
            print(line)
        if agree is not None:
            print(f"theorem agreement: {'ok' if agree else 'MISMATCH'}")
    return 0 if agree in (None, True) else 1


def table(nmax: int, oracle_upto: int | None, fmt: str, as_json: bool) -> int:
    """Reference table for n in [3, NMAX]: chromatic index, feasible set, gap."""
    _check_n(nmax)
    if nmax > TABLE_CAP:
        raise ValueError(f"refusing to build a table for NMAX={nmax} (cap {TABLE_CAP})")
    with_oracle = oracle_upto is not None
    rows: list[dict] = []
    for n in range(3, nmax + 1):
        theta_formula = theta_cyclic(n).members
        row: dict = {
            "n": n,
            "chi": chi_prime(n),
            "theta": list(theta_formula),
            "forbidden": list(forbidden_set(n)),
        }
        if with_oracle and n <= oracle_upto:
            found = theta_by_search(n, CYCLIC).members
            row["oracle"] = list(found)
            row["agree"] = found == theta_formula
        rows.append(row)
    if as_json:
        print(_dumps({"nmax": nmax, "oracle_upto": oracle_upto, "rows": rows}))
        return 0
    members, lead, sep, end = _TABLE_STYLES[fmt]
    headers = ["n", "chi", "theta", "forbidden"]
    if with_oracle:
        headers += ["oracle", "agree"]
    grid = [headers]
    if fmt == "markdown":
        grid.append(["---"] * len(headers))
    grid += [_table_cells(row, members, with_oracle) for row in rows]
    print("".join(f"{lead}{sep.join(cells)}{end}\n" for cells in grid), end="")
    return 0


def decompose(src: str | None, as_json: bool) -> int:
    """Structure report for a valid coloring: boundary runs, gaps, size identity."""
    coloring = _read_coloring(src)
    report = verify(coloring, CYCLIC)
    if not report.mode_satisfied:
        if as_json:
            print(_dumps(report.to_json_dict()))
        else:
            print("not a valid cyclic-mode coloring:")
            _echo_violations(report)
        return 1
    d = _decompose_verified(coloring)
    if as_json:
        print(_dumps(d.to_json_dict()))
        return 0
    if d.connected:
        if d.u_size == 0:
            print("case A: H₀ connected (U empty)")
        else:
            print("case A: H₀ connected (m=1)")
        return 0
    print(f"case B: m={d.m} components, rotation offset {d.rotation}")
    for s in d.components:
        print(
            f"H{s.index}: zeta={s.zeta} eta={s.eta} "
            f"|H|={s.h_size} |H'|={s.h_prime_size}"
        )
    print(f"y = ({','.join(str(v) for v in d.y)})")
    print(f"psi = ({','.join(str(v) for v in d.psi)})")
    print(f"horizontal = ({','.join(_yn(h) for h in d.horizontal)})")
    print(f"M1={_braced(sorted(d.m1))} M2={_braced(sorted(d.m2))}")
    print(f"m={d.m}, Σψ={d.psi_sum}={d.n}+{2 * d.m} ✓")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Interval-like edge colorings of simple cycles: closed formulas,
    canonical witnesses, verification, and an exhaustive-search oracle."""
    parser = argparse.ArgumentParser(
        prog="cyclic-chroma", description=main.__doc__, allow_abbrev=False
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s, version {__version__}"
    )
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(run, *integers: str, src=False, mode=False) -> argparse.ArgumentParser:
        # RUN's subparser: integers by name, INPUT and --mode if asked, --json
        sub = commands.add_parser(
            run.__name__, help=run.__doc__, description=run.__doc__, allow_abbrev=False
        )
        # the subparser reports a usage error that only RUN can see
        sub.set_defaults(run=run, parser=sub)
        for name in integers:
            sub.add_argument(name.lower(), metavar=name, type=_plain_int(name))
        if src:
            sub.add_argument("src", nargs="?", metavar="INPUT")
        if mode:
            sub.add_argument(
                "--mode", choices=MODES, default=CYCLIC, help="Default: %(default)s."
            )
        sub.add_argument(
            "--json", dest="as_json", action="store_true", help="Emit a JSON object."
        )
        return sub

    command(theta, "N", mode=True)
    command(make, "N", "T")
    command(check, src=True, mode=True)
    sub = command(oracle, "N", mode=True)
    sub.add_argument("--tmin", type=_plain_int("tmin"), default=1, help="Default: 1.")
    sub.add_argument("--tmax", type=_plain_int("tmax"), help="Default: N.")
    sub.add_argument(
        "--count", action="store_true", help="Also count all witnesses, by formula."
    )
    sub.add_argument(
        "--assert-theorem",
        action="store_true",
        help="Compare search verdicts with the closed formula; exit 1 on mismatch.",
    )
    sub = command(table, "NMAX")
    sub.add_argument(
        "--oracle-upto",
        type=_plain_int("oracle_upto"),
        help="Also run the search oracle for every n up to this size.",
    )
    sub.add_argument("--format", dest="fmt", choices=["csv", "markdown"], default="csv")
    command(decompose, src=True)
    try:
        args = vars(parser.parse_args(argv))
        run, sub = args.pop("run"), args.pop("parser")
        code = run(**args)
        sys.stdout.flush()  # so that a closed pipe is met here, not at exit
        return code
    except BrokenPipeError:
        # the reader stopped early: exit 1 and write nothing more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except argparse.ArgumentError as exc:
        sub.error(str(exc))
    except (ValueError, OverflowError, SearchBoundExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
