"""Command-line surface: membership, witnesses, verification, search, tables.

Exit codes are uniform across commands: 0 for success or a valid coloring,
1 for infeasible / invalid / theorem disagreement, 2 for a refusal.  Every
refusal is one ``error:`` line on standard error and exit 2: a cap, the
search bound, a malformed coloring record, a malformed CYCLIC_CHROMA_MAX_N,
or a witness count with more digits than str() converts.  Bad arguments
get click's usage error, also exit 2.
With --json every command prints a single JSON object on standard output;
diagnostics go to standard error.
"""

from __future__ import annotations

import json
import sys

import click

from . import __version__
from .characterization import (
    chi_prime,
    forbidden_set,
    theta_cyclic,
    theta_interval,
)
from .constructor import Infeasible, construct
from .model import CycleColoring, _check_n
from .oracle import (
    _PLAIN_INT,
    SearchBoundExceeded,
    _decompose_verified,
    count_colorings,
    exists_search,
    theta_by_search,
)
from .verifier import CYCLIC, INTERVAL, verify


def _int_digit_limit() -> int:
    """The most digits int() and str() convert; 0 for no limit.

    The limit exists from Python 3.10.7 on.
    """
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _require_printable(value: int, label: str) -> None:
    """Refuse an int that str() and json.dumps would refuse for its length."""
    limit = _int_digit_limit()
    # 10**limit > 2**(3 * limit): a shorter int needs no power of ten built
    if limit and value.bit_length() > 3 * limit and value >= 10**limit:
        raise ValueError(
            f"{label} has more than the {limit} digits this interpreter converts"
        )


class PlainIntType(click.ParamType):
    """Unsigned decimal integers; signs and leading zeros are rejected."""

    name = "integer"

    def convert(self, value, param, ctx):
        if isinstance(value, int):
            return value
        if not _PLAIN_INT.fullmatch(str(value)):
            self.fail(
                f"{value!r} is not an unsigned integer without leading zeros",
                param,
                ctx,
            )
        limit = _int_digit_limit()
        if limit and len(value) > limit:
            raise ValueError(
                f"{param.human_readable_name} has {len(value)} digits, "
                f"more than the {limit} this interpreter converts"
            )
        return int(value)


PLAIN_INT = PlainIntType()
_MODE_CHOICE = click.Choice([CYCLIC, INTERVAL])

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


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise click.UsageError(message)


def _read_coloring(src: str | None) -> CycleColoring:
    """Read a coloring record from a file path, '-', or standard input."""
    try:
        if src is None or src == "-":
            text = click.get_text_stream("stdin").read()
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
        click.echo(
            f"violation: v{v.vertex} palette ({v.palette[0]},{v.palette[1]}) {v.reason}"
        )
    if report.missing_colors:
        click.echo(f"missing colors: {_braced(sorted(report.missing_colors))}")


class _RefusingGroup(click.Group):
    """Reports a library refusal as one ``error:`` line and exit 2."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (ValueError, SearchBoundExceeded) as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(2)


@click.group(cls=_RefusingGroup)
@click.version_option(__version__, prog_name="cyclic-chroma")
def main() -> None:
    """Interval-like edge colorings of simple cycles: closed formulas,
    canonical witnesses, verification, and an exhaustive-search oracle."""


@main.command()
@click.argument("n", type=PLAIN_INT)
@click.option(
    "--mode",
    type=_MODE_CHOICE,
    default=CYCLIC,
    show_default=True,
    help="Palette rule: plain interval, or interval on the color circle.",
)
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON object.")
def theta(n: int, mode: str, as_json: bool) -> None:
    """Print every feasible color count for the N-edge cycle."""
    ts = theta_cyclic(n) if mode == CYCLIC else theta_interval(n)
    if as_json:
        obj: dict = {
            "n": n,
            "mode": mode,
            "members": list(ts.members),
            "provenance": ts.provenance,
        }
        if ts.members:
            obj["w"] = ts.members[0]
            obj["W"] = ts.members[-1]
        click.echo(_dumps(obj))
        return
    label, tag = ("Θ", "cyc") if mode == CYCLIC else ("θ", "int")
    line = f"{label}(C({n})) = {_braced(ts.members)}"
    if ts.members:
        line += f"  w_{tag}={ts.members[0]} W_{tag}={ts.members[-1]}"
    click.echo(line)


@main.command()
@click.argument("n", type=PLAIN_INT)
@click.argument("t", type=PLAIN_INT)
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON object.")
def make(n: int, t: int, as_json: bool) -> None:
    """Emit the canonical witness coloring for (N, T), or why none exists."""
    try:
        coloring = construct(n, t)
    except Infeasible as exc:
        if as_json:
            click.echo(
                _dumps(
                    {
                        "n": n,
                        "t": t,
                        "feasible": False,
                        "reason": exc.reason,
                        "message": exc.message,
                    }
                )
            )
        else:
            click.echo(f"infeasible: {exc.message}")
        sys.exit(1)
    click.echo(_dumps(coloring.to_record()))


@main.command()
@click.argument("src", required=False, metavar="[INPUT]")
@click.option("--mode", type=_MODE_CHOICE, default=CYCLIC, show_default=True)
@click.option("--json", "as_json", is_flag=True, help="Emit the report as JSON.")
def check(src: str | None, mode: str, as_json: bool) -> None:
    """Verify a coloring record (file path, '-', or stdin)."""
    coloring = _read_coloring(src)
    report = verify(coloring, mode)
    if as_json:
        click.echo(_dumps(report.to_json_dict()))
    else:
        click.echo(f"proper: {_yn(report.proper)}")
        click.echo(f"surjective: {_yn(report.surjective)}")
        _echo_violations(report)
        click.echo(f"valid ({mode}): {_yn(report.mode_satisfied)}")
    sys.exit(0 if report.mode_satisfied else 1)


@main.command()
@click.argument("n", type=PLAIN_INT)
@click.option("--tmin", type=PLAIN_INT, default=1, show_default=True)
@click.option("--tmax", type=PLAIN_INT, default=None, help="Defaults to N.")
@click.option("--mode", type=_MODE_CHOICE, default=CYCLIC, show_default=True)
@click.option(
    "--count", "with_count", is_flag=True, help="Also count all witnesses, by formula."
)
@click.option(
    "--assert-theorem",
    "check_formula",
    is_flag=True,
    help="Compare search verdicts with the closed formula; exit 1 on mismatch.",
)
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON object.")
def oracle(
    n: int,
    tmin: int,
    tmax: int | None,
    mode: str,
    with_count: bool,
    check_formula: bool,
    as_json: bool,
) -> None:
    """Exhaustively decide feasibility for each T in [TMIN, TMAX]."""
    _check_n(n)
    if tmax is None:
        tmax = n
    _require(1 <= tmin <= tmax <= n, "need 1 <= tmin <= tmax <= N")
    rows: list[dict] = []
    for t in range(tmin, tmax + 1):
        # exists by search even with --count, whose count is a formula, so
        # --assert-theorem always holds the theorem to an exhaustive search
        row: dict = {"t": t, "exists": exists_search(n, t, mode)}
        if with_count:
            row["count"] = count = count_colorings(n, t, mode)
            _require_printable(count, f"the count for t={t}")
        rows.append(row)
    agree = None
    if check_formula:
        # after the search, so an n above the search bound is refused first
        ts = theta_cyclic(n) if mode == CYCLIC else theta_interval(n)
        for r in rows:
            r["formula"] = r["t"] in ts
        agree = all(r["exists"] == r["formula"] for r in rows)
    if as_json:
        obj: dict = {"n": n, "mode": mode, "rows": rows}
        if agree is not None:
            obj["agree"] = agree
        click.echo(_dumps(obj))
    else:
        for r in rows:
            line = f"t={r['t']} {_yn(r['exists'])}"
            if with_count:
                line += f" count={r['count']}"
            if check_formula:
                line += f" formula={_yn(r['formula'])}"
                if r["formula"] != r["exists"]:
                    line += " MISMATCH"
            click.echo(line)
        if agree is not None:
            click.echo(f"theorem agreement: {'ok' if agree else 'MISMATCH'}")
    sys.exit(0 if agree in (None, True) else 1)


@main.command()
@click.argument("nmax", type=PLAIN_INT)
@click.option(
    "--oracle-upto",
    "oracle_upto",
    type=PLAIN_INT,
    default=None,
    help="Also run the search oracle for every n up to this size.",
)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["csv", "markdown"]),
    default="csv",
    show_default=True,
)
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON object.")
def table(nmax: int, oracle_upto: int | None, fmt: str, as_json: bool) -> None:
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
        click.echo(_dumps({"nmax": nmax, "oracle_upto": oracle_upto, "rows": rows}))
        return
    members, lead, sep, end = _TABLE_STYLES[fmt]
    headers = ["n", "chi", "theta", "forbidden"]
    if with_oracle:
        headers += ["oracle", "agree"]
    grid = [headers]
    if fmt == "markdown":
        grid.append(["---"] * len(headers))
    grid += [_table_cells(row, members, with_oracle) for row in rows]
    click.echo("".join(f"{lead}{sep.join(cells)}{end}\n" for cells in grid), nl=False)


@main.command()
@click.argument("src", required=False, metavar="[INPUT]")
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON object.")
def decompose(src: str | None, as_json: bool) -> None:
    """Structure report for a valid coloring: boundary runs, gaps, size identity."""
    coloring = _read_coloring(src)
    report = verify(coloring, CYCLIC)
    if not report.mode_satisfied:
        if as_json:
            click.echo(_dumps(report.to_json_dict()))
        else:
            click.echo("not a valid cyclic-mode coloring:")
            _echo_violations(report)
        sys.exit(1)
    d = _decompose_verified(coloring)
    if as_json:
        click.echo(_dumps(d.to_json_dict()))
        return
    if d.connected:
        if d.u_size == 0:
            click.echo("case A: H₀ connected (U empty)")
        else:
            click.echo("case A: H₀ connected (m=1)")
        return
    click.echo(f"case B: m={d.m} components, rotation offset {d.rotation}")
    for s in d.components:
        click.echo(
            f"H{s.index}: zeta={s.zeta} eta={s.eta} "
            f"|H|={s.h_size} |H'|={s.h_prime_size}"
        )
    click.echo(f"y = ({','.join(str(v) for v in d.y)})")
    click.echo(f"psi = ({','.join(str(v) for v in d.psi)})")
    click.echo(f"horizontal = ({','.join(_yn(h) for h in d.horizontal)})")
    click.echo(f"M1={_braced(sorted(d.m1))} M2={_braced(sorted(d.m2))}")
    ok = d.psi_sum == d.n + 2 * d.m
    click.echo(f"m={d.m}, Σψ={d.psi_sum}={d.n}+{2 * d.m} {'✓' if ok else '✗'}")


if __name__ == "__main__":
    main()
