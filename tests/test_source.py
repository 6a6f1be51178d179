import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "cyclic_chroma"
WORKFLOW = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"


def test_no_assert_statements():
    # python -O strips assert, so no library invariant may rest on one
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


TRUSTED_CALLERS = {
    ("characterization.py", "zigzag_staircase"),
    ("characterization.py", "tent"),
    ("oracle.py", "enumerate_colorings"),
}


def _references(node, name, where, out):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = node.name
    if isinstance(node, ast.Attribute) and node.attr == name:
        out.add(where)
    if isinstance(node, ast.Name) and node.id == name:
        out.add(where)
    for child in ast.iter_child_nodes(node):
        _references(child, name, where, out)


def _callers(name):
    """(file, enclosing function) of every reference to name in the package."""
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        callers = set()
        _references(ast.parse(path.read_text(), str(path)), name, "<module>", callers)
        found |= {(str(path.relative_to(SRC)), where) for where in callers}
    return found


def test_unchecked_colorings_come_from_the_known_builders():
    # CycleColoring._trusted skips every check, so only builders whose
    # output is in range by construction may call it
    assert _callers("_trusted") == TRUSTED_CALLERS


def test_only_construct_raises_infeasible():
    # Infeasible means that no coloring exists, which construct decides from
    # the theorem; a builder outside its own pattern refuses with ValueError,
    # and the CLI's make only catches the refusal
    assert _callers("Infeasible") == {
        ("characterization.py", "construct"),
        ("cli.py", "make"),
    }


def test_only_enumerate_colorings_reads_a_search_config():
    # exists_search and theta_by_search hand _walks plain values
    assert _callers("SearchConfig") == {("oracle.py", "enumerate_colorings")}


def test_only_exists_search_pins_the_first_color():
    # every valid coloring rotates to one that starts with color 1, so the
    # pin is no setting of the walk or of a config record
    assert _callers("fix_first_color") == {("oracle.py", "exists_search")}


def test_unchecked_feasible_sets_come_from_the_closed_forms():
    # ThetaSet._of_ranges checks none of its ranges, so only the closed
    # forms, whose ranges _split makes right, may call it
    assert _callers("_of_ranges") == {
        ("characterization.py", "forbidden_set"),
        ("characterization.py", "theta_cyclic"),
        ("characterization.py", "theta_interval"),
    }


def test_one_set_type():
    # every feasible or forbidden set is a ThetaSet; no second set class
    # with its own membership and comparison rules comes back
    found = [
        f"{path.relative_to(SRC)}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if "RangeSet" in line
    ]
    assert found == []


def test_records_set_fields_only_through_the_slot_setters():
    # _Record binds each slot's own __set__ as _setters; object.__setattr__,
    # or a name for it, would be a second way past the frozen __setattr__
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Name) and node.id == "_assign"
        or isinstance(node, ast.Attribute)
        and (
            node.attr == "_assign"
            or node.attr == "__setattr__"
            and isinstance(node.value, ast.Name)
            and node.value.id == "object"
        )
    ]
    assert found == []


LIBRARY_MODULES = ("model", "characterization", "verifier", "oracle")


def _top_level_definitions(path):
    names = set()
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_each_public_name_is_listed_once_in_its_own_module():
    # the package exports exactly the modules' lists, so a name is public
    # only where it is defined
    import cyclic_chroma

    lists = [
        importlib.import_module(f"cyclic_chroma.{name}").__all__
        for name in LIBRARY_MODULES
    ]
    for name, public in zip(LIBRARY_MODULES, lists):
        assert set(public) <= _top_level_definitions(SRC / f"{name}.py"), name
    listed = [n for public in lists for n in public]
    assert len(listed) == len(set(listed))
    assert cyclic_chroma.__all__ == listed


# the public surface, pinned so that adding or removing a name is a
# deliberate edit here
PUBLIC_NAMES = [
    "CycleColoring",
    "MATERIALIZE_CAP", "ThetaSet", "chi_prime", "forbidden_set", "theta_cyclic",
    "theta_interval", "contains", "bounds_cyc", "REASON_RANGE", "REASON_FORBIDDEN",
    "Infeasible", "zigzag_staircase", "tent", "construct",
    "INTERVAL", "CYCLIC", "NOT_PROPER", "NOT_INTERVAL", "NOT_CYCLIC_INTERVAL",
    "Violation", "VerificationReport", "verify",
    "DEFAULT_MAX_N", "MAX_N_ENV_VAR", "SearchBoundExceeded", "SearchConfig",
    "search_bound", "exists_search", "enumerate_colorings", "count_colorings",
    "theta_by_search", "ComponentSpan", "ProofDecomposition", "decompose",
]


def test_the_public_names_are_pinned():
    import cyclic_chroma

    assert cyclic_chroma.__all__ == PUBLIC_NAMES


def test_the_cli_imports_only_the_pinned_private_names():
    # a private library name the CLI imports is a second way into the
    # library beside its public one, so adding one is a deliberate edit here
    path = SRC / "cli.py"
    found = {
        alias.name
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom)
        and node.level == 1
        and node.module in LIBRARY_MODULES
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert found == {"_PLAIN_INT", "_check_n"}


def test_no_dataclasses_import():
    # the record classes derive from model._Record; the class generator
    # would cost every process its import and a class build per record
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
        or isinstance(node, ast.Import)
        and any(alias.name == "dataclasses" for alias in node.names)
    ]
    assert found == []


def test_the_cli_leaves_dataclasses_unloaded():
    # runs the CLI as `python -m cyclic_chroma.cli` would, and at exit
    # writes whether the process loaded the class generator or click, then
    # the package's modules it loaded; the CLI module itself runs as
    # __main__, so a command loads exactly the package and four modules
    probe = (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: print('dataclasses' in sys.modules,"
        " 'click' in sys.modules,"
        " *sorted(m for m in sys.modules if m.startswith('cyclic_chroma')),"
        " file=sys.stderr))\n"
        "runpy.run_module('cyclic_chroma.cli', run_name='__main__', alter_sys=True)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, "theta", "10", "--json"],
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1].split() == [
        "False",
        "False",
        "cyclic_chroma",
        "cyclic_chroma.characterization",
        "cyclic_chroma.model",
        "cyclic_chroma.oracle",
        "cyclic_chroma.verifier",
    ]


def test_the_walk_makes_no_iterator_per_node():
    # the search's cost is its cost per node: each node reads its
    # successors from a pair and keeps the one left to try in an int, so
    # the loop over the nodes creates no iterator and advances none
    tree = ast.parse((SRC / "oracle.py").read_text())
    walks = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_walks"
    )
    loops = [node for node in ast.walk(walks) if isinstance(node, ast.While)]
    assert len(loops) == 1
    called = {
        node.func.id
        for node in ast.walk(loops[0])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert called.isdisjoint({"iter", "next"}), called


def test_the_workflow_starts_no_cli_of_its_own():
    # checks of the CLI as a real process live in tests/test_processes.py,
    # which the workflow's tier-1 step runs; a plain text search, since no
    # YAML parser is a test dependency
    assert re.findall(r"cyclic[_-]chroma", WORKFLOW.read_text()) == []
