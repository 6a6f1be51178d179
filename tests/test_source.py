import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "cyclic_chroma"


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
    ("model.py", "rotate_edges"),
    ("model.py", "shift_colors"),
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


def test_unchecked_feasible_sets_come_from_the_closed_forms():
    # ThetaSet._of_ranges checks none of its ranges, so only the closed
    # forms, whose ranges _split makes right, may call it
    assert _callers("_of_ranges") == {
        ("characterization.py", "theta_cyclic"),
        ("characterization.py", "theta_interval"),
    }


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
    # writes whether the process loaded the class generator or click
    probe = (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: print('dataclasses' in sys.modules,"
        " 'click' in sys.modules, file=sys.stderr))\n"
        "runpy.run_module('cyclic_chroma.cli', run_name='__main__', alter_sys=True)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, "theta", "10", "--json"],
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "False False"
