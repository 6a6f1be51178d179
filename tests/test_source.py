import ast
import importlib
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
    ("constructor.py", "zigzag_staircase"),
    ("constructor.py", "tent"),
    ("model.py", "rotate_edges"),
    ("model.py", "shift_colors"),
    ("oracle.py", "enumerate_colorings"),
}


def _trusted_references(node, where, out):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = node.name
    if isinstance(node, ast.Attribute) and node.attr == "_trusted":
        out.add(where)
    if isinstance(node, ast.Name) and node.id == "_trusted":
        out.add(where)
    for child in ast.iter_child_nodes(node):
        _trusted_references(child, where, out)


def test_unchecked_colorings_come_from_the_known_builders():
    # CycleColoring._trusted skips every check, so only builders whose
    # output is in range by construction may call it
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        callers = set()
        _trusted_references(ast.parse(path.read_text(), str(path)), "<module>", callers)
        found |= {(str(path.relative_to(SRC)), name) for name in callers}
    assert found == TRUSTED_CALLERS


LIBRARY_MODULES = ("model", "characterization", "constructor", "verifier", "oracle")


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
