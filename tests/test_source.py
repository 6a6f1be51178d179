import ast
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
