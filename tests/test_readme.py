"""The README's ``## Library`` example runs and shows what it says.

Each line of the example's code block is run in turn.  A line with a
comment states its result: the comment's text, up to any ``": "``, is the
repr of the line's value, or of the name a line binds.
"""

from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def library_example():
    """The lines of the first python code block under ``## Library``."""
    section = README.read_text().split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    return block.splitlines()


def test_library_example_shows_its_results():
    namespace = {}
    checked = 0
    for line in library_example():
        code, _, comment = line.partition("#")
        code = code.strip()
        if not code:
            continue
        name, eq, value = code.partition(" = ")
        if eq:
            exec(code, namespace)
            got = namespace[name]
        elif code.startswith(("from ", "import ")):
            exec(code, namespace)
            continue
        else:
            got = eval(code, namespace)
        want = comment.strip().split(": ", 1)[0]
        assert repr(got) == want, line
        checked += 1
    assert checked == 5
