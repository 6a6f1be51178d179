"""Recolor one edge of a coloring record: ``python tests/recolor.py EDGE COLOR``.

Reads a record such as ``cyclic_chroma.cli make`` prints on standard input
and writes it back on standard output, compact, with edge EDGE (1-based)
given color COLOR.  The golden ``check`` reports in ``tests/data/check``,
named ``make-N-T-edgeE-colorC``, are made from
``make N T | recolor.py E C``.
"""

import json
import sys


def recolor(record: str, edge: int, color: int) -> str:
    data = json.loads(record)
    data["colors"][edge - 1] = color
    return json.dumps(data, separators=(",", ":")) + "\n"


if __name__ == "__main__":
    edge, color = map(int, sys.argv[1:])
    sys.stdout.write(recolor(sys.stdin.read(), edge, color))
