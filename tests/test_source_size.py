"""``src/`` shrinks or stays flat.

The package is compiled afresh at every benchmark set-up, so its size reaches
the measured set-up time.  The count is the number of ``ast.walk`` nodes over
``src/dressedmet/*.py``, which reformatting and comments do not move.  A
change that must grow ``src/`` raises ``CEILING`` in the same diff and says
why in CHANGES.md; one that shrinks it may lower the ceiling to the new count.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dressedmet"

CEILING = 24345


def test_src_stays_within_its_node_ceiling():
    nodes = sum(sum(1 for _ in ast.walk(ast.parse(path.read_text()))) for path in SRC.glob("*.py"))
    assert nodes <= CEILING, f"src/dressedmet has {nodes} AST nodes, over the ceiling {CEILING}"
