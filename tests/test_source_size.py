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

CEILING = 24423


def test_src_stays_within_its_node_ceiling():
    counts = {path.name: sum(1 for _ in ast.walk(ast.parse(path.read_text())))
              for path in SRC.glob("*.py")}
    nodes = sum(counts.values())
    # name each module's count, largest first, so a failure shows where src/ grew
    per_module = ", ".join(f"{name} {n}" for name, n in sorted(counts.items(), key=lambda kv: -kv[1]))
    assert nodes <= CEILING, f"src/dressedmet has {nodes} AST nodes, over the ceiling {CEILING}: {per_module}"
