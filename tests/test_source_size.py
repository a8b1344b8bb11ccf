"""``src/`` shrinks or stays flat.

The package is compiled afresh at every benchmark set-up, so its size reaches
the measured set-up time.  The count is the number of ``ast.walk`` nodes over
``src/dressedmet/*.py``, which reformatting and comments do not move.  A
change that must grow ``src/`` raises ``CEILING`` in the same diff and says
why in CHANGES.md; one that shrinks it may lower the ceiling to the new count.

Each ``@dataclass`` class also costs generated code at every import (0.3 to
1.2 ms, with or without bytecode; a ``NamedTuple`` class about 0.07 ms), so
their count is capped as well: a record that validates nothing is a
``NamedTuple``, and a new dataclass raises ``DATACLASSES`` in a declared change.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dressedmet"

CEILING = 23418
DATACLASSES = 10


def test_src_stays_within_its_node_ceiling():
    counts = {path.name: sum(1 for _ in ast.walk(ast.parse(path.read_text())))
              for path in SRC.glob("*.py")}
    nodes = sum(counts.values())
    # name each module's count, largest first, so a failure shows where src/ grew
    per_module = ", ".join(f"{name} {n}" for name, n in sorted(counts.items(), key=lambda kv: -kv[1]))
    assert nodes <= CEILING, f"src/dressedmet has {nodes} AST nodes, over the ceiling {CEILING}: {per_module}"


def _dataclasses(tree) -> list:
    """Names of the classes decorated ``@dataclass`` or ``@dataclass(...)``."""
    def named(d):
        d = d.func if isinstance(d, ast.Call) else d
        return (d.attr if isinstance(d, ast.Attribute) else getattr(d, "id", None)) == "dataclass"

    return [node.name for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and any(map(named, node.decorator_list))]


def test_src_stays_within_its_dataclass_cap():
    names = [name for path in sorted(SRC.glob("*.py")) for name in _dataclasses(ast.parse(path.read_text()))]
    assert len(names) <= DATACLASSES, f"{len(names)} dataclasses in src/dressedmet, over {DATACLASSES}: {names}"
