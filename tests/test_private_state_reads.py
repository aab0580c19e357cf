"""Guard: the pipeline's back-end state has one owner and public names.

The reorder buffer, the load/store queue and the consumer offset are
attributes of :class:`~repro.pipeline.processor.Processor`, the value
states sit in the window (``IssueQueue.values``) and the map table in
the renamer (``Renamer.map``).  What the stages read of the window, the
free lists and the functional-unit pool is public (``entries``,
``waiters``, ``consumers``, ``values``, ``free``, ``members``,
``group_for_class``).  This test walks the syntax tree of every module
under ``src/repro`` and fails on any read or write of one of the old
private names through an object other than ``self``: such an access is
a wrapper whose caller already knows everything behind it.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The private names other modules used to reach into.
PRIVATE_STATE = frozenset({
    "_entries", "_waiters", "_consumers", "_states", "_sb_states",
    "_int_free", "_fp_free", "_free", "_members", "_slots", "_group_for_class",
})


def cross_object_accesses(source: str, filename: str = "<source>") -> list[str]:
    """``file:line: expression`` for each listed name read off a non-``self`` object."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not (isinstance(node, ast.Attribute) and node.attr in PRIVATE_STATE):
            continue
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            continue
        found.append(f"{filename}:{node.lineno}: {ast.unparse(node)}")
    return found


def test_no_cross_object_private_state_access():
    found = []
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        found += cross_object_accesses(path.read_text(), str(path.relative_to(SOURCE_ROOT)))
    assert not found, "private state read through another object:\n" + "\n".join(found)


def test_detects_cross_object_access():
    source = (
        "def stage(self, processor):\n"
        "    self._entries.clear()\n"
        "    return processor.rob._entries, processor.renamer._int_free._free\n"
    )
    assert cross_object_accesses(source) == [
        "<source>:3: processor.rob._entries",
        "<source>:3: processor.renamer._int_free._free",
        "<source>:3: processor.renamer._int_free",
    ]
