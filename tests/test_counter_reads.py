"""Guard: every counter a core model increments is read somewhere.

The numbers an experiment reports come from ``SimulationStats`` and each
model's ``statistics()``.  A component that bumps ``self.X`` on the
simulated path while nothing under ``src/repro`` ever reads ``X`` keeps a
shadow counter: it costs time per event and suggests a measurement that
no report shows.  This test walks the AST of the core component packages
and fails on any attribute incremented in place (``self.X += ...``) that
has no read (``Load`` context) anywhere in the package sources.  The
increment itself stores to ``X`` and does not count as a read; a
``statistics()`` entry, a ``SimulationStats`` fill or a control-flow
test does.
"""

from __future__ import annotations

import ast
import os

import repro

SRC = os.path.dirname(repro.__file__)

#: The component-model packages whose counters are checked.
CORE_PACKAGES = ("execute", "frontend", "memsys", "regfile", "rename")


def _python_files(root: str):
    for directory, _, names in os.walk(root):
        for name in sorted(names):
            if name.endswith(".py"):
                yield os.path.join(directory, name)


def _parse(path: str) -> ast.AST:
    with open(path, "r", encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


def self_increments(paths) -> list[tuple[str, int, str]]:
    """``(file, line, attribute)`` of every ``self.X += ...`` in ``paths``."""
    found = []
    for path in paths:
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.AugAssign):
                continue
            target = node.target
            if (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                found.append((path, node.lineno, target.attr))
    return found


def attribute_reads(paths) -> set[str]:
    """Names of every attribute read (``Load`` context) in ``paths``."""
    names = set()
    for path in paths:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def unread_counters(core_paths, all_paths) -> list[str]:
    """``file:line: self.X`` for every increment whose ``X`` nobody reads."""
    read = attribute_reads(all_paths)
    return [
        f"{os.path.relpath(path, os.path.dirname(SRC))}:{line}: self.{attr}"
        for path, line, attr in self_increments(core_paths)
        if attr not in read
    ]


def test_every_incremented_counter_is_read():
    core = [path for package in CORE_PACKAGES
            for path in _python_files(os.path.join(SRC, package))]
    found = unread_counters(core, list(_python_files(SRC)))
    assert not found, (
        "counters incremented but never read under src/repro; report them "
        "(statistics() or SimulationStats) or delete them:\n" + "\n".join(found)
    )


def test_detects_an_unread_counter(tmp_path):
    model = tmp_path / "model.py"
    model.write_text(
        "class Model:\n"
        "    def __init__(self):\n"
        "        self.reported = 0\n"
        "        self.shadow = 0\n"
        "    def step(self):\n"
        "        self.reported += 1\n"
        "        self.shadow += 1\n"
        "    def statistics(self):\n"
        "        return {'reported': self.reported}\n",
        encoding="utf-8",
    )
    found = unread_counters([str(model)], [str(model)])
    assert len(found) == 1
    assert found[0].endswith("model.py:7: self.shadow")
