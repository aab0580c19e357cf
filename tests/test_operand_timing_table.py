"""The operand-timing table of docs/architecture.md, row by row.

Each row names an architecture, a distance ``d`` and, for a write-back
at ``ex_end + 1`` and for one held back to a later cycle ``w``, the
source the consumer's operand comes from and the cycle the consumer
executes.  Every row runs one producer and one dependent consumer
through the pipeline's stages (``StagedPipeline``), so the table states
what the processor's gate and the model's source choice do together.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.experiments.common import OneLevelBankedFactory, architecture_factories
from repro.isa.instruction import int_reg
from staged_pipeline import StagedPipeline, op

DOC = Path(__file__).resolve().parent.parent / "docs" / "architecture.md"
HEADING = "## Operand timing"
DISTANCES = range(6)
#: A held-back write-back lands this many cycles after ``ex_end``: past
#: the first read attempt of every distance in the table.
HELD_BACK = 8
_CYCLE = re.compile(r"^(ex_end|w)\+(\d+)$")


def _factories():
    factories = dict(architecture_factories())
    factories["one-level banked"] = OneLevelBankedFactory()
    return factories


def _table_rows():
    """The table's data rows, as lists of cell strings."""
    text = DOC.read_text(encoding="utf-8")
    section = text[text.index(HEADING):]
    section = section[:section.index("\n## ", 1)]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines]
    header, rule, *data = rows
    assert header[:2] == ["Architecture", "d"] and len(header) == 6
    assert set("".join(rule)) <= {"-", " "}
    return data


ROWS = _table_rows()


def _cycle(cell: str, ex_end: int, w: int) -> int:
    match = _CYCLE.match(cell)
    assert match, f"bad cycle cell {cell!r}"
    base = ex_end if match.group(1) == "ex_end" else w
    return base + int(match.group(2))


def _run_pair(factory, d: int, held_back: bool):
    """Run a producer and its consumer; the consumer's own readiness
    lets it execute from ``ex_end + d`` on.

    Returns ``(source, execute_cycle, ex_end, w)``.
    """
    pipe = StagedPipeline(factory)
    read_stages = pipe.processor.read_stages
    completions = pipe.processor._completions
    # The producer, dispatched in cycle 0, issues in cycle 1 and ends at
    # ex_end = 1 + read_stages; a consumer dispatched in cycle d could
    # issue from d + 1 and execute from d + 1 + read_stages = ex_end + d.
    dispatches = {0: [op(0, dest=int_reg(1))]}
    dispatches.setdefault(d, []).append(op(1, dest=int_reg(3), sources=[int_reg(1)]))
    entries = []
    ex_end = 1 + read_stages
    w = ex_end + HELD_BACK
    for cycle in range(w + 4):
        entries += pipe.step(cycle, *dispatches.get(cycle, ()))
        if cycle == 1:
            assert entries[0].dest_state.ex_end_cycle == ex_end
            if held_back:
                completions[w] = completions.pop(ex_end + 1)
        if len(entries) == 2 and entries[1].issued:
            consumer = entries[1]
            return consumer.accesses[0].source.value, cycle + read_stages, ex_end, w
    raise AssertionError("the consumer never issued")


def test_table_covers_every_architecture_and_distance():
    expected = {(name, str(d)) for name in _factories() for d in DISTANCES}
    keys = [(row[0], row[1]) for row in ROWS]
    assert len(keys) == len(set(keys))
    assert set(keys) == expected


@pytest.mark.parametrize("row", ROWS, ids=lambda row: f"{row[0]}-d{row[1]}")
def test_row_matches_the_pipeline(row):
    name, d, written_source, written_at, held_source, held_at = row
    factory = _factories()[name]
    for held_back, source, at in ((False, written_source, written_at),
                                  (True, held_source, held_at)):
        actual, executes, ex_end, w = _run_pair(factory, int(d), held_back)
        assert (actual, executes) == (source, _cycle(at, ex_end, w)), (
            f"{name}, d={d}, {'held back' if held_back else 'written'}")


@pytest.mark.parametrize("name", sorted(_factories()))
def test_no_consumer_executes_before_the_offset(name):
    # The processor's gate: whatever the distance, no row executes
    # earlier than ex_end + consumer_offset.
    factory = _factories()[name]
    offset = factory().consumer_offset
    for d in DISTANCES:
        _, executes, ex_end, _ = _run_pair(factory, d, held_back=False)
        assert executes == ex_end + max(d, offset)
