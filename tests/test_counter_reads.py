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

import pytest

import repro
from repro.experiments.common import (
    OneLevelBankedFactory,
    RegisterFileCacheFactory,
    SingleBankedFactory,
)
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.processor import simulate
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import SyntheticWorkload

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


# ----------------------------------------------------------------------
# identities between the register files' counters
# ----------------------------------------------------------------------

#: Every register file organisation the experiments build: the three
#: single-banked files, the register file cache under each caching and
#: fetch policy family and with limited ports and buses, and the
#: one-level banked file.
IDENTITY_FACTORIES = {
    "1-cycle": SingleBankedFactory(latency=1, bypass_levels=1),
    "2-cycle-full-bypass": SingleBankedFactory(latency=2, bypass_levels=2),
    "2-cycle-1-bypass": SingleBankedFactory(latency=2, bypass_levels=1),
    "rfc-default": RegisterFileCacheFactory(),
    "rfc-fetch-on-demand": RegisterFileCacheFactory(fetch="fetch-on-demand"),
    "rfc-ready": RegisterFileCacheFactory(caching="ready"),
    "rfc-never": RegisterFileCacheFactory(caching="never"),
    "rfc-4r2w-2bus": RegisterFileCacheFactory(
        upper_read_ports=4, upper_write_ports=2, lower_write_ports=4, buses=2),
    "banked-4x2r2w": OneLevelBankedFactory(
        num_banks=4, read_ports_per_bank=2, write_ports_per_bank=2),
}

IDENTITY_INSTRUCTIONS = 1500

#: ``statistics()`` name of the reads a file delivered from its
#: (uppermost) bank, by organisation.
FILE_READS = ("reads_from_file", "reads_from_upper", "reads_from_banks")


@pytest.mark.parametrize("profile", ["gcc", "fpppp"])
@pytest.mark.parametrize("architecture", sorted(IDENTITY_FACTORIES))
def test_register_file_counters_agree(profile, architecture):
    stream = list(SyntheticWorkload(get_profile(profile)).instructions(
        IDENTITY_INSTRUCTIONS * 3 // 2))
    stats = simulate(stream, IDENTITY_FACTORIES[architecture],
                     ProcessorConfig(max_instructions=IDENTITY_INSTRUCTIONS),
                     benchmark_name=profile)
    assert stats.committed_instructions == IDENTITY_INSTRUCTIONS
    counters = stats.regfile_statistics
    classes = sorted({name.split("_", 1)[0] for name in counters})
    assert len(classes) == 2, counters
    # Every operand the pipeline counts was delivered by one of the files,
    # from its bank or from the bypass network.
    delivered = sum(
        counters[f"{reg_class}_reads_from_bypass"]
        + sum(counters.get(f"{reg_class}_{name}", 0) for name in FILE_READS)
        for reg_class in classes
    )
    assert delivered == stats.operands_from_bypass + stats.operands_from_file > 0
    for reg_class in classes:
        if f"{reg_class}_bus_transfers" in counters:
            # Each bus transfer is one fill into the upper level.
            assert counters[f"{reg_class}_bus_transfers"] == (
                counters[f"{reg_class}_demand_fills"]
                + counters[f"{reg_class}_prefetch_fills"]
            )
    # The ROB and the window both hold 128 at Table 1 and dispatch checks
    # the ROB first, so a full window is never the reason it stops.
    assert stats.dispatch_stalls_window == 0
