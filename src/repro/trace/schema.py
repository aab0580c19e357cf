"""Decoded-trace schema: identity keys and compact serialization.

A decoded trace captures everything the pipeline consumes from the
frontend:

* the **instruction stream** — the materialized
  :class:`~repro.isa.instruction.DynamicInstruction` list, and
* the **fetch events** — one entry per delivering ``fetch()`` call of
  the recording run: how many instructions the group carried, the
  fetch-unit stall it left behind (I-cache refill, BTB-miss bubble),
  the I-cache hit/miss deltas, and whether the group ended blocked on a
  mispredicted branch or discovered stream exhaustion.

Fetch-group composition never reads the cycle counter, so the events
are a pure function of (workload, frontend configuration); the trace
key names exactly those two things.  Backend parameters (register
budgets, window sizes, regfile architecture) deliberately do **not**
enter the key — that is what lets one trace drive a whole sweep.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import zlib
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.isa.instruction import (
    FP_LOGICAL_REGISTERS,
    INT_LOGICAL_REGISTERS,
    DynamicInstruction,
    LogicalRegister,
)
from repro.isa.opcodes import OpClass
from repro.pipeline.config import ProcessorConfig

#: Bump whenever the blob layout changes; mismatching stored traces
#: are treated as cache misses, never as errors.
TRACE_SCHEMA_VERSION = 2

#: Fetch-event flag bits.
ENDS_BLOCKED = 1  #: group ends with a mispredicted branch; fetch blocks.
EXHAUSTS = 2  #: the stream ran out during (or right before) this call.

#: One fetch event: (count, post_stall, icache_hits, icache_misses, flags).
FetchEvent = Tuple[int, int, int, int, int]

_OP_CLASSES: Tuple[OpClass, ...] = tuple(OpClass)
_OP_INDEX: Dict[OpClass, int] = {op: i for i, op in enumerate(_OP_CLASSES)}


def frontend_fingerprint(config: ProcessorConfig) -> dict:
    """The frontend-relevant subset of a :class:`ProcessorConfig`.

    Everything that shapes fetch-group composition or frontend outcomes:
    fetch width (groups end at width), the I-cache geometry (misses end
    groups and stall fetch) and the predictor/BTB sizes (direction and
    target outcomes).  Backend fields are excluded on purpose — replay
    fidelity across backends is what ``tests/test_trace_replay.py``
    locks down.
    """
    return {
        "fetch_width": config.fetch_width,
        "icache": dataclasses.asdict(config.icache),
        "branch_predictor_entries": config.branch_predictor_entries,
        "btb_entries": config.btb_entries,
    }


def _canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


def trace_key(workload_id: dict, config: ProcessorConfig) -> str:
    """Key identifying one decoded trace: ``<family>-<instructions>``.

    ``workload_id`` pins the instruction stream (e.g. ``{"kind":
    "synthetic-profile", "benchmark": "gcc", "instructions": 6000}``);
    the frontend fingerprint pins how it is fetched.  The key is the
    stream's :func:`trace_family` and its length, so a store finds every
    trace of a family from its keys alone (:func:`family_length`).
    """
    family = trace_family(workload_id, frontend_fingerprint(config))
    return f"{family}-{workload_id['instructions']}"


def trace_family(workload_id: dict, frontend: dict) -> str:
    """Content hash of every trace of one stream at any length.

    The workload identity without its ``instructions`` count, plus the
    frontend fingerprint: a generated stream's first *n* instructions do
    not depend on how many follow, so the traces of one family differ
    only past the end of the shorter one.
    """
    payload = {
        "schema": TRACE_SCHEMA_VERSION,
        "family": {name: value for name, value in workload_id.items()
                   if name != "instructions"},
        "frontend": frontend,
    }
    return hashlib.sha256(_canonical_json(payload).encode("utf-8")).hexdigest()


def family_length(key: str) -> Optional[Tuple[str, int]]:
    """The ``(family, length)`` a :func:`trace_key` names, or ``None``
    for a key of any other form."""
    family, _, length = key.rpartition("-")
    try:
        return (family, int(length)) if family else None
    except ValueError:
        return None


# ----------------------------------------------------------------------
# the columnar blob
# ----------------------------------------------------------------------

#: Register codes of a blob: 0 is "no register", ``1 + 2 * index +
#: is_fp`` a logical register.  Decoding indexes this table by code.
_REGISTERS: Tuple[Optional[LogicalRegister], ...] = (None,) + tuple(
    register
    for pair in zip(INT_LOGICAL_REGISTERS, FP_LOGICAL_REGISTERS)
    for register in pair
)

#: Bits of the per-instruction ``flags`` column.
_IS_BRANCH = 1
_TAKEN = 2
_HAS_MEM = 4  #: ``mem_address`` is not ``None`` (0 is stored for ``None``).
#: ``flags`` value -> ``(is_branch, branch_taken, has_mem)``.
_FLAG_BITS = tuple(
    (bool(flags & _IS_BRANCH), bool(flags & _TAKEN), bool(flags & _HAS_MEM))
    for flags in range(8)
)

#: A blob's columns in order, with their ``array`` typecodes.  The first
#: ten hold one item per instruction: ``sources`` indexes the table of
#: distinct source tuples, ``mnemonic`` the header's mnemonic table.  The
#: source table follows (each tuple's length, then every tuple's
#: register codes, flattened), then the fetch events (five integers each,
#: flattened).  Columns are stored in the recording machine's byte
#: order, which the header names; a blob from the other order is a miss.
_COLUMNS = (
    ("seq", "q"), ("op_class", "B"), ("dest", "B"), ("sources", "I"),
    ("latency", "q"), ("pc", "q"), ("flags", "B"), ("branch_target", "q"),
    ("mem_address", "q"), ("mnemonic", "H"),
    ("source_lengths", "B"), ("source_registers", "B"), ("events", "q"),
)

#: zlib level of a blob: on an 8k-instruction trace level 6 takes about
#: five times as long as level 1 for about 17% fewer bytes; any level
#: decompresses alike.
_ZLIB_LEVEL = 1


# ----------------------------------------------------------------------
# the trace object
# ----------------------------------------------------------------------

@dataclass
class DecodedTrace:
    """A recorded decoded-instruction / fetch-event stream.

    A trace is never changed once recorded: its instructions, its events
    and its replay groups are read-only, so any number of replays of one
    trace may run at once, in one process or several.  Each replay builds
    its own in-flight records.
    """

    name: str
    key: str
    workload: dict
    frontend: dict
    instructions: List[DynamicInstruction]
    events: List[FetchEvent]
    #: Lazily-built :meth:`replay_groups`, shared by replayers.
    _groups: Optional[Tuple[array, array]] = field(
        default=None, init=False, repr=False, compare=False)
    #: The :meth:`to_bytes` blob, once encoded or decoded.
    _blob: Optional[bytes] = field(default=None, init=False, repr=False,
                                   compare=False)

    def __len__(self) -> int:
        return len(self.instructions)

    def replay_groups(self) -> Tuple[array, array]:
        """Where each fetch event's group sits in :attr:`instructions`.

        ``(starts, branch_counts)``: per event, the index of its first
        instruction and the number of branches it fetches, in two
        compact arrays built (and the events checked against the
        instructions) once per trace.  A replayer's fetch slices its
        group from :attr:`instructions`; the arrays are read-only and
        hold no per-replay state, so replayers of one trace share them.
        """
        if self._groups is None:
            starts = array("q")
            branch_counts = array("I")
            instructions = self.instructions
            total = len(instructions)
            position = 0
            for count, _, _, _, flags in self.events:
                end = position + count
                branches = 0
                for inst in instructions[position:end]:
                    if inst.is_branch:
                        branches += 1
                if flags & ENDS_BLOCKED and not (
                        count and end <= total and instructions[end - 1].is_branch):
                    raise SimulationError(
                        f"corrupt trace {self.name!r}: blocked fetch event "
                        "does not end with a branch"
                    )
                starts.append(position)
                branch_counts.append(branches)
                position = end
            if position != total:
                raise SimulationError(
                    f"corrupt trace {self.name!r}: events cover {position} of "
                    f"{total} instructions"
                )
            self._groups = (starts, branch_counts)
        return self._groups

    def replayer(self):
        """A fresh frontend-source for one pipeline run over this trace."""
        from repro.trace.replayer import TraceReplayer

        return TraceReplayer(self)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """The trace as one zlib-compressed columnar blob (inverse of
        :meth:`from_bytes`).

        The blob is encoded on the first call and kept on the trace, as
        the replay groups are: the trace store writes it, a record worker
        returns it and a replay batch ships it, each without encoding the
        trace again.  A trace is never changed once recorded.
        """
        if self._blob is None:
            instructions = self.instructions
            op_index = _OP_INDEX
            sources: Dict[tuple, int] = {}
            mnemonics: Dict[str, int] = {}
            # Register codes from the cached register hash, 2 * index +
            # is_fp: a stream's registers need not be the canonical
            # objects, and comparing equal copies is a Python call.
            columns = (
                [inst.seq for inst in instructions],
                [op_index[inst.op_class] for inst in instructions],
                [0 if inst.dest is None else inst.dest._hash + 1
                 for inst in instructions],
                [sources.setdefault(inst.sources, len(sources))
                 for inst in instructions],
                [inst.latency for inst in instructions],
                [inst.pc for inst in instructions],
                [(_IS_BRANCH if inst.is_branch else 0)
                 | (_TAKEN if inst.branch_taken else 0)
                 | (0 if inst.mem_address is None else _HAS_MEM)
                 for inst in instructions],
                [inst.branch_target for inst in instructions],
                [inst.mem_address or 0 for inst in instructions],
                [mnemonics.setdefault(inst.mnemonic, len(mnemonics))
                 for inst in instructions],
                [len(registers) for registers in sources],
                [register._hash + 1 for registers in sources
                 for register in registers],
                [value for event in self.events for value in event],
            )
            header = json.dumps({
                "schema": TRACE_SCHEMA_VERSION,
                "byteorder": sys.byteorder,
                "name": self.name,
                "key": self.key,
                "workload": self.workload,
                "frontend": self.frontend,
                "mnemonics": list(mnemonics),
                "lengths": [len(column) for column in columns],
            }).encode("utf-8")
            body = [len(header).to_bytes(4, "little"), header]
            for (_, typecode), values in zip(_COLUMNS, columns):
                body.append(array(typecode, values).tobytes())
            self._blob = zlib.compress(b"".join(body), _ZLIB_LEVEL)
        return self._blob

    @classmethod
    def from_bytes(cls, blob: bytes) -> "DecodedTrace":
        """Rebuild a trace from :meth:`to_bytes` output, keeping ``blob``.

        Each instruction gets the stored values directly; the recorded
        ones already went through ``DynamicInstruction.__post_init__``.

        Raises
        ------
        SimulationError
            On a schema or byte-order mismatch or a structurally invalid
            blob.
        """
        try:
            raw = zlib.decompress(blob)
            size = int.from_bytes(raw[:4], "little")
            header = json.loads(raw[4:4 + size])
        except (zlib.error, ValueError) as error:
            raise SimulationError(f"malformed trace blob: {error}") from error
        schema = header.get("schema") if isinstance(header, dict) else header
        if schema != TRACE_SCHEMA_VERSION:
            raise SimulationError(
                f"trace blob schema {schema!r} != {TRACE_SCHEMA_VERSION}"
            )
        if header.get("byteorder") != sys.byteorder:
            raise SimulationError(
                f"trace blob byte order {header.get('byteorder')!r} != "
                f"{sys.byteorder!r}"
            )
        try:
            columns = []
            body = memoryview(raw)[4 + size:]
            offset = 0
            for (name, typecode), length in zip(_COLUMNS, header["lengths"],
                                                strict=True):
                column = array(typecode)
                end = offset + length * column.itemsize
                column.frombytes(body[offset:end])
                if len(column) != length:
                    raise ValueError(f"column {name!r} is truncated")
                columns.append(column)
                offset = end
            if offset != len(body):
                raise ValueError(f"{len(body) - offset} bytes after the columns")
            (seqs, ops, dests, source_ids, latencies, pcs, flags, targets,
             mem_addresses, mnemonic_ids, source_lengths, source_registers,
             event_values) = columns

            registers = _REGISTERS
            # One tuple per distinct source list, shared by every
            # instruction that reads it.
            source_table = []
            start = 0
            for length in source_lengths:
                source_table.append(tuple(
                    [registers[code] for code in source_registers[start:start + length]]
                ))
                start += length
            if start != len(source_registers):
                raise ValueError("source lengths do not cover the source registers")

            # One int per distinct pc and branch target, shared like the
            # source tuples: a stream has few distinct code addresses.
            # The table maps each value to itself and is read through
            # ``map`` at C speed; a trace's pcs need not come from the
            # synthetic code layout, so it is keyed by value.
            addresses = {value: value for value in set(pcs).union(targets)}
            shared = addresses.__getitem__

            op_classes = _OP_CLASSES
            flag_bits = _FLAG_BITS
            mnemonics = header["mnemonics"]
            new = object.__new__
            instruction_class = DynamicInstruction
            instructions = []
            append = instructions.append
            for (seq, op, dest, source_id, latency, pc, flag, target,
                 mem_address, mnemonic_id) in zip(
                    seqs, ops, dests, source_ids, latencies, map(shared, pcs),
                    flags, map(shared, targets), mem_addresses, mnemonic_ids):
                is_branch, taken, has_mem = flag_bits[flag]
                inst = new(instruction_class)
                inst.seq = seq
                inst.op_class = op_classes[op]
                inst.dest = registers[dest]
                inst.sources = source_table[source_id]
                inst.latency = latency
                inst.pc = pc
                inst.is_branch = is_branch
                inst.branch_taken = taken
                inst.branch_target = target
                inst.mem_address = mem_address if has_mem else None
                inst.mnemonic = mnemonics[mnemonic_id]
                append(inst)

            if len(event_values) % 5:
                raise ValueError("fetch events are not five integers each")
            values = iter(event_values)
            # One tuple per distinct event: a trace repeats a few dozen.
            distinct_events: Dict[FetchEvent, FetchEvent] = {}
            share_event = distinct_events.setdefault
            events = [share_event(event, event)
                      for event in zip(values, values, values, values, values)]
            trace = cls(
                name=header["name"],
                key=header["key"],
                workload=dict(header["workload"]),
                frontend=dict(header["frontend"]),
                instructions=instructions,
                events=events,
            )
        except (KeyError, IndexError, TypeError, ValueError) as error:
            raise SimulationError(f"malformed trace blob: {error}") from error
        if sum(event[0] for event in events) != len(instructions):
            raise SimulationError(
                "malformed trace blob: event instruction counts do not "
                "cover the stream"
            )
        trace._blob = blob
        return trace
